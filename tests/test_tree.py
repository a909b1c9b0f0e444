"""Routing-tree structure, queries, and invariant checking."""

import pytest
from hypothesis import given, settings, strategies as st

from least_sim import RoutingTree

from conftest import to_lines
from tree_reference import DictRoutingTree, attached, level, nodes, parent_map, validate

N = 12  # ids 0..N fit every fixture below


def chain_tree(*edges):
    t = RoutingTree(N)
    for child, parent in edges:
        t.attach(child, parent)
    return t


def test_attach_levels():
    t = chain_tree((5, 0), (6, 5))
    assert level(t, 5) == 1
    assert level(t, 6) == 2
    assert t.parent[6] == 5


def test_attach_rejects_self_loop():
    t = RoutingTree(N)
    with pytest.raises(ValueError):
        t.attach(5, 5)


def test_attach_rejects_unknown_parent_and_duplicates():
    t = chain_tree((1, 0))
    with pytest.raises(ValueError):
        t.attach(2, 9)
    with pytest.raises(ValueError):
        t.attach(1, 0)
    with pytest.raises(ValueError):
        t.attach(1, 0)  # still attached


def test_attach_rejects_cycle_through_floating_subtree():
    t = chain_tree((1, 0), (2, 1), (3, 2))
    t.detach_subtree_root(1)  # 2 floats with child 3
    with pytest.raises(ValueError):
        t.attach(2, 3)


def test_detach_leaf_returns_no_orphans():
    t = chain_tree((1, 0), (2, 1))
    assert t.detach_subtree_root(2) == []
    assert not attached(t, 2)


def test_detach_returns_orphans_ascending():
    t = chain_tree((1, 0), (4, 1), (2, 1), (9, 1))
    orphans = t.detach_subtree_root(1)
    assert orphans == [2, 4, 9]
    assert all(t.parent[o] is None for o in orphans)


def test_detach_bs_forbidden():
    with pytest.raises(ValueError):
        RoutingTree(N).detach_subtree_root(0)


def test_detach_then_reattach_round_trip():
    t = chain_tree((1, 0), (2, 0), (3, 1), (4, 3))
    orphans = t.detach_subtree_root(1)
    for o in orphans:
        t.attach(o, 2)
    t.attach(1, 2)
    assert validate(t, [1, 2, 3, 4]) is None
    assert level(t, 4) == 3  # 4 under 3 under 2


def test_first_level():
    t = chain_tree((3, 0), (7, 0), (5, 3))
    assert t.first_level() == [3, 7]
    assert RoutingTree(N).first_level() == []


def test_path_to_root():
    t = chain_tree((3, 0), (5, 3), (8, 5))
    assert t.path_to_root(0) == [0]
    assert t.path_to_root(3) == [3, 0]
    assert t.path_to_root(8) == [8, 5, 3, 0]
    with pytest.raises(ValueError):
        t.path_to_root(99)


def test_level_equals_path_length_minus_one():
    t = chain_tree((1, 0), (2, 1), (3, 2), (4, 0), (5, 4))
    for node in (0, 1, 2, 3, 4, 5):
        assert level(t, node) == len(t.path_to_root(node)) - 1


def test_max_depth():
    assert RoutingTree(N).max_depth() == 0
    assert chain_tree((1, 0)).max_depth() == 1
    assert chain_tree((1, 0), (2, 1), (3, 2)).max_depth() == 3


def test_max_depth_ignores_floating_subtree():
    t = chain_tree((1, 0), (2, 1), (3, 2), (4, 3), (5, 0))
    assert t.max_depth() == 4
    assert t.detach_subtree_root(2) == [3]  # 3 and 4 now float below no one
    assert t.max_depth() == 1
    t.attach(2, 5)
    assert t.max_depth() == 2
    t.attach(3, 1)  # the floating pair rides along
    assert t.max_depth() == 3


def test_validate_ok_and_coverage():
    t = chain_tree((1, 0), (2, 1))
    assert validate(t, [1, 2]) is None
    v = validate(t, [1, 2, 3])
    assert v is not None and v.invariant == "coverage" and v.node == 3


def test_validate_planted_cycle():
    t = chain_tree((1, 0), (2, 1), (3, 2))
    # plant a 2-cycle by brute force
    t.parent[2] = 3
    t.children[1].remove(2)
    t.children[3] = [2]
    v = validate(t, [1, 2, 3])
    assert v is not None and v.invariant == "acyclic"


def test_validate_inconsistent_child_list():
    t = chain_tree((1, 0), (2, 1))
    t.children[0].append(2)
    v = validate(t, [1, 2])
    assert v is not None and v.invariant == "consistency"


def test_serialization_lines():
    t = chain_tree((3, 0), (1, 0), (2, 3))
    assert to_lines(t) == "1 0\n2 3\n3 0"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_build_detach_reattach_stays_valid(data):
    """Any build-up plus subtree moves keeps every invariant intact."""
    n = data.draw(st.integers(min_value=1, max_value=12))
    t = RoutingTree(n)
    for node in range(1, n + 1):
        parent = data.draw(st.integers(min_value=0, max_value=node - 1))
        t.attach(node, parent)

    def assert_sound():
        assert validate(t, range(1, n + 1)) is None
        # depth and child order, recomputed from parent walks and sorting
        assert t.max_depth() == max((level(t, v) for v in nodes(t)), default=0)
        for p in [0, *nodes(t)]:
            assert t.children[p] == sorted(t.children[p])

    assert_sound()

    def subtree_of(root):
        seen, frontier = {root}, [root]
        while frontier:
            for child in t.children[frontier.pop()]:
                seen.add(child)
                frontier.append(child)
        return seen

    moves = data.draw(st.integers(min_value=0, max_value=4))
    for _ in range(moves):
        victim = data.draw(st.integers(min_value=1, max_value=n))
        orphans = t.detach_subtree_root(victim)
        # re-home orphans anywhere outside their own floating subtree
        for orphan in orphans:
            banned = subtree_of(orphan)
            spots = [i for i in range(n + 1) if attached(t, i) and i not in banned]
            t.attach(orphan, data.draw(st.sampled_from(spots)))
        spots = [i for i in range(n + 1) if attached(t, i) and i != victim]
        t.attach(victim, data.draw(st.sampled_from(spots)))
        assert_sound()
        for node in range(1, n + 1):
            assert level(t, node) == len(t.path_to_root(node)) - 1


# -- batched attach ------------------------------------------------------------

def floating_fixture():
    """5 under the base station; 1 detached, and 2 floating with 3 below it."""
    t = chain_tree((1, 0), (2, 1), (3, 2), (5, 0))
    assert t.detach_subtree_root(1) == [2]
    return t


@pytest.mark.parametrize("edge", [(5, 5), (0, 5), (5, 0), (4, 9), (4, 2), (2, 3)])
def test_attach_all_raises_what_attach_raises(edge):
    one, batch = floating_fixture(), floating_fixture()
    with pytest.raises(ValueError) as by_one:
        one.attach(*edge)
    with pytest.raises(ValueError) as by_batch:
        batch.attach_all([edge])
    assert str(by_batch.value) == str(by_one.value)
    assert parent_map(batch) == parent_map(one) == parent_map(floating_fixture())


def test_attach_all_cycle_through_an_edge_of_the_same_batch():
    t = floating_fixture()
    # 4 joins 2's floating subtree, then 2 is hung below 4
    with pytest.raises(ValueError, match="attaching 2 under 4 creates a cycle"):
        t.attach_all([(4, 3), (2, 4)])
    assert t.parent[4] == 3  # edges before the failing one stay in place
    assert t.parent[2] is None
    t.attach_all([(2, 5), (1, 4)])
    assert t.path_to_root(1) == [1, 4, 3, 2, 5, 0]


def reference_attach(parent_of, child, parent):
    """``attach``'s rules over a plain dict, walking for cycles every time."""
    if child == parent:
        raise ValueError(f"node {child} cannot be its own parent")
    if child == 0:
        raise ValueError("the base station cannot be attached")
    if child in parent_of:
        raise ValueError(f"node {child} is already attached")
    if parent != 0:
        if parent not in parent_of:
            raise ValueError(f"unknown parent: {parent}")
        cur = parent
        while cur is not None and cur != 0:
            if cur == child:
                raise ValueError(f"attaching {child} under {parent} creates a cycle")
            cur = parent_of.get(cur)
    parent_of[child] = parent


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_attach_all_matches_reference_rules(data):
    """Random batches and detaches: the same edges land and the same errors
    are raised as by the plain rules, cycle walk included."""
    n = data.draw(st.integers(min_value=1, max_value=8))
    node = st.integers(min_value=0, max_value=n)
    t, ref = RoutingTree(n), {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        if ref and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(sorted(ref)))
            orphans = t.detach_subtree_root(victim)
            assert orphans == sorted(c for c, p in ref.items() if p == victim)
            del ref[victim]
            for orphan in orphans:
                del ref[orphan]
            continue
        edges = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=5))
        want = None
        for child, parent in edges:
            try:
                reference_attach(ref, child, parent)
            except ValueError as exc:
                want = str(exc)
                break
        if want is None:
            t.attach_all(edges)
        else:
            with pytest.raises(ValueError) as got:
                t.attach_all(edges)
            assert str(got.value) == want
        assert parent_map(t) == ref
        for p in [0, *ref]:
            assert t.children[p] == sorted(c for c, q in ref.items() if q == p)


# -- list-backed map against the dict-backed reference -----------------------

def outcome(call, *args):
    """What a call returned, or the type and text of what it raised."""
    try:
        return call(*args)
    except (ValueError, KeyError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_same_map(t, ref, n):
    assert parent_map(t) == ref.parent_map()
    assert [t.children[i] for i in range(n + 1)] == [ref.children_of(i) for i in range(n + 1)]
    assert t.first_level() == ref.first_level()
    assert t.max_depth() == ref.max_depth()
    assert validate(t, range(1, n + 1)) == ref.validate(range(1, n + 1))
    for i in range(n + 1):
        got, want = outcome(t.path_to_root, i), outcome(ref.path_to_root, i)
        if want[0] is KeyError:  # the reference walks off a floating root
            assert got == (ValueError, f"node {i} hangs in a floating subtree")
        else:
            assert got == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_list_map_equals_dict_reference(data):
    """Random builds, detaches and re-attaches give equal maps, child orders,
    queries and errors on the list-backed map and on the dict reference."""
    n = data.draw(st.integers(min_value=1, max_value=10))
    node = st.integers(min_value=0, max_value=n)
    t, ref = RoutingTree(n), DictRoutingTree()
    for _ in range(data.draw(st.integers(min_value=1, max_value=15))):
        if data.draw(st.booleans()):
            edges = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=6))
            assert outcome(t.attach_all, edges) == outcome(ref.attach_all, edges)
        else:
            victim = data.draw(node)
            orphans = outcome(t.detach_subtree_root, victim)
            assert orphans == outcome(ref.detach_subtree_root, victim)
            if isinstance(orphans, list):  # re-home each orphan, then the victim
                for child in [*orphans, victim]:
                    parent = data.draw(node)
                    assert outcome(t.attach, child, parent) == outcome(ref.attach, child, parent)
        assert_same_map(t, ref, n)


@pytest.mark.parametrize("call, args", [
    ("attach", (N + 1, 0)), ("attach", (1, N + 1)), ("attach", (-1, 0)), ("attach", (1, -1)),
    ("detach_subtree_root", (N + 1,)), ("detach_subtree_root", (-1,)),
    ("path_to_root", (N + 1,)), ("path_to_root", (-1,)),
])
def test_ids_outside_the_map_are_rejected(call, args):
    t = chain_tree((1, 0), (2, 1))
    with pytest.raises(ValueError, match=rf"outside 0\.\.{N}"):
        getattr(t, call)(*args)
    assert parent_map(t) == {1: 0, 2: 1}
    assert [t.children[i] for i in (0, 1, 2)] == [[1], [2], []]


def reference_prune(ref, alive):
    """The earlier between-round repair: a level at a time from the base
    station, each alive node attached under its first alive ancestor."""
    old_parent = ref.parent_map()

    def resolve(p):
        while p != 0 and not alive[p]:
            p = old_parent[p]
        return p

    rebuilt, level = DictRoutingTree(), ref.first_level()
    while level:
        rebuilt.attach_all([(i, resolve(old_parent[i])) for i in level if alive[i]])
        level = [c for p in level for c in ref.children_of(p)]
    return rebuilt


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pruned_equals_level_by_level_repair(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    t, ref, placed = RoutingTree(n), DictRoutingTree(), [0]
    for node in data.draw(st.permutations(range(1, n + 1))):  # ids in any order
        parent = data.draw(st.sampled_from(placed))
        t.attach(node, parent)
        ref.attach(node, parent)
        placed.append(node)
    alive = [False, *data.draw(st.lists(st.booleans(), min_size=n, max_size=n))]
    got, want = t.pruned(alive), reference_prune(ref, alive)
    assert parent_map(got) == want.parent_map()
    assert [got.children[i] for i in range(n + 1)] == [want.children_of(i) for i in range(n + 1)]
    assert parent_map(t) == ref.parent_map()  # the map pruned is left as it was


def test_pruned_keeps_a_floating_subtree_floating():
    t = chain_tree((1, 0), (2, 1), (3, 2), (4, 3), (5, 0))
    t.detach_subtree_root(2)  # 3 floats with 4 below it
    def alive(*ids):
        return [i in ids for i in range(N + 1)]

    assert parent_map(t.pruned(alive(1, 2, 3, 4))) == {1: 0, 4: 3}
    assert parent_map(t.pruned(alive(1, 2, 4, 5))) == {1: 0, 5: 0}
