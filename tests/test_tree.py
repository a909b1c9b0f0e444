"""Routing-map structure and queries, and the rules of the edge-by-edge
reference map that the setups' lists are checked against."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from conftest import to_lines
from tree_reference import (
    DictRoutingTree,
    level,
    nodes,
    parent_map,
    path_to_root,
    tree_of,
    validate,
)

N = 12  # ids 0..N fit every fixture below


def chain_ref(*edges):
    """The dict-backed reference over ids 0..N with ``edges`` attached in turn."""
    ref = DictRoutingTree(N)
    ref.attach_all(edges)
    return ref


def list_map(ref, n=N):
    """The list-backed map over the reference's parent list."""
    return tree_of(n, ref.parent_map().items())


def test_attach_levels():
    t = tree_of(N, [(5, 0), (6, 5)])
    assert level(t, 5) == 1
    assert level(t, 6) == 2
    assert t.parent[6] == 5


def test_attach_rejects_self_loop():
    ref = DictRoutingTree(N)
    with pytest.raises(ValueError):
        ref.attach(5, 5)


def test_attach_rejects_unknown_parent_and_duplicates():
    ref = chain_ref((1, 0))
    with pytest.raises(ValueError):
        ref.attach(2, 9)
    with pytest.raises(ValueError):
        ref.attach(1, 0)
    with pytest.raises(ValueError):
        ref.attach(1, 0)  # still attached


def test_attach_rejects_cycle_through_floating_subtree():
    ref = chain_ref((1, 0), (2, 1), (3, 2))
    ref.detach_subtree_root(1)  # 2 floats with child 3
    with pytest.raises(ValueError):
        ref.attach(2, 3)


def test_detach_leaf_returns_no_orphans():
    ref = chain_ref((1, 0), (2, 1))
    assert ref.detach_subtree_root(2) == []
    assert 2 not in ref


def test_detach_returns_orphans_ascending():
    ref = chain_ref((1, 0), (4, 1), (2, 1), (9, 1))
    orphans = ref.detach_subtree_root(1)
    assert orphans == [2, 4, 9]
    assert all(ref.parent_of(o) is None for o in orphans)


def test_detach_bs_forbidden():
    with pytest.raises(ValueError):
        DictRoutingTree(N).detach_subtree_root(0)


def test_detach_then_reattach_round_trip():
    ref = chain_ref((1, 0), (2, 0), (3, 1), (4, 3))
    orphans = ref.detach_subtree_root(1)
    for o in orphans:
        ref.attach(o, 2)
    ref.attach(1, 2)
    assert ref.validate([1, 2, 3, 4]) is None
    assert level(list_map(ref), 4) == ref.level(4) == 3  # 4 under 3 under 2


def test_first_level():
    t = tree_of(N, [(3, 0), (7, 0), (5, 3)])
    assert t.first_level() == [3, 7]
    assert tree_of(N, []).first_level() == []


def test_path_to_root():
    t = tree_of(N, [(3, 0), (5, 3), (8, 5), (9, 4), (10, 11), (11, 10)])
    assert path_to_root(t, 0) == [0]
    assert path_to_root(t, 3) == [3, 0]
    assert path_to_root(t, 8) == [8, 5, 3, 0]
    with pytest.raises(ValueError, match=rf"outside 0\.\.{N}"):
        path_to_root(t, 99)
    with pytest.raises(ValueError, match="not attached"):
        path_to_root(t, 9)  # under the detached 4
    with pytest.raises(RuntimeError, match="parent cycle"):
        path_to_root(t, 10)


def test_level_equals_path_length_minus_one():
    ref = chain_ref((1, 0), (2, 1), (3, 2), (4, 0), (5, 4))
    t = list_map(ref)
    for node in (0, 1, 2, 3, 4, 5):
        assert level(t, node) == ref.level(node) == len(path_to_root(t, node)) - 1


def test_max_depth():
    assert tree_of(N, []).max_depth() == 0
    assert tree_of(N, [(1, 0)]).max_depth() == 1
    assert tree_of(N, [(1, 0), (2, 1), (3, 2)]).max_depth() == 3


def test_max_depth_ignores_floating_subtree():
    assert tree_of(N, [(1, 0), (2, 1), (3, 2), (4, 3), (5, 0)]).max_depth() == 4
    cut = [(1, 0), (4, 3), (5, 0)]  # 2 and 3 detached: 3 and 4 float below no one
    assert tree_of(N, cut).max_depth() == 1
    assert tree_of(N, [*cut, (2, 5)]).max_depth() == 2
    assert tree_of(N, [*cut, (2, 5), (3, 1)]).max_depth() == 3  # the floating pair rides along


def test_max_depth_leaves_every_child_list_unchanged():
    t = tree_of(N, [(1, 0), (2, 0), (3, 1), (4, 1), (5, 3), (7, 6), (8, 7)])  # 7, 8 float
    before = copy.deepcopy(t.children)
    assert t.max_depth() == 3
    assert t.children == before


def test_validate_ok_and_coverage():
    t = tree_of(N, [(1, 0), (2, 1)])
    assert validate(t, [1, 2]) is None
    v = validate(t, [1, 2, 3])
    assert v is not None and v.invariant == "coverage" and v.node == 3


def test_validate_planted_cycle():
    t = tree_of(N, [(1, 0), (2, 1), (3, 2)])
    # plant a 2-cycle by brute force
    t.parent[2] = 3
    t.children[1].remove(2)
    t.children[3] = [2]
    v = validate(t, [1, 2, 3])
    assert v is not None and v.invariant == "acyclic"


def test_validate_inconsistent_child_list():
    t = tree_of(N, [(1, 0), (2, 1)])
    t.children[0].append(2)
    v = validate(t, [1, 2])
    assert v is not None and v.invariant == "consistency"


def test_serialization_lines():
    t = tree_of(N, [(3, 0), (1, 0), (2, 3)])
    assert to_lines(t) == "1 0\n2 3\n3 0"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_build_detach_reattach_stays_valid(data):
    """Any build-up plus subtree moves through the reference gives a parent
    list whose map keeps every invariant, with the reference's child lists."""
    n = data.draw(st.integers(min_value=1, max_value=12))
    ref = DictRoutingTree(n)
    for node in range(1, n + 1):
        ref.attach(node, data.draw(st.integers(min_value=0, max_value=node - 1)))

    def assert_sound():
        t = list_map(ref, n)
        assert validate(t, range(1, n + 1)) is None
        # depth and child order, recomputed from parent walks and sorting
        assert t.max_depth() == max((level(t, v) for v in nodes(t)), default=0)
        for p in [0, *nodes(t)]:
            assert t.children[p] == sorted(t.children[p]) == ref.children_of(p)
        for node in range(1, n + 1):
            assert level(t, node) == ref.level(node)

    assert_sound()

    def subtree_of(root):
        seen, frontier = {root}, [root]
        while frontier:
            for child in ref.children_of(frontier.pop()):
                seen.add(child)
                frontier.append(child)
        return seen

    moves = data.draw(st.integers(min_value=0, max_value=4))
    for _ in range(moves):
        victim = data.draw(st.integers(min_value=1, max_value=n))
        orphans = ref.detach_subtree_root(victim)
        # re-home orphans anywhere outside their own floating subtree
        for orphan in orphans:
            banned = subtree_of(orphan)
            spots = [i for i in range(n + 1) if i in ref and i not in banned]
            ref.attach(orphan, data.draw(st.sampled_from(spots)))
        spots = [i for i in range(n + 1) if i in ref and i != victim]
        ref.attach(victim, data.draw(st.sampled_from(spots)))
        assert_sound()


# -- the reference's batched attach ---------------------------------------------

def floating_fixture():
    """5 under the base station; 1 detached, and 2 floating with 3 below it."""
    ref = chain_ref((1, 0), (2, 1), (3, 2), (5, 0))
    assert ref.detach_subtree_root(1) == [2]
    return ref


@pytest.mark.parametrize("edge", [(5, 5), (0, 5), (5, 0), (4, 9), (4, 2), (2, 3)])
def test_attach_all_raises_what_attach_raises(edge):
    """Self loop, the base station, a duplicate, an unknown parent, a
    floating parent and a cycle: each is refused, and leaves the map as it was."""
    one, batch = floating_fixture(), floating_fixture()
    with pytest.raises(ValueError) as by_one:
        one.attach(*edge)
    with pytest.raises(ValueError) as by_batch:
        batch.attach_all([edge])
    assert str(by_batch.value) == str(by_one.value)
    assert batch.parent_map() == one.parent_map() == floating_fixture().parent_map()


def test_attach_all_cycle_through_an_edge_of_the_same_batch():
    ref = floating_fixture()
    # 4 joins 2's floating subtree, then 2 is hung below 4
    with pytest.raises(ValueError, match="attaching 2 under 4 creates a cycle"):
        ref.attach_all([(4, 3), (2, 4)])
    assert ref.parent_of(4) == 3  # edges before the failing one stay in place
    assert ref.parent_of(2) is None
    ref.attach_all([(2, 5), (1, 4)])
    assert ref.path_to_root(1) == [1, 4, 3, 2, 5, 0]


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
    t, ref = DictRoutingTree(n), {}
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
        assert t.parent_map() == ref
        for p in [0, *ref]:
            assert t.children_of(p) == sorted(c for c, q in ref.items() if q == p)


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
        got, want = outcome(path_to_root, t, i), outcome(ref.path_to_root, i)
        if isinstance(want, list):
            assert got == want
        else:  # the reference raises on a detached node and walks off a floating root
            assert got == (ValueError, f"node {i} is not attached to the base station")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_list_map_equals_dict_reference(data):
    """Random builds, detaches and re-attaches through the dict reference,
    errors included: the map over its parent list has the same child
    orders, queries and paths."""
    n = data.draw(st.integers(min_value=1, max_value=10))
    node = st.integers(min_value=0, max_value=n)
    ref = DictRoutingTree(n)
    for _ in range(data.draw(st.integers(min_value=1, max_value=15))):
        if data.draw(st.booleans()):
            outcome(ref.attach_all, data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=6)))
        else:
            victim = data.draw(node)
            orphans = outcome(ref.detach_subtree_root, victim)
            if isinstance(orphans, list):  # re-home each orphan, then the victim
                for child in [*orphans, victim]:
                    outcome(ref.attach, child, data.draw(node))
        assert_same_map(list_map(ref, n), ref, n)


@pytest.mark.parametrize("call, args", [
    ("attach", (N + 1, 0)), ("attach", (1, N + 1)), ("attach", (-1, 0)), ("attach", (1, -1)),
    ("detach_subtree_root", (N + 1,)), ("detach_subtree_root", (-1,)),
    ("path_to_root", (N + 1,)), ("path_to_root", (-1,)),
])
def test_ids_outside_the_map_are_rejected(call, args):
    ref = chain_ref((1, 0), (2, 1))
    with pytest.raises(ValueError, match=rf"outside 0\.\.{N}"):
        getattr(ref, call)(*args)
    assert ref.parent_map() == {1: 0, 2: 1}
    assert [ref.children_of(i) for i in (0, 1, 2)] == [[1], [2], []]


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
    ref, placed = DictRoutingTree(n), [0]
    for node in data.draw(st.permutations(range(1, n + 1))):  # ids in any order
        ref.attach(node, data.draw(st.sampled_from(placed)))
        placed.append(node)
    t = list_map(ref, n)
    alive = [False, *data.draw(st.lists(st.booleans(), min_size=n, max_size=n))]
    got, want = t.pruned(alive), reference_prune(ref, alive)
    assert parent_map(got) == want.parent_map()
    assert [got.children[i] for i in range(n + 1)] == [want.children_of(i) for i in range(n + 1)]
    assert parent_map(t) == ref.parent_map()  # the map pruned is left as it was


def test_pruned_keeps_a_floating_subtree_floating():
    t = tree_of(N, [(1, 0), (4, 3), (5, 0)])  # 2 and 3 detached: 3 floats with 4 below it

    def alive(*ids):
        return [i in ids for i in range(N + 1)]

    assert parent_map(t.pruned(alive(1, 2, 3, 4))) == {1: 0, 4: 3}
    assert parent_map(t.pruned(alive(1, 2, 4, 5))) == {1: 0, 5: 0}
