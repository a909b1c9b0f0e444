"""Routing-tree structure, queries, and invariant checking."""

import pytest
from hypothesis import given, settings, strategies as st

from least_sim import RoutingTree


def chain_tree(*edges):
    t = RoutingTree()
    for child, parent in edges:
        t.attach(child, parent)
    return t


def test_attach_levels():
    t = chain_tree((5, 0), (6, 5))
    assert t.level(5) == 1
    assert t.level(6) == 2
    assert t.parent_of(6) == 5


def test_attach_rejects_self_loop():
    t = RoutingTree()
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
    assert 2 not in t


def test_detach_returns_orphans_ascending():
    t = chain_tree((1, 0), (4, 1), (2, 1), (9, 1))
    orphans = t.detach_subtree_root(1)
    assert orphans == [2, 4, 9]
    assert all(t.parent_of(o) is None for o in orphans)


def test_detach_bs_forbidden():
    with pytest.raises(ValueError):
        RoutingTree().detach_subtree_root(0)


def test_detach_then_reattach_round_trip():
    t = chain_tree((1, 0), (2, 0), (3, 1), (4, 3))
    orphans = t.detach_subtree_root(1)
    for o in orphans:
        t.attach(o, 2)
    t.attach(1, 2)
    assert t.validate([1, 2, 3, 4]) is None
    assert t.level(4) == 3  # 4 under 3 under 2


def test_first_level():
    t = chain_tree((3, 0), (7, 0), (5, 3))
    assert t.first_level() == [3, 7]
    assert RoutingTree().first_level() == []


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
        assert t.level(node) == len(t.path_to_root(node)) - 1


def test_max_depth():
    assert RoutingTree().max_depth() == 0
    assert chain_tree((1, 0)).max_depth() == 1
    assert chain_tree((1, 0), (2, 1), (3, 2)).max_depth() == 3


def test_validate_ok_and_coverage():
    t = chain_tree((1, 0), (2, 1))
    assert t.validate([1, 2]) is None
    v = t.validate([1, 2, 3])
    assert v is not None and v.invariant == "coverage" and v.node == 3


def test_validate_planted_cycle():
    t = chain_tree((1, 0), (2, 1), (3, 2))
    # plant a 2-cycle by brute force
    t._parent[2] = 3
    t._children[1].remove(2)
    t._children[3] = [2]
    v = t.validate([1, 2, 3])
    assert v is not None and v.invariant == "acyclic"


def test_validate_inconsistent_child_list():
    t = chain_tree((1, 0), (2, 1))
    t._children[0].append(2)
    v = t.validate([1, 2])
    assert v is not None and v.invariant == "consistency"


def test_serialization_lines():
    t = chain_tree((3, 0), (1, 0), (2, 3))
    assert t.to_lines() == "1 0\n2 3\n3 0"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_build_detach_reattach_stays_valid(data):
    """Any build-up plus subtree moves keeps every invariant intact."""
    n = data.draw(st.integers(min_value=1, max_value=12))
    t = RoutingTree()
    for node in range(1, n + 1):
        parent = data.draw(st.integers(min_value=0, max_value=node - 1))
        t.attach(node, parent)
    assert t.validate(range(1, n + 1)) is None

    def subtree_of(root):
        seen, frontier = {root}, [root]
        while frontier:
            for child in t.children_of(frontier.pop()):
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
            spots = [i for i in range(n + 1) if i in t and i not in banned]
            t.attach(orphan, data.draw(st.sampled_from(spots)))
        spots = [i for i in range(n + 1) if i in t and i != victim]
        t.attach(victim, data.draw(st.sampled_from(spots)))
        assert t.validate(range(1, n + 1)) is None
        for node in range(1, n + 1):
            assert t.level(node) == len(t.path_to_root(node)) - 1
