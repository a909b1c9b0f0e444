"""Test-side view of the routing map, and the edge-by-edge map it is checked against.

``RoutingTree`` keeps only what the simulator uses: per-id ``parent`` and
``children`` lists, built from a parent list. The queries that only tests
ask (parent map, path, level, attached nodes, invariant check) live here as
plain functions over those lists, with ``tree_of``, which builds a
hand-made map from its edges. ``DictRoutingTree`` is the earlier
dict-backed map, the one that links edge by edge with every check; tests
replay the setups' edges through it and compare the lists.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from least_sim import RoutingTree

BS_ID = 0


def tree_of(n: int, edges) -> RoutingTree:
    """The map over ids 0..n with each ``(child, parent)`` edge, unchecked;
    a node no edge names stays detached, and a subtree under it floats."""
    parent = [None] * (n + 1)
    for child, p in edges:
        parent[child] = p
    return RoutingTree(parent)


def parent_map(tree) -> dict[int, int]:
    """Every child -> parent edge of a map, floating subtrees included."""
    return {i: p for i, p in enumerate(tree.parent) if p is not None}


def attached(tree, node: int) -> bool:
    """True for the base station and for every node with a parent."""
    return node == BS_ID or tree.parent[node] is not None


def nodes(tree) -> list[int]:
    """Every attached non-root node, ascending."""
    return sorted(parent_map(tree))


def path_to_root(tree, node: int) -> list[int]:
    """Node ids from ``node`` up to and including the base station, read
    off the parent list as the steady phase walks it."""
    parent, path = tree.parent, [node]
    if not 0 <= node <= tree.n:
        raise ValueError(f"node id {node} is outside 0..{tree.n}")
    while path[-1] != BS_ID:
        nxt = parent[path[-1]]
        if nxt is None:
            raise ValueError(f"node {node} is not attached to the base station")
        path.append(nxt)
        if len(path) > len(parent):
            raise RuntimeError(f"parent cycle reached from node {node}")
    return path


def level(tree, node: int) -> int:
    """Depth of ``node``; the base station is level 0."""
    return len(path_to_root(tree, node)) - 1


def validate(tree, alive_ids) -> Violation | None:
    """``DictRoutingTree.validate`` over a copy of a list-backed map."""
    view = DictRoutingTree()
    view._parent = parent_map(tree)
    view._children = {i: list(kids) for i, kids in enumerate(tree.children)}
    return view.validate(alive_ids)


@dataclass(frozen=True)
class Violation:
    """First invariant a tree check found broken; violations are data, not errors."""

    invariant: str  # "consistency" | "acyclic" | "coverage"
    node: int | None
    detail: str


class DictRoutingTree:
    """Rooted parent/children structure with the base station (id 0) as root.

    Children are kept in ascending id order so iteration is deterministic.
    A node is *attached* when it has a parent entry (the BS always counts as
    attached); detached nodes may still own a floating subtree, which rides
    along when they are re-attached. Given ``n``, every id outside 0..n is
    rejected too.
    """

    __slots__ = ("_parent", "_children", "n")

    def __init__(self, n: int | None = None):
        self.n = n
        self._parent: dict[int, int] = {}
        self._children: dict[int, list[int]] = {BS_ID: []}

    def _check_id(self, *ids) -> None:
        for node in ids:
            if self.n is not None and not 0 <= node <= self.n:
                raise ValueError(f"node id {node} is outside 0..{self.n}")

    def __contains__(self, node: int) -> bool:
        return node == BS_ID or node in self._parent

    def parent_of(self, node: int) -> int | None:
        return self._parent.get(node)

    def children_of(self, node: int) -> list[int]:
        return list(self._children.get(node, ()))

    def parent_map(self) -> dict[int, int]:
        """Snapshot of every child -> parent edge."""
        return dict(self._parent)

    def attach(self, child: int, parent: int) -> None:
        """Attach a detached node (plus any floating subtree) under ``parent``."""
        self.attach_all(((child, parent),))

    def attach_all(self, edges) -> None:
        """Attach each ``(child, parent)`` edge in turn, with every check of
        ``attach``; an error leaves the edges before it in place."""
        parents, children = self._parent, self._children
        for child, parent in edges:
            self._check_id(child, parent)
            if child == parent:
                raise ValueError(f"node {child} cannot be its own parent")
            if child == BS_ID:
                raise ValueError("the base station cannot be attached")
            if child in parents:
                raise ValueError(f"node {child} is already attached")
            if parent != BS_ID:
                if parent not in parents:
                    raise ValueError(f"unknown parent: {parent}")
                if children.get(child):  # only a node with children has descendants
                    # Attaching under one's own descendant would close a cycle.
                    cur = parent
                    while cur != BS_ID:
                        if cur == child:
                            raise ValueError(f"attaching {child} under {parent} creates a cycle")
                        cur = parents.get(cur)
                        if cur is None:
                            break  # parent sits in a floating subtree; its root is not `child`
            parents[child] = parent
            kids = children[parent]
            if kids and child < kids[-1]:
                insort(kids, child)
            else:
                kids.append(child)
            if child not in children:
                children[child] = []

    def detach_subtree_root(self, node: int) -> list[int]:
        """Detach ``node`` and orphan its children, returned in ascending order.

        The orphans keep their own subtrees; only the edges touching ``node``
        are cut.
        """
        self._check_id(node)
        if node == BS_ID:
            raise ValueError("the base station cannot be detached")
        if node not in self._parent:
            raise ValueError(f"node {node} is not attached")
        parent = self._parent.pop(node)
        self._children[parent].remove(node)
        orphans = self._children.get(node, [])
        self._children[node] = []
        for orphan in orphans:
            del self._parent[orphan]
        return orphans

    def first_level(self) -> list[int]:
        """Children of the base station, ascending."""
        return list(self._children[BS_ID])

    def path_to_root(self, node: int) -> list[int]:
        """Node ids from ``node`` up to and including the base station."""
        self._check_id(node)
        if node not in self:
            raise ValueError(f"unknown node: {node}")
        path = [node]
        limit = len(self._parent) + 1
        while path[-1] != BS_ID:
            path.append(self._parent[path[-1]])
            if len(path) > limit:
                raise RuntimeError(f"parent cycle reached from node {node}")
        return path

    def level(self, node: int) -> int:
        """Depth of ``node``; the base station is level 0."""
        return len(self.path_to_root(node)) - 1

    def max_depth(self) -> int:
        """Deepest level present in the tree."""
        children = self._children
        depth, level = 0, children[BS_ID]
        while level:  # one list per level; floating subtrees are never reached
            depth += 1
            level = [c for p in level for c in children[p]]
        return depth

    def nodes(self) -> list[int]:
        """Every attached non-root node, ascending."""
        return sorted(self._parent)

    def validate(self, alive_ids) -> Violation | None:
        """Check the structural invariants; None means the tree is sound."""
        for child in sorted(self._parent):
            parent = self._parent[child]
            if parent != BS_ID and parent not in self._parent:
                return Violation("consistency", child, f"parent {parent} is not attached")
            if child not in self._children.get(parent, ()):
                return Violation("consistency", child, "missing from its parent's child list")
        for parent in sorted(self._children):
            for child in self._children[parent]:
                if self._parent.get(child) != parent:
                    return Violation("consistency", child, f"child list of {parent} disagrees with parent map")
        limit = len(self._parent) + 1
        for start in sorted(self._parent):
            cur, steps = start, 0
            while cur != BS_ID:
                cur = self._parent.get(cur)
                steps += 1
                if cur is None:
                    return Violation("acyclic", start, "parent chain never reaches the base station")
                if steps > limit:
                    return Violation("acyclic", start, "parent cycle")
        for node in sorted(alive_ids):
            if node not in self._parent:
                return Violation("coverage", node, "alive node missing from the map")
        return None
