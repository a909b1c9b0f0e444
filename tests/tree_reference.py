"""Test-side view of the routing map, and the dict-based map it replaced.

``RoutingTree`` keeps only what the simulator uses: per-id ``parent`` and
``children`` lists plus the mutators. The queries that only tests ask
(parent map, level, attached nodes, invariant check) live here as plain
functions over those lists. ``DictRoutingTree`` is the earlier dict-backed
implementation, kept verbatim as the reference that the list-backed map is
checked against.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

BS_ID = 0


def parent_map(tree) -> dict[int, int]:
    """Every child -> parent edge of a map, floating subtrees included."""
    return {i: p for i, p in enumerate(tree.parent) if p is not None}


def attached(tree, node: int) -> bool:
    """True for the base station and for every node with a parent."""
    return node == BS_ID or tree.parent[node] is not None


def nodes(tree) -> list[int]:
    """Every attached non-root node, ascending."""
    return sorted(parent_map(tree))


def level(tree, node: int) -> int:
    """Depth of ``node``; the base station is level 0."""
    return len(tree.path_to_root(node)) - 1


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
    along when they are re-attached.
    """

    __slots__ = ("_parent", "_children")

    def __init__(self):
        self._parent: dict[int, int] = {}
        self._children: dict[int, list[int]] = {BS_ID: []}

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
