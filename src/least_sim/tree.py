"""The network map: a rooted tree over node ids with the base station as root."""

from __future__ import annotations

from bisect import insort

from .core import BS_ID


class RoutingTree:
    """Rooted map over ids 0..n with the base station (id 0) as root.

    Per-id lists that callers read in place: ``parent[i]`` is None while i
    is detached (and for the BS), and ``children[i]`` is ascending, so
    iteration is deterministic. A detached node may still own a floating
    subtree, which rides along when it is re-attached. The setups write a
    parent list and derive the child lists from it, unchecked; the checked
    edge-by-edge methods serve tests and hand-built maps.
    """

    __slots__ = ("n", "parent", "children")

    def __init__(self, n: int):
        self.n = n
        self.parent: list[int | None] = [None] * (n + 1)
        self.children: list[list[int]] = [[] for _ in range(n + 1)]

    @classmethod
    def from_parents(cls, parent: list) -> RoutingTree:
        """The map over ``parent`` (kept, not copied); see ``derive_children``."""
        tree = cls.__new__(cls)
        tree.n, tree.parent = len(parent) - 1, parent
        tree.derive_children()
        return tree

    def derive_children(self) -> None:
        """Rebuild every child list from ``parent`` in one pass over ids, so
        each is ascending. No id, edge or cycle check."""
        children = [[] for _ in self.parent]
        for i, p in enumerate(self.parent):
            if p is not None:
                children[p].append(i)
        self.children = children

    def _check_id(self, node: int) -> None:
        if not 0 <= node <= self.n:
            raise ValueError(f"node id {node} is outside 0..{self.n}")

    def attach(self, child: int, parent: int) -> None:
        """Attach a detached node (plus any floating subtree) under ``parent``."""
        self.attach_all(((child, parent),))

    def attach_all(self, edges) -> None:
        """Attach each ``(child, parent)`` edge in turn, with every check of
        ``attach``; an error leaves the edges before it in place."""
        parents, children, n = self.parent, self.children, self.n
        for child, parent in edges:
            if not (0 <= child <= n and 0 <= parent <= n):
                self._check_id(child)
                self._check_id(parent)
            if child == parent:
                raise ValueError(f"node {child} cannot be its own parent")
            if child == BS_ID:
                raise ValueError("the base station cannot be attached")
            if parents[child] is not None:
                raise ValueError(f"node {child} is already attached")
            if parent != BS_ID:
                if parents[parent] is None:
                    raise ValueError(f"unknown parent: {parent}")
                if children[child]:  # only a node with children has descendants
                    # Attaching under one's own descendant would close a cycle.
                    cur = parent
                    while cur != BS_ID:
                        if cur == child:
                            raise ValueError(f"attaching {child} under {parent} creates a cycle")
                        cur = parents[cur]
                        if cur is None:
                            break  # parent sits in a floating subtree; its root is not `child`
            parents[child] = parent
            kids = children[parent]
            if kids and child < kids[-1]:
                insort(kids, child)
            else:
                kids.append(child)

    def detach_subtree_root(self, node: int) -> list[int]:
        """Detach ``node`` and orphan its children, returned in ascending
        order; the orphans keep their own subtrees."""
        self._check_id(node)
        if node == BS_ID:
            raise ValueError("the base station cannot be detached")
        parent = self.parent[node]
        if parent is None:
            raise ValueError(f"node {node} is not attached")
        self.parent[node] = None
        self.children[parent].remove(node)
        orphans, self.children[node] = self.children[node], []
        for orphan in orphans:
            self.parent[orphan] = None
        return orphans

    def pruned(self, alive) -> RoutingTree:
        """A new map without the nodes whose ``alive[i]`` is false, each kept
        node under its first kept ancestor; a floating subtree stays
        floating."""
        parent, kept = self.parent, [None] * (self.n + 1)
        for i in range(1, self.n + 1):
            p = parent[i] if alive[i] else None
            while p is not None and p != BS_ID and not alive[p]:
                p = parent[p]
            kept[i] = p
        return RoutingTree.from_parents(kept)

    def first_level(self) -> list[int]:
        """Children of the base station, ascending (a copy)."""
        return list(self.children[BS_ID])

    def path_to_root(self, node: int) -> list[int]:
        """Node ids from ``node`` up to and including the base station."""
        self._check_id(node)
        parent, path = self.parent, [node]
        if node != BS_ID and parent[node] is None:
            raise ValueError(f"unknown node: {node}")
        while path[-1] != BS_ID:
            nxt = parent[path[-1]]
            if nxt is None:
                raise ValueError(f"node {node} hangs in a floating subtree")
            path.append(nxt)
            if len(path) > self.n + 1:
                raise RuntimeError(f"parent cycle reached from node {node}")
        return path

    def max_depth(self) -> int:
        """Deepest level present in the tree."""
        children = self.children
        depth, level = 0, children[BS_ID]
        while level:  # one list per level; floating subtrees are never reached
            depth += 1
            level = [c for p in level for c in children[p]]
        return depth
