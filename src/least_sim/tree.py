"""The network map: a rooted tree over node ids with the base station as root."""

from __future__ import annotations

from .core import BS_ID


class RoutingTree:
    """Rooted map over ids 0..n with the base station (id 0) as root.

    Built from a parent list, which it keeps (not a copy): ``parent[i]`` is
    None while i is detached (and for the BS). ``children[i]`` is derived
    from it: an ascending list, or for a leaf the one shared ``()``. Callers
    read both in place and write no child entry. A detached node may still
    own a floating subtree.
    Nothing checks the edges: the setups write only edges that hold by
    construction.
    """

    __slots__ = ("n", "parent", "children")

    def __init__(self, parent: list):
        self.n, self.parent = len(parent) - 1, parent
        self.derive_children()

    def derive_children(self) -> None:
        """Rebuild every child entry from ``parent`` in one ascending pass over
        ids; a leaf keeps the shared ``()``. No id, edge or cycle check."""
        children = [()] * len(self.parent)
        for i, p in enumerate(self.parent):
            if p is not None:
                if children[p]:
                    children[p].append(i)
                else:
                    children[p] = [i]
        self.children = children

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
        return RoutingTree(kept)

    def first_level(self) -> list[int]:
        """Children of the base station, ascending (a copy)."""
        return list(self.children[BS_ID])

    def max_depth(self) -> int:
        """Deepest level present in the tree."""
        children = self.children
        depth, level = 0, children[BS_ID]
        while level:  # floating subtrees are never reached
            depth += 1
            below = []  # fresh: extending a list the map owns would change the map
            for p in level:
                below += children[p]
            level = below
        return depth
