"""Hopcroft--Karp maximum bipartite matching, from scratch.

Used by :mod:`repro.pathcover.lower_bound` to compute minimum path covers
of the intra-iteration DAG via König's theorem: a DAG with ``n`` nodes
can be covered by ``n - |maximum matching|`` node-disjoint paths, where
the matching is taken in the bipartite graph that has one "source" copy
and one "target" copy of every node and an edge per DAG arc.

The implementation is the standard O(E * sqrt(V)) alternating-BFS/DFS
algorithm, written iteratively so deep graphs cannot overflow Python's
recursion limit.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Sequence

_UNREACHED = -1


class HopcroftKarp:
    """Maximum matching in a bipartite graph.

    Parameters
    ----------
    n_left, n_right:
        Sizes of the two node sets (nodes are ``0 .. n-1`` on each side).
    adjacency:
        For each left node, the right nodes it may be matched to; either
        a mapping ``left -> iterable of right`` or a sequence indexed by
        the left node.
    """

    def __init__(self, n_left: int, n_right: int,
                 adjacency: Mapping[int, Sequence[int]] | Sequence[Sequence[int]]):
        if n_left < 0 or n_right < 0:
            raise ValueError("node counts must be >= 0")
        self._n_left = n_left
        self._n_right = n_right
        if isinstance(adjacency, Mapping):
            rows = [adjacency.get(left, ()) for left in range(n_left)]
        else:
            rows = [adjacency[left] if left < len(adjacency) else ()
                    for left in range(n_left)]
        self._adjacency: list[tuple[int, ...]] = []
        for row in rows:
            neighbors = tuple(row)
            for right in neighbors:
                if not 0 <= right < n_right:
                    raise ValueError(
                        f"right node {right} out of range 0..{n_right - 1}")
            self._adjacency.append(neighbors)
        #: match_left[u] = matched right node or -1; similarly match_right.
        self.match_left = [-1] * n_left
        self.match_right = [-1] * n_right
        self._distance: list[int] = []
        self._solved = False

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def solve(self) -> int:
        """Compute and return the maximum matching size."""
        if self._solved:
            return self.size
        matching = 0
        while self._bfs_layers():
            for left in range(self._n_left):
                if self.match_left[left] == -1 and self._dfs_augment(left):
                    matching += 1
        self._solved = True
        return matching

    @property
    def size(self) -> int:
        """Number of matched pairs."""
        return sum(1 for right in self.match_left if right != -1)

    def pairs(self) -> list[tuple[int, int]]:
        """Matched ``(left, right)`` pairs (solving first if needed)."""
        self.solve()
        return [(left, right) for left, right in enumerate(self.match_left)
                if right != -1]

    # ------------------------------------------------------------------
    # Hopcroft--Karp phases
    # ------------------------------------------------------------------
    def _bfs_layers(self) -> bool:
        """Layer left nodes from the free ones; True iff an augmenting
        path can exist this phase."""
        self._distance = [_UNREACHED] * self._n_left
        queue: deque[int] = deque()
        for left in range(self._n_left):
            if self.match_left[left] == -1:
                self._distance[left] = 0
                queue.append(left)
        found_free_right = False
        while queue:
            left = queue.popleft()
            for right in self._adjacency[left]:
                partner = self.match_right[right]
                if partner == -1:
                    found_free_right = True
                elif self._distance[partner] == _UNREACHED:
                    self._distance[partner] = self._distance[left] + 1
                    queue.append(partner)
        return found_free_right

    def _dfs_augment(self, root: int) -> bool:
        """Find and apply one augmenting path from ``root`` along the BFS
        layers.  Iterative DFS; each frame records the matched edge that
        led into it so the path can be flipped on success."""
        no_edge = (-1, -1)
        # Frame: (left node, next adjacency index, incoming (left, right)).
        stack: list[tuple[int, int, tuple[int, int]]] = [(root, 0, no_edge)]
        while stack:
            left, edge_index, incoming = stack[-1]
            if edge_index >= len(self._adjacency[left]):
                # Dead end: exclude from the rest of this phase.
                self._distance[left] = _UNREACHED
                stack.pop()
                continue
            stack[-1] = (left, edge_index + 1, incoming)
            right = self._adjacency[left][edge_index]
            partner = self.match_right[right]
            if partner == -1:
                # Free right endpoint: flip every incoming edge on the
                # stack, then add the final edge.  Each left/right node
                # occurs in exactly one of these pairs, so assignment
                # order does not matter.
                for _node, _index, (u, v) in stack[1:]:
                    self.match_left[u] = v
                    self.match_right[v] = u
                self.match_left[left] = right
                self.match_right[right] = left
                return True
            if self._distance[partner] == self._distance[left] + 1:
                stack.append((partner, 0, (left, right)))
        return False
