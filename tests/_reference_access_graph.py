"""Reference access graph: the edge-set construction the bitmask
:class:`~repro.graph.access_graph.AccessGraph` replaced.

Edges are enumerated per (array, coefficient[, variable]) group by an
offset sort and two bisects per node, and stored as frozensets of
``(source, target)`` tuples plus sorted neighbour tuples.  Kept only as
the differential oracle for ``tests/test_access_graph_differential.py``;
nothing under ``src/`` uses it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.ir.types import AccessPattern


class ReferenceAccessGraph:
    """The frozenset/bisect access graph, with the views the bitmask
    graph derives lazily."""

    def __init__(self, pattern: AccessPattern, modify_range: int):
        n = len(pattern)
        self.n_nodes = n
        intra_groups: dict[tuple, list[int]] = {}
        inter_groups: dict[tuple[str, int], list[int]] = {}
        offsets = [0] * n
        for position, access in enumerate(pattern):
            offsets[position] = access.offset
            coefficient = access.coefficient
            variable = access.index.var if coefficient != 0 else None
            intra_groups.setdefault(
                (access.array, coefficient, variable), []).append(position)
            inter_groups.setdefault(
                (access.array, coefficient), []).append(position)

        successors: list[list[int]] = [[] for _ in range(n)]
        predecessors: list[list[int]] = [[] for _ in range(n)]
        for positions in intra_groups.values():
            by_offset = sorted((offsets[p], p) for p in positions)
            sorted_offsets = [offset for offset, _ in by_offset]
            for offset, p in by_offset:
                low = bisect_left(sorted_offsets, offset - modify_range)
                high = bisect_right(sorted_offsets, offset + modify_range)
                for index in range(low, high):
                    q = by_offset[index][1]
                    if q > p:
                        successors[p].append(q)
                        predecessors[q].append(p)

        inter: set[tuple[int, int]] = set()
        for (_array, coefficient), positions in inter_groups.items():
            by_offset = sorted((offsets[p], p) for p in positions)
            sorted_offsets = [offset for offset, _ in by_offset]
            home = coefficient * pattern.step
            for offset, q in by_offset:
                low = bisect_left(sorted_offsets,
                                  offset - home - modify_range)
                high = bisect_right(sorted_offsets,
                                    offset - home + modify_range)
                for index in range(low, high):
                    inter.add((q, by_offset[index][1]))

        intra: list[tuple[int, int]] = []
        for p in range(n):
            successors[p].sort()
            predecessors[p].sort()
            intra.extend((p, q) for q in successors[p])

        self.offsets = tuple(offsets)
        self.intra_edges = frozenset(intra)
        self.inter_edges = frozenset(inter)
        self.successors = tuple(tuple(s) for s in successors)
        self.predecessors = tuple(tuple(p) for p in predecessors)
        max_wrap_source = [-1] * n
        for source, target in inter:
            max_wrap_source[target] = max(max_wrap_source[target], source)
        self.max_wrap_source = tuple(max_wrap_source)

    def has_intra_edge(self, p: int, q: int) -> bool:
        """Membership in the intra edge set."""
        return (p, q) in self.intra_edges

    def has_inter_edge(self, q: int, p: int) -> bool:
        """Membership in the wrap edge set."""
        return (q, p) in self.inter_edges
