"""The access graph ``G = (V, E)`` of the paper's section 2 / Figure 1.

Nodes are the positions ``0 .. N-1`` of the accesses ``a_1 .. a_N`` of
one loop iteration.  Two kinds of edges exist:

* *intra-iteration* edges ``(p, q)`` with ``p < q``: computing the
  address of ``a_{q+1}`` from ``a_{p+1}`` within one iteration is free
  (address distance within the auto-modify range ``M``).
* *inter-iteration* edges ``(q, p)`` (any ``p``, ``q``): a register whose
  last access in iteration ``t`` is ``a_{q+1}`` can reach ``a_{p+1}`` in
  iteration ``t + 1`` for free (wrap-around distance within ``M``).

A zero-cost allocation of all accesses to ``K`` registers corresponds to
covering the intra-iteration graph with ``K`` node-disjoint paths whose
wrap-around (last node back to first node) is also an inter-iteration
edge -- see :mod:`repro.pathcover`.

Representation: the graph stores one integer bitmask per node for each
edge kind -- ``succ_bits[p]`` holds the free intra successors of ``p``
and ``wrap_bits[q]`` the free wrap targets of ``q`` -- plus
``max_wrap_source``, the latest free wrap source of every node.  Phase 1
reads these directly (one shift-and-test per edge probe).  The edge sets
and neighbour tuples (:attr:`AccessGraph.intra_edges`,
:attr:`AccessGraph.successor_tuples`, ...) are derived from the
bitmasks the first time they are read; the solvers read the successor
tuples only, and no graph builds its edge sets unless asked.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.errors import GraphError
from repro.ir.types import AccessPattern


@dataclass(frozen=True)
class GraphStats:
    """Size summary of an access graph."""

    n_nodes: int
    n_intra_edges: int
    n_inter_edges: int


class AccessGraph:
    """Zero-cost transition graph over one iteration's accesses.

    Parameters
    ----------
    pattern:
        The loop iteration's access sequence (carries the loop step).
    modify_range:
        The AGU auto-modify range ``M``.

    Attributes
    ----------
    succ_bits:
        ``succ_bits[p]`` has bit ``q`` set iff the intra edge
        ``p -> q`` is free.
    wrap_bits:
        ``wrap_bits[q]`` has bit ``p`` set iff the wrap-around
        ``q -> p`` is free.
    max_wrap_source:
        ``max_wrap_source[p]``: the latest position whose wrap-around
        to ``p`` is free, or -1 when none is.
    offsets:
        The constant index offset of every access, in program order.
    """

    def __init__(self, pattern: AccessPattern, modify_range: int):
        if modify_range < 0:
            raise GraphError(
                f"modify range must be >= 0, got {modify_range}")
        self._pattern = pattern
        self._modify_range = modify_range
        n = len(pattern)

        # Distances are compile-time constants only inside a group of
        # accesses to the same array with the same index coefficient
        # (the pattern indexes with one loop variable).  Edges therefore
        # only ever connect group members whose offsets fall within a
        # +-M window.
        # Sorting a group by offset turns every window into a slice,
        # and prefix ORs of the members' bits turn a slice into one
        # bitmask: O(n log n) big-integer operations per graph.
        groups: dict[tuple[str, int], list[int]] = {}
        offsets = [0] * n
        for position, access in enumerate(pattern):
            offsets[position] = access.offset
            groups.setdefault(access.group_key, []).append(position)

        succ_bits = [0] * n
        wrap_bits = [0] * n
        max_wrap_source = [-1] * n
        step = pattern.step
        for (_array, coefficient), positions in groups.items():
            by_offset = sorted((offsets[p], p) for p in positions)
            sorted_offsets = [offset for offset, _ in by_offset]
            prefix = [0]
            for _offset, p in by_offset:
                prefix.append(prefix[-1] | 1 << p)
            # The wrap distance q -> p is c*S + offset_p - offset_q; it
            # is free iff offset_p lies within M of offset_q - c*S.
            home = coefficient * step
            for offset, p in by_offset:
                window = (prefix[bisect_right(sorted_offsets,
                                              offset + modify_range)]
                          ^ prefix[bisect_left(sorted_offsets,
                                               offset - modify_range)])
                succ_bits[p] = window >> (p + 1) << (p + 1)
                wrap_bits[p] = (
                    prefix[bisect_right(sorted_offsets,
                                        offset - home + modify_range)]
                    ^ prefix[bisect_left(sorted_offsets,
                                         offset - home - modify_range)])
                sources = (
                    prefix[bisect_right(sorted_offsets,
                                        offset + home + modify_range)]
                    ^ prefix[bisect_left(sorted_offsets,
                                         offset + home - modify_range)])
                max_wrap_source[p] = sources.bit_length() - 1

        self.succ_bits: tuple[int, ...] = tuple(succ_bits)
        self.wrap_bits: tuple[int, ...] = tuple(wrap_bits)
        self.max_wrap_source: tuple[int, ...] = tuple(max_wrap_source)
        self.offsets: tuple[int, ...] = tuple(offsets)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def pattern(self) -> AccessPattern:
        """The access pattern the graph models."""
        return self._pattern

    @property
    def modify_range(self) -> int:
        """The auto-modify range M the edges were built with."""
        return self._modify_range

    @property
    def n_nodes(self) -> int:
        """Number of accesses (graph nodes)."""
        return len(self._pattern)

    def nodes(self) -> range:
        """Node ids in program order (0-based access positions)."""
        return range(self.n_nodes)

    def label(self, node: int) -> str:
        """Paper-style label ``a_k`` of a node."""
        return self._pattern.label(node)

    # ------------------------------------------------------------------
    # Edge views (derived from the bitmasks on first read)
    # ------------------------------------------------------------------
    @cached_property
    def intra_edges(self) -> frozenset[tuple[int, int]]:
        """Zero-cost intra-iteration edges ``(p, q)``, ``p < q``."""
        return frozenset((p, q) for p, successors in
                         enumerate(self.successor_tuples)
                         for q in successors)

    @cached_property
    def inter_edges(self) -> frozenset[tuple[int, int]]:
        """Zero-cost inter-iteration (wrap-around) edges ``(q, p)``."""
        return frozenset((q, p) for q, mask in enumerate(self.wrap_bits)
                         for p in set_bits(mask))

    def has_intra_edge(self, p: int, q: int) -> bool:
        """Whether ``a_{p+1} -> a_{q+1}`` is free within an iteration."""
        return (p, q) in self.intra_edges

    def has_inter_edge(self, q: int, p: int) -> bool:
        """Whether wrap-around ``a_{q+1} -> a_{p+1}'`` is free."""
        return (q, p) in self.inter_edges

    def successors(self, node: int) -> tuple[int, ...]:
        """Intra-iteration successors of ``node`` (later positions)."""
        self._check_node(node)
        return self.successor_tuples[node]

    def predecessors(self, node: int) -> tuple[int, ...]:
        """Intra-iteration predecessors of ``node`` (earlier positions)."""
        self._check_node(node)
        return self._predecessor_tuples[node]

    @cached_property
    def successor_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Every node's intra successors, indexed by node: the
        adjacency the matching and the assignment solver read, derived
        from :attr:`succ_bits` once per graph."""
        return tuple(tuple(set_bits(mask)) for mask in self.succ_bits)

    @cached_property
    def _predecessor_tuples(self) -> tuple[tuple[int, ...], ...]:
        predecessors: list[list[int]] = [[] for _ in self.succ_bits]
        for p, successors in enumerate(self.successor_tuples):
            for q in successors:
                predecessors[q].append(p)
        return tuple(tuple(nodes) for nodes in predecessors)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise GraphError(
                f"node {node} out of range 0..{self.n_nodes - 1}")

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def stats(self) -> GraphStats:
        """Node/edge counts."""
        return GraphStats(
            self.n_nodes, sum(mask.bit_count() for mask in self.succ_bits),
            sum(mask.bit_count() for mask in self.wrap_bits))

    def __repr__(self) -> str:
        stats = self.stats()
        return (f"AccessGraph(n={stats.n_nodes}, "
                f"intra={stats.n_intra_edges}, inter={stats.n_inter_edges}, "
                f"M={self._modify_range})")


def set_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


@lru_cache(maxsize=0)
def cached_access_graph(pattern: AccessPattern,
                        modify_range: int) -> AccessGraph:
    """Build an :class:`AccessGraph`, counting the call.

    A counting wrapper kept for the benchmark harness, which reads
    ``cache_info()`` (every call a miss) and resets it with
    ``cache_clear()`` each round.  ``maxsize=0`` keeps no graph and
    never hashes the pattern: an EXP-S1 grid never builds one
    ``(pattern, M)`` twice and the kernel library seldom does, so a
    memo would cost a whole-pattern hash per call and hold graphs for
    next to no hits.
    """
    return AccessGraph(pattern, modify_range)
