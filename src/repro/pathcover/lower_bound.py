"""Matching-based lower bound on ``K~`` (role of ref [2] in the paper).

The intra-iteration access graph is a DAG (edges only go from earlier to
later positions).  By König's theorem its minimum node-disjoint path
cover has size ``N - |maximum bipartite matching|``.  Every zero-cost
steady-state cover is in particular a path cover of that DAG (dropping
the wrap-around requirement only removes constraints), hence::

    minimum intra cover size  <=  K~

This is the cheap first bound of the branch-and-bound; the matching
that proves it is also the warm start of the stronger cycle-cover bound
(:mod:`repro.pathcover.assignment`).  As a by-product the matching
yields an actual minimum intra-iteration cover, which is also the
allocator's fallback starting point when no zero-cost steady-state cover
exists (``M`` smaller than the per-iteration step).
"""

from __future__ import annotations

from repro.graph.access_graph import AccessGraph
from repro.pathcover.matching import HopcroftKarp
from repro.pathcover.paths import PathCover


def intra_matching(graph: AccessGraph) -> HopcroftKarp:
    """A solved maximum matching of the intra DAG's split graph: left
    node ``p`` may match right node ``q`` iff the intra edge ``p -> q``
    is free."""
    solver = HopcroftKarp(graph.n_nodes, graph.n_nodes,
                          graph.successor_tuples)
    solver.solve()
    return solver


def intra_cover_lower_bound(graph: AccessGraph) -> int:
    """Minimum number of node-disjoint paths covering the intra DAG.

    This equals ``N - |maximum matching|`` and lower-bounds ``K~``.
    """
    solver = intra_matching(graph)
    return graph.n_nodes - solver.size


def min_intra_path_cover(graph: AccessGraph,
                         matching: HopcroftKarp | None = None,
                         ) -> PathCover:
    """An exact minimum path cover of the intra-iteration DAG.

    The matching links each position to at most one successor; chains of
    links are the paths.  Wrap-around (inter-iteration) costs are *not*
    considered here -- see :func:`repro.pathcover.minimum_zero_cost_cover`
    for the full phase-1 problem.  ``matching`` is the graph's solved
    :func:`intra_matching`, when the caller already has it.
    """
    solver = matching if matching is not None else intra_matching(graph)
    return PathCover.from_lists(intra_chains(solver), graph.n_nodes)


def intra_chains(matching: HopcroftKarp) -> list[list[int]]:
    """The chains of a solved :func:`intra_matching`, by first position:
    each unmatched right node starts one and follows the matched links
    (the paths of :func:`min_intra_path_cover`)."""
    next_of = matching.match_left
    chains: list[list[int]] = []
    for start, predecessor in enumerate(matching.match_right):
        if predecessor != -1:
            continue
        chain = [start]
        while next_of[chain[-1]] != -1:
            chain.append(next_of[chain[-1]])
        chains.append(chain)
    return chains
