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

from repro.graph.access_graph import AccessGraph, set_bits
from repro.pathcover.matching import HopcroftKarp
from repro.pathcover.paths import Path, PathCover


def intra_matching(graph: AccessGraph) -> HopcroftKarp:
    """A solved maximum matching of the intra DAG's split graph: left
    node ``p`` may match right node ``q`` iff the intra edge ``p -> q``
    is free."""
    adjacency = [set_bits(mask) for mask in graph.succ_bits]
    solver = HopcroftKarp(graph.n_nodes, graph.n_nodes, adjacency)
    solver.solve()
    return solver


def intra_cover_lower_bound(graph: AccessGraph) -> int:
    """Minimum number of node-disjoint paths covering the intra DAG.

    This equals ``N - |maximum matching|`` and lower-bounds ``K~``.
    """
    solver = intra_matching(graph)
    return graph.n_nodes - solver.size


def min_intra_path_cover(graph: AccessGraph) -> PathCover:
    """An exact minimum path cover of the intra-iteration DAG.

    The matching links each position to at most one successor; chains of
    links are the paths.  Wrap-around (inter-iteration) costs are *not*
    considered here -- see :func:`repro.pathcover.minimum_zero_cost_cover`
    for the full phase-1 problem.
    """
    solver = intra_matching(graph)
    next_of = solver.match_left
    has_predecessor = [right != -1 for right in solver.match_right]

    paths: list[Path] = []
    for start in graph.nodes():
        if has_predecessor[start]:
            continue
        chain = [start]
        while next_of[chain[-1]] != -1:
            chain.append(next_of[chain[-1]])
        paths.append(Path(tuple(chain)))
    return PathCover(tuple(paths), graph.n_nodes)
