"""Phase 1 of the paper's algorithm: minimum zero-cost path covers.

Given the access graph, compute the minimum number ``K~`` of "virtual"
address registers for which every address computation is free
(section 3.1).  Every solver here reads the graph's per-node edge
bitmasks (:class:`~repro.graph.access_graph.AccessGraph`).  The
subpackage provides:

* :mod:`repro.pathcover.paths` -- the :class:`Path`/:class:`PathCover`
  datatypes shared by the whole library.
* :mod:`repro.pathcover.matching` -- a from-scratch Hopcroft--Karp
  maximum bipartite matching.
* :mod:`repro.pathcover.lower_bound` -- the matching-based lower bound
  on ``K~`` (role of ref [2]) and the exact minimum *intra-iteration*
  path cover it induces.
* :mod:`repro.pathcover.assignment` -- the stronger cycle-cover lower
  bound: a min-cost assignment in which each wrap-around costs 1,
  warm-started from the matching, and the assignment itself as a
  cover when each of its cycles holds one wrap-around.
* :mod:`repro.pathcover.heuristic` -- a wrap-aware greedy cover giving a
  tight upper bound.
* :mod:`repro.pathcover.branch_and_bound` -- the exact search of the
  companion paper [3], settled by the bounds where they meet or by the
  assignment where it is a cover, and bounded by the cycle-cover
  bound where neither holds.
"""

from repro.pathcover.assignment import cycle_cover_bound
from repro.pathcover.branch_and_bound import (
    CoverSearchResult,
    minimum_zero_cost_cover,
)
from repro.pathcover.heuristic import greedy_zero_cost_cover
from repro.pathcover.lower_bound import (
    intra_cover_lower_bound,
    min_intra_path_cover,
)
from repro.pathcover.matching import HopcroftKarp
from repro.pathcover.paths import Path, PathCover
from repro.pathcover.verify import (
    is_zero_cost_path,
    path_intra_distances,
    path_wrap_distance,
)

__all__ = [
    "CoverSearchResult",
    "HopcroftKarp",
    "Path",
    "PathCover",
    "cycle_cover_bound",
    "greedy_zero_cost_cover",
    "intra_cover_lower_bound",
    "is_zero_cost_path",
    "min_intra_path_cover",
    "minimum_zero_cost_cover",
    "path_intra_distances",
    "path_wrap_distance",
]
