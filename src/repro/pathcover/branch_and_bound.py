"""Exact minimum zero-cost path cover: the branch-and-bound of ref [3].

Computes ``K~``, the minimum number of virtual address registers that
can serve all accesses with zero-cost address computations only, taking
inter-iteration (wrap-around) dependencies into account -- the problem
the paper declares exponential and solves with the fast branch-and-bound
procedure of its companion paper [3].

Search organisation
-------------------
Accesses are assigned in program order; each is either appended to an
open path (requires a zero-cost intra edge from the path's tail) or
opens a new path (a single canonical branch -- paths are identified by
their first access, which breaks all permutation symmetry).  A leaf is a
solution iff every path's wrap-around transition is free.

Pruning:

* **bound** -- a state with ``>= best`` open paths can never improve;
  opening a new path is only allowed while ``open + 1 < best``;
* **wrap feasibility** -- an open path whose wrap-around is not yet free
  and for which no remaining access could serve as a free-wrapping last
  element is a dead end;
* **bootstrap** -- the matching lower bound and the greedy upper bound
  (sections on refs [2] and the heuristic) initialise the incumbent;
  search stops as soon as the incumbent meets the lower bound.

Accesses to different arrays (or with different index coefficients)
share no zero-cost edges, so the instance decomposes into independent
per-group subproblems that are solved separately and recombined; this is
both an optimization and how ``K~`` naturally splits per array.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.errors import InfeasibleZeroCostCover, SearchBudgetExceeded
from repro.graph.access_graph import cached_access_graph
from repro.ir.types import AccessPattern
from repro.pathcover.heuristic import greedy_zero_cost_cover
from repro.pathcover.lower_bound import intra_cover_lower_bound
from repro.pathcover.paths import Path, PathCover

#: Default cap on explored search nodes per independent subproblem.
DEFAULT_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class CoverSearchResult:
    """Outcome of the phase-1 search for ``K~``.

    Attributes
    ----------
    cover:
        A zero-cost path cover with ``k_tilde`` paths.
    k_tilde:
        Number of virtual registers (paths) found.
    optimal:
        True when the search proved minimality (no budget exhaustion).
    lower_bound, upper_bound:
        The bootstrap bounds (matching LB, greedy UB).
    nodes_explored:
        Total branch-and-bound nodes over all subproblems.
    """

    cover: PathCover
    k_tilde: int
    optimal: bool
    lower_bound: int
    upper_bound: int
    nodes_explored: int


def minimum_zero_cost_cover(
        pattern: AccessPattern,
        modify_range: int,
        node_budget: int = DEFAULT_NODE_BUDGET,
) -> CoverSearchResult:
    """Compute ``K~`` and a witnessing zero-cost cover for a pattern.

    Raises
    ------
    InfeasibleZeroCostCover
        If no zero-cost cover exists at all (some access's per-iteration
        step exceeds the modify range).
    SearchBudgetExceeded
        Never raised for the cover itself -- on budget exhaustion the
        best cover found so far (at worst the greedy one) is returned
        with ``optimal=False``.  Raised only if the budget dies before
        *any* cover is known.
    """
    n = len(pattern)
    if n == 0:
        empty = PathCover((), 0)
        return CoverSearchResult(empty, 0, True, 0, 0, 0)

    groups: dict[tuple[str, int], list[int]] = {}
    for position, access in enumerate(pattern):
        groups.setdefault(access.group_key, []).append(position)

    all_paths: list[Path] = []
    lower_bound = 0
    upper_bound = 0
    nodes_total = 0
    optimal = True
    for positions in groups.values():
        sub_pattern = AccessPattern(pattern.subsequence(positions),
                                    step=pattern.step,
                                    loop_var=pattern.loop_var)
        outcome = _search_group(sub_pattern, modify_range, node_budget)
        lower_bound += outcome.lower_bound
        upper_bound += outcome.upper_bound
        nodes_total += outcome.nodes_explored
        optimal = optimal and outcome.optimal
        for path in outcome.cover:
            all_paths.append(
                Path(tuple(positions[local] for local in path)))

    cover = PathCover(tuple(all_paths), n)
    return CoverSearchResult(cover, cover.n_paths, optimal, lower_bound,
                             upper_bound, nodes_total)


# ----------------------------------------------------------------------
# Per-group exact search
# ----------------------------------------------------------------------
#: Deadline sentinel for paths whose wrap-around is already free: no
#: ``position`` can ever exceed it, so the feasibility scan skips them.
_NO_DEADLINE = 1 << 60


class _OpenPath:
    """Mutable path under construction (first fixed, tail grows).

    ``deadline`` caches the wrap-feasibility horizon: the last position
    by which this path must either already wrap for free
    (``_NO_DEADLINE``) or still be able to pick up a free-wrapping tail
    (``max_wrap_source[first]``).  It is refreshed on every tail change,
    so the per-node feasibility scan is one integer compare per path
    instead of two edge-set probes.
    """

    __slots__ = ("indices", "first", "last", "deadline")

    def __init__(self, start: int):
        self.indices = [start]
        self.first = start
        self.last = start


def _search_group(pattern: AccessPattern, modify_range: int,
                  node_budget: int) -> CoverSearchResult:
    graph = cached_access_graph(pattern, modify_range)
    n = graph.n_nodes
    lower_bound = intra_cover_lower_bound(graph)

    incumbent: PathCover | None
    try:
        incumbent = greedy_zero_cost_cover(graph)
        upper_bound = incumbent.n_paths
    except InfeasibleZeroCostCover:
        incumbent = None
        upper_bound = n + 1  # sentinel: any real cover beats it

    if incumbent is not None and incumbent.n_paths == lower_bound:
        return CoverSearchResult(incumbent, lower_bound, True, lower_bound,
                                 upper_bound, 0)

    # max_wrap_source[f]: latest position whose wrap-around to f is free.
    max_wrap_source = [-1] * n
    for source, target in graph.inter_edges:
        if source > max_wrap_source[target]:
            max_wrap_source[target] = source

    # Bitmask adjacency: bit q of succ_bits[p] is the intra edge p -> q,
    # bit p of inter_bits[q] the wrap edge q -> p.  Single shift-and-test
    # probes replace tuple-in-frozenset lookups in the search core.
    succ_bits = [0] * n
    for p, q in graph.intra_edges:
        succ_bits[p] |= 1 << q
    inter_bits = [0] * n
    for q, p in graph.inter_edges:
        inter_bits[q] |= 1 << p

    # Offsets are valid distance material between intra-adjacent nodes
    # (an intra edge implies same array / coefficient / loop variable).
    offsets = [access.offset for access in pattern]

    best_size = incumbent.n_paths if incumbent is not None else n + 1
    best_paths: list[tuple[int, ...]] | None = (
        [tuple(path) for path in incumbent] if incumbent is not None else None)
    open_paths: list[_OpenPath] = []
    nodes = 0
    budget_hit = False
    sort_key = itemgetter(0)

    def deadline_of(path: _OpenPath) -> int:
        if inter_bits[path.last] >> path.first & 1:
            return _NO_DEADLINE
        return max_wrap_source[path.first]

    def descend(position: int) -> None:
        nonlocal nodes, best_size, best_paths, budget_hit
        if budget_hit or best_size == lower_bound:
            return
        nodes += 1
        if nodes > node_budget:
            budget_hit = True
            return

        n_open = len(open_paths)
        if position == n:
            # Every deadline is _NO_DEADLINE exactly when every path
            # already wraps for free.
            if n_open < best_size and all(
                    path.deadline == _NO_DEADLINE for path in open_paths):
                best_size = n_open
                best_paths = [tuple(path.indices) for path in open_paths]
            return

        if n_open >= best_size:
            return
        for path in open_paths:
            if path.deadline < position:
                return

        # Extension branches, most promising first.
        candidates: list[tuple[tuple[int, int, int], _OpenPath]] = []
        position_offset = offsets[position]
        for path in open_paths:
            last = path.last
            if not succ_bits[last] >> position & 1:
                continue
            closes = inter_bits[position] >> path.first & 1
            candidates.append(
                ((0 if closes else 1, abs(position_offset - offsets[last]),
                  -last), path))
        candidates.sort(key=sort_key)
        for _key, path in candidates:
            saved_last, saved_deadline = path.last, path.deadline
            path.indices.append(position)
            path.last = position
            path.deadline = deadline_of(path)
            descend(position + 1)
            path.indices.pop()
            path.last, path.deadline = saved_last, saved_deadline
            if budget_hit or best_size == lower_bound:
                return

        # Canonical new-path branch.
        if len(open_paths) + 1 < best_size:
            fresh = _OpenPath(position)
            fresh.deadline = deadline_of(fresh)
            open_paths.append(fresh)
            descend(position + 1)
            open_paths.pop()

    descend(0)

    if best_paths is None:
        if budget_hit:
            raise SearchBudgetExceeded(
                f"no zero-cost cover found within {node_budget} nodes "
                f"(N={n}, M={modify_range})")
        raise InfeasibleZeroCostCover(
            f"no zero-cost cover exists for this group "
            f"(N={n}, M={modify_range}, step={pattern.step})")

    cover = PathCover.from_lists(best_paths, n)
    return CoverSearchResult(cover, cover.n_paths, not budget_hit,
                             lower_bound, min(upper_bound, cover.n_paths),
                             nodes)
