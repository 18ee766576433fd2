"""The phase-1 search as it was before the root assignment settled
groups: :func:`minimum_zero_cost_cover` and :func:`_search_group` of
:mod:`repro.pathcover.branch_and_bound`, kept verbatim as a test-local
oracle.

Here a group that neither greedy exit settles always goes to the
depth-first search, bounded by the cycle-cover bound.  The
differential tests hold the library's phase 1 to it: ``K~`` no larger,
equal wherever this one proved optimality, proven wherever this one
was, and never more nodes explored.  Its cover scope is its own and
no test opens it, so it always searches.  Do not optimise it.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import InfeasibleZeroCostCover, SearchBudgetExceeded
from repro.graph.access_graph import cached_access_graph
from repro.ir.types import AccessPattern
from repro.pathcover.assignment import cycle_cover_bound
from repro.pathcover.branch_and_bound import (
    DEFAULT_NODE_BUDGET,
    CoverSearchResult,
)
from repro.pathcover.heuristic import greedy_zero_cost_cover
from repro.pathcover.lower_bound import intra_matching
from repro.pathcover.paths import Path, PathCover
from repro.scope import ScopedMemo

_COVER_SCOPE = ScopedMemo("reference_cover_scope")


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

    Inside a :func:`cover_scope`, a group solved before in the scope is
    served from its memo instead of being searched again.
    """
    n = len(pattern)
    if n == 0:
        empty = PathCover((), 0)
        return CoverSearchResult(empty, 0, True, 0, 0, 0)

    groups: dict[tuple[str, int], list[int]] = {}
    for position, access in enumerate(pattern):
        groups.setdefault(access.group_key, []).append(position)

    memo = _COVER_SCOPE.get()
    all_paths: list[Path] = []
    lower_bound = 0
    upper_bound = 0
    nodes_total = 0
    optimal = True
    for (_array, coefficient), positions in groups.items():
        key = None if memo is None else _group_key(
            pattern, coefficient, positions, modify_range, node_budget)
        outcome = None if memo is None else memo.get(key)
        if outcome is None:
            sub_pattern = AccessPattern(pattern.subsequence(positions),
                                        step=pattern.step,
                                        loop_var=pattern.loop_var)
            outcome = _search_group(sub_pattern, modify_range,
                                    node_budget)
            if memo is not None:
                memo[key] = outcome
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



def _group_key(pattern: AccessPattern, coefficient: int,
               positions: list[int], modify_range: int,
               node_budget: int) -> tuple:
    """Everything :func:`_search_group` reads of one group: the step,
    the coefficient, ``M``, the budget, and each access's offset and
    -- when the coefficient makes it matter -- loop variable.  Array
    names, labels and ``is_write`` are not read, so they are not in
    it."""
    accesses = pattern.accesses
    return (pattern.step, coefficient, modify_range, node_budget,
            tuple((accesses[p].index.var if coefficient else None,
                   accesses[p].index.offset) for p in positions))


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
    matching = intra_matching(graph)
    matching_bound = n - matching.size

    incumbent: PathCover | None
    try:
        incumbent = greedy_zero_cost_cover(graph, matching)
    except InfeasibleZeroCostCover:
        incumbent = None
    if incumbent is not None and incumbent.n_paths == matching_bound:
        return CoverSearchResult(incumbent, incumbent.n_paths, True,
                                 matching_bound, incumbent.n_paths, 0)

    # Only now pay for the stronger bound, warm-started from the
    # matching: most groups are settled by the matching bound alone.
    lower_bound = cycle_cover_bound(graph, matching)
    if lower_bound is None:
        raise _infeasible(pattern, modify_range)
    if incumbent is not None and incumbent.n_paths == lower_bound:
        return CoverSearchResult(incumbent, incumbent.n_paths, True,
                                 matching_bound, incumbent.n_paths, 0)

    succ_bits, wrap_bits = graph.succ_bits, graph.wrap_bits
    max_wrap_source = graph.max_wrap_source
    # Offsets are valid distance material between intra-adjacent nodes
    # (an intra edge implies same array / coefficient / loop variable).
    offsets = graph.offsets

    best_size = incumbent.n_paths if incumbent is not None else n + 1
    best_paths: list[tuple[int, ...]] | None = (
        [tuple(path) for path in incumbent] if incumbent is not None else None)
    open_paths: list[_OpenPath] = []
    nodes = 0
    budget_hit = False
    sort_key = itemgetter(0)

    def deadline_of(path: _OpenPath) -> int:
        if wrap_bits[path.last] >> path.first & 1:
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
            closes = wrap_bits[position] >> path.first & 1
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
        raise _infeasible(pattern, modify_range)

    cover = PathCover.from_lists(best_paths, n)
    upper_bound = incumbent.n_paths if incumbent is not None \
        else cover.n_paths
    return CoverSearchResult(cover, cover.n_paths, not budget_hit,
                             matching_bound, upper_bound, nodes)


def _infeasible(pattern: AccessPattern,
                modify_range: int) -> InfeasibleZeroCostCover:
    return InfeasibleZeroCostCover(
        f"no zero-cost cover exists for this group "
        f"(N={len(pattern)}, M={modify_range}, step={pattern.step})")
