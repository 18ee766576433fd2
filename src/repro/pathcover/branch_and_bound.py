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
* **bootstrap** -- the greedy cover is the first incumbent.  The
  matching lower bound (ref [2]) is tried first: if the greedy meets
  it, there is nothing to search.  Otherwise the cycle-cover bound
  (:mod:`repro.pathcover.assignment`, warm-started from that matching)
  is computed: no perfect assignment proves infeasibility without a
  search, and a greedy that meets it is returned.  Next, the
  assignment that attains the bound is returned as the cover when
  each of its cycles holds exactly one wrap arc: it has as many paths
  as the bound, so it is minimum, proven at the root with 0 nodes.
  Only a group whose cheapest assignment has a cycle with two or more
  wrap arcs is searched, with the bound as the search's lower bound
  -- the search stops as soon as the incumbent meets it.  The
  incumbent is replaced only on a strict improvement and the branch
  order never depends on the bound, so a stronger bound only stops
  the search earlier, on the same cover.

Accesses to different arrays (or with different index coefficients)
share no zero-cost edges, so the instance decomposes into independent
per-group subproblems that are solved separately and recombined; this is
both an optimization and how ``K~`` naturally splits per array.

Inside a :func:`cover_scope` each distinct group is solved once: a
group's search reads only its step, coefficient and offsets, ``M`` and
the node budget -- never the array name, the loop variable's name, the
labels or ``K`` -- so a sweep that meets ``x[i], x[i+1]`` in many kernels and
under many register counts searches it a single time.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import dataclass
from operator import itemgetter

from repro.errors import InfeasibleZeroCostCover, SearchBudgetExceeded
from repro.graph.access_graph import cached_access_graph
from repro.ir.types import AccessPattern
from repro.pathcover.assignment import assignment_cover, cheapest_assignment
from repro.pathcover.heuristic import greedy_zero_cost_cover
from repro.pathcover.lower_bound import intra_matching
from repro.pathcover.paths import Path, PathCover
from repro.scope import ScopedMemo

#: Default cap on explored search nodes per independent subproblem.
DEFAULT_NODE_BUDGET = 200_000

#: The open cover scope's solved groups by :func:`_group_key`.
_COVER_SCOPE = ScopedMemo("repro_cover_scope")


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
        The matching lower bound and the greedy upper bound, each
        summed over the independent groups.  A group the greedy
        cannot cover counts the size of the cover the search found.
    nodes_explored:
        Total depth-first search nodes over all subproblems; a group
        settled by a bound or by the root assignment counts 0.
    """

    cover: PathCover
    k_tilde: int
    optimal: bool
    lower_bound: int
    upper_bound: int
    nodes_explored: int


def cover_scope(groups: dict | None = None) -> AbstractContextManager[dict]:
    """Solve each distinct phase-1 group at most once while open.

    Inside the scope, :func:`minimum_zero_cost_cover` remembers every
    group it solves, keyed by exactly what the search reads (see
    :func:`_group_key`), and serves later groups with the same key
    from that memo.  A remembered result is in the group's own local
    positions, so each pattern maps it back to its own.  A group
    whose search raises is never remembered, so every pattern with it
    raises on its own.

    ``groups`` seeds the scope and then holds everything it solves;
    seeding, nesting and forking follow :mod:`repro.scope`.
    """
    return _COVER_SCOPE.scope(groups)


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
    the coefficient, ``M``, the budget and each access's offset.  Array
    names, the loop variable's name, labels and ``is_write`` are not
    read, so they are not in it."""
    accesses = pattern.accesses
    return (pattern.step, coefficient, modify_range, node_budget,
            tuple(accesses[p].index.offset for p in positions))


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
    solved = cheapest_assignment(graph, matching)
    if solved is None:
        raise _infeasible(pattern, modify_range)
    lower_bound, successor = solved
    if incumbent is not None and incumbent.n_paths == lower_bound:
        return CoverSearchResult(incumbent, incumbent.n_paths, True,
                                 matching_bound, incumbent.n_paths, 0)
    # The assignment that attains the bound is itself a cover when each
    # of its cycles holds one wrap arc, and then nothing is left to
    # search for.
    root_paths = assignment_cover(successor)
    if root_paths is not None:
        cover = PathCover.from_lists(root_paths, n)
        upper_bound = incumbent.n_paths if incumbent is not None \
            else cover.n_paths
        return CoverSearchResult(cover, lower_bound, True,
                                 matching_bound, upper_bound, 0)

    succ_bits, wrap_bits = graph.succ_bits, graph.wrap_bits
    max_wrap_source = graph.max_wrap_source
    # Offsets are valid distance material between intra-adjacent nodes
    # (an intra edge implies the same array and coefficient).
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
