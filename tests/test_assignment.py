"""The cycle-cover bound (:mod:`repro.pathcover.assignment`) against
exhaustive oracles.

* Its value equals the cheapest perfect assignment found by enumerating
  every assignment (Hypothesis, N <= 8).
* It is ``None`` exactly when no zero-cost cover exists, decided by
  enumerating every partition of the accesses into paths (N <= 10).
* It never undercuts the matching bound it warm-starts from, and it
  leaves that matching untouched.
* The assignment that attains it is a cover exactly when each of its
  cycles holds one wrap arc, and then every path is zero-cost and
  there are as many as the bound (Hypothesis, N <= 10).

The oracles read the graph only through its edge-set views and the
distance functions, not through the bitmasks the solver uses.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import assume, example, given, settings

from repro.graph.access_graph import AccessGraph
from repro.graph.distance import intra_distance, is_zero_cost, wrap_distance
from repro.ir.builder import pattern_from_offsets
from repro.ir.expr import AffineExpr
from repro.ir.types import AccessPattern, ArrayAccess
from repro.pathcover.assignment import (
    assignment_cover,
    cheapest_assignment,
    cycle_cover_bound,
)
from repro.pathcover.lower_bound import intra_cover_lower_bound, intra_matching
from repro.pathcover.paths import Path, PathCover
from repro.pathcover.verify import is_zero_cost_path


def brute_force_assignment(graph: AccessGraph) -> int | None:
    """The fewest wrap arcs over every perfect assignment, by
    enumeration; ``None`` when there is no perfect assignment."""
    n = graph.n_nodes
    arcs = [[(v, 0) for v in range(u + 1, n) if graph.has_intra_edge(u, v)]
            + [(v, 1) for v in range(u + 1) if graph.has_inter_edge(u, v)]
            for u in range(n)]
    used = [False] * n
    best: list[int | None] = [None]

    def assign(u: int, cost: int) -> None:
        if u == n:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        for v, arc_cost in arcs[u]:
            if not used[v]:
                used[v] = True
                assign(u + 1, cost + arc_cost)
                used[v] = False

    assign(0, 0)
    return best[0]


def zero_cost_cover_exists(pattern: AccessPattern, modify_range: int) -> bool:
    """Whether some partition of the accesses into program-order paths
    has every intra step and every wrap-around free."""
    n = len(pattern)
    paths: list[list[int]] = []

    def free(distance: int | None) -> bool:
        return is_zero_cost(distance, modify_range)

    def extend(position: int) -> bool:
        if position == n:
            return all(free(wrap_distance(pattern[path[-1]], pattern[path[0]],
                                          pattern.step)) for path in paths)
        for path in paths:
            if free(intra_distance(pattern[path[-1]], pattern[position])):
                path.append(position)
                found = extend(position + 1)
                path.pop()
                if found:
                    return True
        paths.append([position])
        found = extend(position + 1)
        paths.pop()
        return found

    return extend(0)


@st.composite
def small_instances(draw, max_n: int = 8):
    offsets = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=max_n))
    step = draw(st.sampled_from((1, 2, 3, -1)))
    modify_range = draw(st.integers(0, 2))
    return pattern_from_offsets(offsets, step=step), modify_range


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(small_instances())
    # A forward wrap 0 -> 3 would make a one-wrap assignment; only
    # backward wraps may close a cycle, so the bound is 2.
    @example((pattern_from_offsets([0, -3, -1, 1]), 2))
    def test_value_is_the_cheapest_assignment(self, instance):
        pattern, modify_range = instance
        graph = AccessGraph(pattern, modify_range)
        assert cycle_cover_bound(graph) == brute_force_assignment(graph)

    def test_none_exactly_when_no_zero_cost_cover_exists(self):
        rng = random.Random(0xA551)
        outcomes = {True: 0, False: 0}
        for _ in range(400):
            accesses = tuple(
                ArrayAccess("x", AffineExpr(rng.choice((1, 1, 2)),
                                            rng.randint(-3, 3)))
                for _ in range(rng.randint(1, 10)))
            pattern = AccessPattern(accesses, step=rng.choice((1, 2, 3, 4)))
            modify_range = rng.choice((1, 2))
            exists = zero_cost_cover_exists(pattern, modify_range)
            bound = cycle_cover_bound(AccessGraph(pattern, modify_range))
            assert (bound is None) == (not exists), (pattern, modify_range)
            outcomes[exists] += 1
        # Both sides of the equivalence are exercised.
        assert min(outcomes.values()) >= 50


class TestWarmStart:
    def test_dominates_the_matching_bound(self, paper_graph):
        assert cycle_cover_bound(paper_graph) == 3
        assert intra_cover_lower_bound(paper_graph) == 2

    def test_leaves_the_matching_untouched(self, paper_graph):
        matching = intra_matching(paper_graph)
        before = (list(matching.match_left), list(matching.match_right))
        assert cycle_cover_bound(paper_graph, matching) == 3
        assert (matching.match_left, matching.match_right) == before

    def test_empty_graph(self):
        assert cycle_cover_bound(AccessGraph(pattern_from_offsets([]), 1)) \
            == 0


def wraps_per_cycle(successor: list[int]) -> list[int]:
    """The number of wrap arcs (``v <= u``) on each cycle of an
    assignment, by walking every cycle from its smallest node."""
    seen = [False] * len(successor)
    counts = []
    for start in range(len(successor)):
        if seen[start]:
            continue
        node, wraps = start, 0
        while not seen[node]:
            seen[node] = True
            wraps += successor[node] <= node
            node = successor[node]
        counts.append(wraps)
    return counts


class TestAssignmentCover:
    @settings(max_examples=300, deadline=None)
    @given(small_instances(max_n=10))
    def test_a_cover_exactly_when_each_cycle_holds_one_wrap(self,
                                                           instance):
        pattern, modify_range = instance
        graph = AccessGraph(pattern, modify_range)
        solved = cheapest_assignment(graph)
        assume(solved is not None)
        bound, successor = solved
        assert bound == cycle_cover_bound(graph)
        paths = assignment_cover(successor)
        one_each = all(wraps == 1 for wraps in wraps_per_cycle(successor))
        assert (paths is not None) == one_each
        if paths is None:
            return
        cover = PathCover.from_lists(paths, len(pattern))
        assert cover.n_paths == bound
        assert all(is_zero_cost_path(path, pattern, modify_range)
                   for path in cover)

    def test_the_paper_pattern_assignment_is_a_minimum_cover(
            self, paper_pattern, paper_graph):
        bound, successor = cheapest_assignment(paper_graph)
        paths = assignment_cover(successor)
        assert bound == 3
        assert paths == [[0, 2, 4], [1, 3, 5], [6]]
        assert all(is_zero_cost_path(Path(tuple(path)), paper_pattern, 1)
                   for path in paths)

    def test_a_cycle_with_two_wraps_is_no_cover(self):
        # 0 -> 1 -> 2 -> 4 -> 3 -> 0 wraps at 4 -> 3 and at 3 -> 0.
        assert assignment_cover([1, 2, 4, 0, 3]) is None
        assert assignment_cover([1, 2, 4, 0, 3, 5]) is None
        assert assignment_cover([1, 0, 2]) == [[0, 1], [2]]
