"""The cycle-cover lower bound on ``K~``: a min-cost assignment.

A steady-state zero-cost cover is a set of cycles through every node:
each path ``f -> ... -> l`` runs along free intra edges and closes with
the free wrap-around ``l -> f``.  Give every node one outgoing and one
incoming arc and the cover is an *assignment* (a perfect matching of
the split graph) over two kinds of arcs:

* intra arcs ``p -> q`` (free intra edge, ``p < q``), cost 0;
* wrap arcs ``q -> p`` (free wrap-around, ``q >= p``), cost 1.

Intra arcs only move forward in program order, so every cycle of an
assignment uses at least one wrap arc, and a cover's cycles use exactly
one each.  The minimum assignment cost therefore lower-bounds ``K~``;
when no perfect assignment exists, no zero-cost cover does either.  The
bound dominates the matching bound (:mod:`repro.pathcover.lower_bound`):
the intra arcs of an assignment form a path cover of the intra DAG with
exactly one path per wrap arc.

The solver is successive shortest paths with node potentials
(Dijkstra on reduced costs).  It warm-starts from a maximum intra
matching: that matching costs 0, so it is a cheapest matching of its
size and all-zero potentials are feasible for it.  Each Dijkstra round
then grows the matching by one, so the rounds number the matching
bound, not ``N``.

The optimal assignment itself is often a cover.  When every one of its
cycles holds exactly one wrap arc ``l -> f``, each cycle is the
zero-cost path ``f -> ... -> l``, so the assignment is a cover with as
many paths as the bound: a minimum one, found without a search
(:func:`assignment_cover`).  A cycle with two or more wrap arcs is not
a path, and then only a search can tell.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.graph.access_graph import AccessGraph, set_bits
from repro.pathcover.lower_bound import intra_matching
from repro.pathcover.matching import HopcroftKarp

_UNREACHED = 1 << 60


def cycle_cover_bound(graph: AccessGraph,
                      matching: HopcroftKarp | None = None) -> int | None:
    """The minimum number of wrap arcs over all perfect assignments.

    ``matching`` is a solved maximum intra matching of ``graph`` (see
    :func:`~repro.pathcover.lower_bound.intra_matching`) to warm-start
    from; it is not modified.  Returns ``None`` when no perfect
    assignment exists, which proves that no zero-cost cover exists.
    """
    solved = cheapest_assignment(graph, matching)
    return None if solved is None else solved[0]


def cheapest_assignment(graph: AccessGraph,
                        matching: HopcroftKarp | None = None,
                        ) -> tuple[int, list[int]] | None:
    """:func:`cycle_cover_bound` and the assignment that attains it.

    Returns ``(bound, successor)``, where ``successor[u]`` is the node
    the optimal assignment sends ``u`` to, or ``None`` when no perfect
    assignment exists.
    """
    n = graph.n_nodes
    if matching is None:
        matching = intra_matching(graph)
    match_left = list(matching.match_left)
    match_right = list(matching.match_right)
    # arcs[u]: (v, cost) for every assignable u -> v.
    successors = graph.successor_tuples
    arcs = [[(v, 0) for v in successors[u]]
            + [(v, 1) for v in set_bits(graph.wrap_bits[u]
                                        & ((2 << u) - 1))]
            for u in range(n)]
    left_potential = [0] * n
    right_potential = [0] * n

    for root in range(n):
        if match_left[root] != -1:
            continue
        # Dijkstra on reduced costs from ``root`` to the nearest free
        # right node; a matched right node leads on to its partner at
        # no reduced cost (matched arcs are tight).
        distance = [_UNREACHED] * n
        via = [-1] * n
        settled = [False] * n
        left_distance = {root: 0}
        heap: list[tuple[int, int]] = []
        u, reached = root, 0
        while True:
            base = reached + left_potential[u]
            for v, cost in arcs[u]:
                candidate = base + cost - right_potential[v]
                if candidate < distance[v]:
                    distance[v] = candidate
                    via[v] = u
                    heappush(heap, (candidate, v))
            while heap:
                reached, v = heappop(heap)
                if not settled[v]:
                    break
            else:
                return None  # root cannot be matched: no assignment
            settled[v] = True
            u = match_right[v]
            if u == -1:
                break
            left_distance[u] = reached

        # Reprice so that reduced costs stay non-negative and the
        # augmenting path is tight; nodes beyond the sink's distance
        # move by that distance.
        for node in range(n):
            left_potential[node] += left_distance.get(node, reached)
            if settled[node]:
                right_potential[node] += distance[node]
            else:
                right_potential[node] += reached
        while True:  # flip the augmenting path back to the root
            u = via[v]
            previous = match_left[u]
            match_left[u] = v
            match_right[v] = u
            if u == root:
                break
            v = previous

    # A wrap arc is the only kind that does not move forward.
    return sum(1 for u, v in enumerate(match_left) if v <= u), match_left


def assignment_cover(successor: list[int]) -> list[list[int]] | None:
    """The assignment's cycles as zero-cost paths, or ``None``.

    ``successor`` is an assignment as :func:`cheapest_assignment`
    returns it.  Each wrap arc ``last -> first`` starts a walk from
    ``first`` along intra arcs; the walk ends at the tail of a wrap
    arc, and the cycle holds that one wrap arc only if the tail is
    ``last``.  Returns one path per wrap arc when every cycle holds
    exactly one, and ``None`` when some cycle holds more.
    """
    paths = []
    for last, first in enumerate(successor):
        if first > last:
            continue  # an intra arc
        path = [first]
        while successor[path[-1]] > path[-1]:
            path.append(successor[path[-1]])
        if path[-1] != last:
            return None
        paths.append(path)
    return paths
