"""Reference greedy zero-cost cover: the phase-1 heuristic before it
built one cover per call.

Both constructions -- the wrap-aware scan and the repaired minimum
intra cover -- return a validated :class:`PathCover`, and the repaired
one starts from :func:`_min_intra_path_cover`'s cover over the
matching's adjacency built from ``set_bits``.  The bodies are kept
verbatim.  Kept only as the differential oracle for
``tests/test_differential_solvers.py``; nothing under ``src/`` uses it.
"""

from __future__ import annotations

from repro.errors import InfeasibleZeroCostCover
from repro.graph.access_graph import AccessGraph, set_bits
from repro.pathcover.matching import HopcroftKarp
from repro.pathcover.paths import Path, PathCover


def _intra_matching(graph: AccessGraph) -> HopcroftKarp:
    adjacency = [set_bits(mask) for mask in graph.succ_bits]
    solver = HopcroftKarp(graph.n_nodes, graph.n_nodes, adjacency)
    solver.solve()
    return solver


def _min_intra_path_cover(graph: AccessGraph,
                          matching: HopcroftKarp | None = None,
                          ) -> PathCover:
    solver = matching if matching is not None else _intra_matching(graph)
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


def reference_greedy_cover(graph: AccessGraph,
                           matching: HopcroftKarp | None = None,
                           ) -> PathCover:
    """The greedy zero-cost cover as it was: both candidates built as
    validated covers, the smaller kept (the scan on a tie)."""
    candidates = [_scan_cover(graph),
                  _repaired_matching_cover(graph, matching)]
    return min(candidates, key=lambda cover: cover.n_paths)


# ----------------------------------------------------------------------
# Construction 1: wrap-aware greedy scan
# ----------------------------------------------------------------------
def _scan_cover(graph: AccessGraph) -> PathCover:
    pattern = graph.pattern
    modify_range = graph.modify_range
    succ_bits, wrap_bits = graph.succ_bits, graph.wrap_bits
    max_wrap_source = graph.max_wrap_source
    offsets = graph.offsets

    # Each open path with its home: the offset its last access must lie
    # within M of for a free wrap-around (first offset + c*S).
    open_paths: list[tuple[list[int], int]] = []
    for position, offset in enumerate(offsets):
        closes_mask = wrap_bits[position]
        best: list[int] | None = None
        best_key: tuple[int, int, int, int] | None = None
        for path, home in open_paths:
            tail = path[-1]
            if not succ_bits[tail] >> position & 1:
                continue
            first = path[0]
            closes = closes_mask >> first & 1
            if not closes and max_wrap_source[first] < position:
                # Attaching would make a free wrap unreachable forever.
                continue
            # The intra edge puts both accesses in one group, so offset
            # differences are their address distances; the home gap is
            # 0 exactly when the candidate could close the path.
            key = (0 if closes else 1,
                   max(0, abs(offset - home) - modify_range),
                   abs(offset - offsets[tail]), -tail)
            if best_key is None or key < best_key:
                best, best_key = path, key
        if best is not None:
            best.append(position)
        else:
            open_paths.append(
                ([position],
                 offset + pattern[position].coefficient * pattern.step))

    repaired: list[list[int]] = []
    for path, _home in open_paths:
        repaired.extend(_repair_wrap(path, graph))
    return PathCover.from_lists(repaired, graph.n_nodes)


# ----------------------------------------------------------------------
# Construction 2: minimum intra cover + wrap repair
# ----------------------------------------------------------------------
def _repaired_matching_cover(graph: AccessGraph,
                             matching: HopcroftKarp | None) -> PathCover:
    intra_cover = _min_intra_path_cover(graph, matching)
    repaired: list[list[int]] = []
    for path in intra_cover:
        repaired.extend(_repair_wrap(list(path), graph))
    return PathCover.from_lists(repaired, graph.n_nodes)


# ----------------------------------------------------------------------
# Shared wrap-repair pass
# ----------------------------------------------------------------------
def _repair_wrap(indices: list[int], graph: AccessGraph) -> list[list[int]]:
    """Split a chain with zero-cost intra steps into wrap-valid chains.

    Every contiguous slice of the chain keeps its intra steps free, so
    splitting only has to fix wrap-around transitions.  Preference: a
    single split fixing both halves, then a split whose head is fixed
    (recursing on the tail), then shedding the last element.
    """
    if _wrap_ok(indices, graph):
        return [indices]
    if len(indices) == 1:
        access = graph.pattern[indices[0]]
        raise InfeasibleZeroCostCover(
            f"access {access} cannot follow the loop for free: its "
            f"per-iteration address step exceeds the modify range "
            f"M={graph.modify_range}")
    for cut in range(len(indices) - 1, 0, -1):
        if _wrap_ok(indices[:cut], graph) and _wrap_ok(indices[cut:], graph):
            return [indices[:cut], indices[cut:]]
    for cut in range(len(indices) - 1, 0, -1):
        if _wrap_ok(indices[:cut], graph):
            return [indices[:cut]] + _repair_wrap(indices[cut:], graph)
    return (_repair_wrap(indices[:-1], graph)
            + _repair_wrap([indices[-1]], graph))


def _wrap_ok(indices: list[int], graph: AccessGraph) -> bool:
    return graph.wrap_bits[indices[-1]] >> indices[0] & 1 == 1
