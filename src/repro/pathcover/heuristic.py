"""Greedy zero-cost path cover: the upper-bound heuristic of phase 1.

The paper bootstraps its branch-and-bound with "a heuristic algorithm
for determination of a tight upper bound" (section 3.1).  We run a small
portfolio of two constructions and keep the smaller cover:

* a wrap-aware greedy scan over the accesses in program order, and
* the exact minimum *intra-iteration* cover (via matching) followed by a
  wrap-repair pass.

Both end with the same repair step, so the result is always a valid
*zero-cost* cover (intra and wrap-around transitions all free), whose
size upper-bounds ``K~``.

A path can only wrap for free when its last offset lands in the "home
window" ``[o_first + S - M, o_first + S + M]``; the scan therefore
(a) refuses attachments that would make a free wrap unreachable, and
(b) prefers attachments that keep the path close to its home window.
"""

from __future__ import annotations

from repro.errors import InfeasibleZeroCostCover
from repro.graph.access_graph import AccessGraph
from repro.pathcover.lower_bound import intra_chains, intra_matching
from repro.pathcover.matching import HopcroftKarp
from repro.pathcover.paths import PathCover


def greedy_zero_cost_cover(graph: AccessGraph,
                           matching: HopcroftKarp | None = None,
                           ) -> PathCover:
    """A zero-cost path cover of the access graph (upper bound on ``K~``).

    ``matching`` is the graph's solved
    :func:`~repro.pathcover.lower_bound.intra_matching`, when the caller
    already has it; otherwise it is solved here.

    Raises
    ------
    InfeasibleZeroCostCover
        If even singleton paths cannot wrap for free (an access's
        per-iteration address step exceeds the modify range).
    """
    scan = _scan_cover(graph)
    repaired = _repaired_matching_cover(graph, matching)
    # A tie goes to the scan.
    best = repaired if len(repaired) < len(scan) else scan
    return PathCover.from_lists(best, graph.n_nodes)


# ----------------------------------------------------------------------
# Construction 1: wrap-aware greedy scan
# ----------------------------------------------------------------------
def _scan_cover(graph: AccessGraph) -> list[list[int]]:
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
    return repaired


# ----------------------------------------------------------------------
# Construction 2: minimum intra cover + wrap repair
# ----------------------------------------------------------------------
def _repaired_matching_cover(graph: AccessGraph,
                             matching: HopcroftKarp | None,
                             ) -> list[list[int]]:
    if matching is None:
        matching = intra_matching(graph)
    repaired: list[list[int]] = []
    for chain in intra_chains(matching):
        repaired.extend(_repair_wrap(chain, graph))
    return repaired


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
