"""Validity checks for paths and covers against the cost model.

These helpers are deliberately implemented straight from the distance
definitions (not via the search algorithms) so they can serve as an
independent oracle in tests.
"""

from __future__ import annotations

from repro.errors import PathCoverError
from repro.graph.distance import intra_distance, is_zero_cost, wrap_distance
from repro.ir.types import AccessPattern
from repro.pathcover.paths import Path


def path_intra_distances(path: Path,
                         pattern: AccessPattern) -> list[int | None]:
    """Address distances along the path's consecutive intra-iteration
    transitions (``None`` where not compile-time constant)."""
    _check_positions(path, pattern)
    return [intra_distance(pattern[p], pattern[q])
            for p, q in path.transitions()]


def path_wrap_distance(path: Path, pattern: AccessPattern) -> int | None:
    """Address distance of the path's wrap-around transition.

    From the register's last access in iteration ``t`` to its first
    access in iteration ``t + 1``; ``None`` if not constant.
    """
    _check_positions(path, pattern)
    return wrap_distance(pattern[path.last], pattern[path.first],
                         pattern.step)


def is_zero_cost_path(path: Path, pattern: AccessPattern,
                      modify_range: int, include_wrap: bool = True) -> bool:
    """Whether a register can serve the whole path for free.

    With ``include_wrap`` (the steady-state model and the phase-1
    definition of ``K~``) the wrap-around transition must be free too.
    """
    for distance in path_intra_distances(path, pattern):
        if not is_zero_cost(distance, modify_range):
            return False
    if include_wrap:
        return is_zero_cost(path_wrap_distance(path, pattern), modify_range)
    return True


def _check_positions(path: Path, pattern: AccessPattern) -> None:
    if path.last >= len(pattern):
        raise PathCoverError(
            f"path position {path.last} out of range for pattern of "
            f"length {len(pattern)}")
