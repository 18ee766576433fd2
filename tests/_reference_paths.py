"""Reference path validation: the per-element checks that
:class:`~repro.pathcover.paths.Path` and
:class:`~repro.pathcover.paths.PathCover` now run only after a cheaper
one-pass check rejects their input.

The two ``__post_init__`` bodies and :meth:`ReferencePath.merge` are
kept verbatim from before that change.  Kept only as the differential
oracle for ``tests/test_paths_differential.py``; nothing under
``src/`` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PathCoverError


@dataclass(frozen=True)
class ReferencePath:
    """A strictly increasing tuple of access positions (0-based)."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.indices, tuple):
            object.__setattr__(self, "indices", tuple(self.indices))
        if not self.indices:
            raise PathCoverError("a path must contain at least one access")
        for value in self.indices:
            if not isinstance(value, int) or isinstance(value, bool):
                raise PathCoverError(
                    f"path positions must be ints, got {value!r}")
            if value < 0:
                raise PathCoverError(
                    f"path positions must be >= 0, got {value}")
        for earlier, later in zip(self.indices, self.indices[1:]):
            if later <= earlier:
                raise PathCoverError(
                    f"path positions must be strictly increasing, got "
                    f"{self.indices}")

    @property
    def first(self) -> int:
        """Position of the register's first access in the iteration."""
        return self.indices[0]

    def __iter__(self):
        return iter(self.indices)

    def merge(self, other: "ReferencePath") -> "ReferencePath":
        """The paper's ``(+)``: order-preserving union of two paths."""
        overlap = set(self.indices) & set(other.indices)
        if overlap:
            raise PathCoverError(
                f"cannot merge overlapping paths (shared positions "
                f"{sorted(overlap)})")
        return ReferencePath(tuple(sorted((*self.indices,
                                           *other.indices))))


@dataclass(frozen=True)
class ReferencePathCover:
    """A partition of positions ``0 .. n_accesses-1`` into paths."""

    paths: tuple[ReferencePath, ...]
    n_accesses: int

    def __post_init__(self) -> None:
        if not isinstance(self.paths, tuple):
            object.__setattr__(self, "paths", tuple(self.paths))
        ordered = tuple(sorted(self.paths, key=lambda path: path.first))
        object.__setattr__(self, "paths", ordered)

        seen: set[int] = set()
        for path in self.paths:
            for position in path:
                if position in seen:
                    raise PathCoverError(
                        f"position {position} covered twice")
                if position >= self.n_accesses:
                    raise PathCoverError(
                        f"position {position} out of range for "
                        f"{self.n_accesses} accesses")
                seen.add(position)
        if len(seen) != self.n_accesses:
            missing = sorted(set(range(self.n_accesses)) - seen)
            raise PathCoverError(
                f"cover misses positions {missing}")
