"""Paths and path covers over access positions.

A *path* is a strictly increasing sequence of access positions: the
subsequence of the loop iteration's accesses served by one address
register (the register visits them in program order).  A *path cover*
partitions all ``N`` positions into node-disjoint paths -- one per
(virtual or physical) register.

The paper's merge operator ``P_i (+) P_j`` (section 3.2) "retains the
order of array accesses in the original access pattern": it is exactly
the sorted union of the two index sets, implemented by :meth:`Path.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import PathCoverError


@dataclass(frozen=True)
class Path:
    """A strictly increasing tuple of access positions (0-based)."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        indices = self.indices
        if not isinstance(indices, tuple):
            indices = tuple(indices)
            object.__setattr__(self, "indices", indices)
        # One pass accepts plain ints rising strictly from >= 0; only
        # what it rejects (an int subclass included) runs the checks
        # below, which accept it or word the error.
        previous = -1
        for value in indices:
            if type(value) is not int or value <= previous:
                break
            previous = value
        else:
            if indices:
                return
        if not indices:
            raise PathCoverError("a path must contain at least one access")
        for value in indices:
            if not isinstance(value, int) or isinstance(value, bool):
                raise PathCoverError(
                    f"path positions must be ints, got {value!r}")
            if value < 0:
                raise PathCoverError(
                    f"path positions must be >= 0, got {value}")
        for earlier, later in zip(indices, indices[1:]):
            if later <= earlier:
                raise PathCoverError(
                    f"path positions must be strictly increasing, got "
                    f"{indices}")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def first(self) -> int:
        """Position of the register's first access in the iteration."""
        return self.indices[0]

    @property
    def last(self) -> int:
        """Position of the register's last access in the iteration."""
        return self.indices[-1]

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, position: int) -> bool:
        return position in self.indices

    def transitions(self) -> Iterator[tuple[int, int]]:
        """Consecutive position pairs along the path."""
        return zip(self.indices, self.indices[1:])

    # ------------------------------------------------------------------
    # The paper's merge operator
    # ------------------------------------------------------------------
    def merge(self, other: "Path") -> "Path":
        """The paper's ``(+)``: order-preserving union of two paths.

        Example: merging ``(a_1, a_4, a_6)`` and ``(a_3, a_5)`` gives
        ``(a_1, a_3, a_4, a_5, a_6)``.
        """
        if not set(self.indices).isdisjoint(other.indices):
            overlap = set(self.indices) & set(other.indices)
            raise PathCoverError(
                f"cannot merge overlapping paths (shared positions "
                f"{sorted(overlap)})")
        return Path(tuple(sorted(self.indices + other.indices)))

    def __str__(self) -> str:
        body = ", ".join(f"a_{position + 1}" for position in self.indices)
        return f"({body})"


@dataclass(frozen=True)
class PathCover:
    """A partition of positions ``0 .. n_accesses-1`` into paths.

    Paths are stored in canonical order (by first position) so equal
    covers compare equal regardless of construction order.
    """

    paths: tuple[Path, ...]
    n_accesses: int

    def __post_init__(self) -> None:
        if not isinstance(self.paths, tuple):
            object.__setattr__(self, "paths", tuple(self.paths))
        ordered = tuple(sorted(self.paths, key=lambda path: path.first))
        object.__setattr__(self, "paths", ordered)

        # Paths hold ints >= 0, so N positions, all distinct and all
        # below N, are exactly 0 .. N-1.  Only a cover this rejects
        # runs the loop below, which words the error.
        n_accesses = self.n_accesses
        seen: set[int] = set()
        count = 0
        for path in ordered:
            seen.update(path.indices)
            count += len(path.indices)
        if count == len(seen) == n_accesses and (
                not seen or max(seen) < n_accesses):
            return
        seen.clear()
        for path in ordered:
            for position in path:
                if position in seen:
                    raise PathCoverError(
                        f"position {position} covered twice")
                if position >= n_accesses:
                    raise PathCoverError(
                        f"position {position} out of range for "
                        f"{n_accesses} accesses")
                seen.add(position)
        if len(seen) != n_accesses:
            missing = sorted(set(range(n_accesses)) - seen)
            raise PathCoverError(
                f"cover misses positions {missing}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_lists(cls, groups: Iterable[Sequence[int]],
                   n_accesses: int) -> "PathCover":
        """Build a cover from any iterable of position groups."""
        return cls(tuple(Path(tuple(sorted(group))) for group in groups),
                   n_accesses)

    @classmethod
    def from_assignment(cls, assignment: Sequence[int]) -> "PathCover":
        """The inverse of :meth:`assignment`: one path per register,
        holding the positions that register serves."""
        groups: dict[int, list[int]] = {}
        for position, register in enumerate(assignment):
            if type(register) is not int:
                raise PathCoverError(f"register {register!r} is not an int")
            groups.setdefault(register, []).append(position)
        return cls.from_lists(groups.values(), len(assignment))

    @classmethod
    def finest(cls, n_accesses: int) -> "PathCover":
        """One singleton path per access (the trivial cover)."""
        return cls(tuple(Path((position,))
                         for position in range(n_accesses)), n_accesses)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_paths(self) -> int:
        """Number of paths (= address registers required)."""
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def assignment(self) -> tuple[int, ...]:
        """Register index serving each access position.

        ``assignment()[p]`` is the index (into :attr:`paths`) of the path
        containing position ``p``.
        """
        owner = [0] * self.n_accesses
        for register, path in enumerate(self.paths):
            for position in path:
                owner[position] = register
        return tuple(owner)

    def successors(self) -> tuple[int, ...]:
        """The position each access's register moves to next.

        ``successors()[p]`` is the access after ``p`` on its path or,
        for the path's last access, the path's first access of the next
        iteration.  Paths increase strictly, so ``successors()[p] <= p``
        exactly at that wrap-around.
        """
        successor = [0] * self.n_accesses
        for path in self.paths:
            indices = path.indices
            for here, there in zip(indices, indices[1:] + indices[:1]):
                successor[here] = there
        return tuple(successor)

    def replace(self, remove: tuple[Path, Path], add: Path) -> "PathCover":
        """A new cover with two paths replaced by their merge result."""
        first, second = remove
        remaining = [path for path in self.paths
                     if path is not first and path is not second]
        if len(remaining) != len(self.paths) - 2:
            raise PathCoverError(
                "replace() requires two distinct paths of this cover")
        return PathCover((*remaining, add), self.n_accesses)

    def __str__(self) -> str:
        return "{" + ", ".join(str(path) for path in self.paths) + "}"
