"""Differential oracle for path and path-cover validation.

:class:`~repro.pathcover.paths.Path` and
:class:`~repro.pathcover.paths.PathCover` accept their input after one
cheap pass and run the per-element checks only on what that pass
rejects; ``tests/_reference_paths.py`` keeps the checks as they ran on
every input before.  Both must accept exactly the same inputs (and then
hold the same positions) and raise the same :class:`PathCoverError`
text on everything else: bools, negative values, duplicates, unsorted
and empty tuples, ``IntEnum`` members, non-int values, and covers with
overlaps, gaps and out-of-range positions.  The merge operator is held
to the same contract.
"""

from __future__ import annotations

from enum import IntEnum

import hypothesis.strategies as st
from hypothesis import example, given, settings

from _reference_paths import ReferencePath, ReferencePathCover

from repro.errors import PathCoverError
from repro.pathcover.paths import Path, PathCover


class Slot(IntEnum):
    """``int`` subclass members: valid positions, though not plain ints."""

    ZERO = 0
    ONE = 1
    FIVE = 5


def outcome(build):
    """``("ok", value)`` or ``("error", message)`` for ``build()``."""
    try:
        return "ok", build()
    except PathCoverError as error:
        return "error", str(error)


#: Anything a caller might put in a path: mostly small ints, and the
#: values the checks exist for.
_ELEMENTS = st.one_of(
    st.integers(-3, 12), st.integers(-3, 12), st.booleans(),
    st.sampled_from(list(Slot)), st.floats(-2, 12, allow_nan=False),
    st.sampled_from(["x", None, (1,)]))

#: Valid positions: sorted, distinct, non-negative ints.
_VALID = st.lists(st.integers(0, 20), min_size=1, max_size=8,
                  unique=True).map(sorted)

_PATH_INPUTS = st.one_of(
    st.lists(_ELEMENTS, max_size=6),
    _VALID,
    _VALID.map(lambda values: values + values[-1:]),   # a duplicate
    _VALID.map(lambda values: values[::-1]),           # unsorted
    _VALID.map(lambda values: [Slot.ONE if value == 1 else value
                               for value in values]),
)


def path_outcome(cls, values, as_tuple):
    """The verdict on ``values``; an accepted path's positions come with
    their types, so an ``IntEnum`` member must be kept as it is."""
    def build():
        indices = cls(tuple(values) if as_tuple else list(values)).indices
        return indices, tuple(map(type, indices))
    return outcome(build)


class TestPathValidation:
    @settings(max_examples=600, deadline=None)
    @given(values=_PATH_INPUTS, as_tuple=st.booleans())
    @example(values=[], as_tuple=True)
    @example(values=[True], as_tuple=True)
    @example(values=[0, False], as_tuple=True)
    @example(values=[-1], as_tuple=True)
    @example(values=[2, -1], as_tuple=True)
    @example(values=[1, 1], as_tuple=True)
    @example(values=[3, 1, 2], as_tuple=False)
    @example(values=[Slot.ZERO, Slot.FIVE], as_tuple=True)
    @example(values=[Slot.FIVE, 2], as_tuple=True)
    @example(values=[0, 1.0], as_tuple=True)
    def test_same_verdict_and_message(self, values, as_tuple):
        assert (path_outcome(Path, values, as_tuple)
                == path_outcome(ReferencePath, values, as_tuple))

    @settings(max_examples=300, deadline=None)
    @given(left=_VALID, right=_VALID)
    @example(left=[0, 3], right=[1, 3])
    @example(left=[0, 2, 4], right=[1, 3])
    def test_merge_same_result_and_message(self, left, right):
        assert (outcome(lambda: Path(left).merge(Path(right)).indices)
                == outcome(lambda: ReferencePath(left).merge(
                    ReferencePath(right)).indices))


@st.composite
def cover_inputs(draw):
    """``(groups, n_accesses)``: a partition of ``0 .. n-1``, often
    broken by an overlap, a gap, an out-of-range position (added, or in
    place of one in range) or a wrong ``n_accesses``."""
    n = draw(st.integers(0, 10))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    groups = [list(order[start:end]) for start, end
              in zip([0, *cuts], [*cuts, n]) if end > start]
    fault = draw(st.sampled_from(
        ["none", "none", "overlap", "gap", "out_of_range",
         "moved_out_of_range", "n_accesses", "int_enum"]))
    if fault == "overlap" and groups:
        position = draw(st.sampled_from(order))
        groups.append([position])
    elif fault == "gap" and groups:
        group = draw(st.sampled_from(groups))
        group.remove(draw(st.sampled_from(group)))
        groups = [group for group in groups if group]
    elif fault == "out_of_range":
        groups.append([n + draw(st.integers(0, 3))])
    elif fault == "moved_out_of_range" and groups:
        # As many positions as accesses, all distinct: only the range
        # check tells this from a partition.
        group = draw(st.sampled_from(groups))
        group.remove(draw(st.sampled_from(group)))
        group.append(n + draw(st.integers(0, 3)))
    elif fault == "n_accesses":
        n += draw(st.sampled_from([-2, -1, 1, 2]))
    elif fault == "int_enum":
        groups = [[Slot(position) if position in (0, 1, 5) else position
                   for position in group] for group in groups]
    return [sorted(group) for group in groups], n


def cover_outcome(path_cls, cover_cls, groups, n_accesses):
    return outcome(lambda: tuple(
        path.indices for path in cover_cls(
            tuple(path_cls(tuple(group)) for group in groups),
            n_accesses).paths))


class TestCoverValidation:
    @settings(max_examples=600, deadline=None)
    @given(case=cover_inputs())
    @example(case=([[0, 2], [1]], 3))
    @example(case=([[0, 2], [1, 2]], 3))
    @example(case=([[0], [2]], 3))
    @example(case=([[0, 1, 2, 3]], 3))
    @example(case=([[0, 1], [3]], 3))
    @example(case=([], 0))
    @example(case=([], -1))
    @example(case=([[0]], 0))
    @example(case=([[Slot.ZERO, 2], [Slot.ONE]], 3))
    @example(case=([[Slot.ONE], [1]], 2))
    def test_same_verdict_and_message(self, case):
        groups, n_accesses = case
        assert (cover_outcome(Path, PathCover, groups, n_accesses)
                == cover_outcome(ReferencePath, ReferencePathCover,
                                 groups, n_accesses))
