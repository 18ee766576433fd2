"""The batch-scoped phase-1 memo (``branch_and_bound.cover_scope``).

A group's search reads only its step, coefficient and offsets, ``M``
and the node budget.  Inside a cover scope each distinct
group is solved once and every later pattern with it maps the stored
local cover back to its own positions.  These tests pin that:

* results are equal with the scope on and off, over the kernel library
  under the library workload's specs and over the differential corpus;
* groups that differ only in what the search does not read (array
  names, the loop variable's name, labels, ``is_write``) share one
  entry, and groups that differ in anything it reads do not;
* the lifecycle follows ``parse_scope``: a raising group is never
  remembered, a second batch solves again, scopes nest, and a forked
  child starts outside any scope.
"""

from __future__ import annotations

import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.pathcover.branch_and_bound as branch_and_bound
from repro.agu.model import AguSpec
from repro.batch.engine import BatchCompiler
from repro.batch.jobs import BatchJob, job_matrix, jobs_from_kernels
from repro.errors import InfeasibleZeroCostCover, SearchBudgetExceeded
from repro.ir.builder import pattern_from_offsets
from repro.ir.expr import AffineExpr
from repro.ir.parser import parse_kernel
from repro.ir.types import AccessPattern, ArrayAccess
from repro.pathcover.branch_and_bound import (
    cover_scope,
    minimum_zero_cost_cover,
)
from repro.workloads.kernels import KERNELS

from test_differential_solvers import CORPUS_SEEDS, corpus_pattern

#: The library workload's spec grid.
LIBRARY_SPECS = [AguSpec(2, 1), AguSpec(2, 2), AguSpec(4, 1), AguSpec(4, 2)]


def open_scope():
    """The memo of the cover scope open on this context, or ``None``."""
    return branch_and_bound._COVER_SCOPE.get()


@pytest.fixture
def searches(monkeypatch):
    """Every group search that ran, as its sub-pattern's offsets."""
    calls = []
    search = branch_and_bound._search_group

    def counting_search(pattern, modify_range, node_budget):
        calls.append(pattern.offsets())
        return search(pattern, modify_range, node_budget)

    monkeypatch.setattr(branch_and_bound, "_search_group", counting_search)
    return calls


def solve_or_error(pattern: AccessPattern, modify_range: int,
                   node_budget: int = branch_and_bound.DEFAULT_NODE_BUDGET):
    """The search's outcome, or the type of the error it raised."""
    try:
        return minimum_zero_cost_cover(pattern, modify_range, node_budget)
    except (InfeasibleZeroCostCover, SearchBudgetExceeded) as error:
        return type(error)


class TestScopeOnEqualsOff:
    def test_library_kernels_under_every_library_spec(self):
        cases = [(parse_kernel(entry.source).loop.pattern,
                  spec.modify_range)
                 for spec in LIBRARY_SPECS for entry in KERNELS.values()]
        unscoped = [solve_or_error(*case) for case in cases]
        with cover_scope() as memo:
            scoped = [solve_or_error(*case) for case in cases]
        assert scoped == unscoped
        # K does not enter the key, and kernels share groups.
        assert len(memo) < sum(len(pattern.group_keys())
                               for pattern, _m in cases) / 2

    @pytest.mark.parametrize("modify_range", [1, 2])
    def test_the_differential_corpus(self, modify_range):
        patterns = [corpus_pattern(seed) for seed in CORPUS_SEEDS]
        unscoped = [minimum_zero_cost_cover(pattern, modify_range)
                    for pattern in patterns]
        with cover_scope():
            scoped = [minimum_zero_cost_cover(pattern, modify_range)
                      for pattern in patterns]
            # Every group again, now all served from the memo.
            again = [minimum_zero_cost_cover(pattern, modify_range)
                     for pattern in patterns]
        assert scoped == unscoped
        assert again == unscoped


# ----------------------------------------------------------------------
# What the key holds
# ----------------------------------------------------------------------
def group_pattern(offsets, var="i", *, coefficient=1, step=1,
                  array="x", labelled=False, writes=()) -> AccessPattern:
    """One (array, coefficient) group indexed with loop variable
    ``var``; ``writes`` marks written positions."""
    return AccessPattern(tuple(
        ArrayAccess(array, AffineExpr(coefficient, offset, var),
                    is_write=position in writes,
                    label=f"{array}{position}" if labelled else None)
        for position, offset in enumerate(offsets)),
        step=step, loop_var=var)


def interleaved(group: AccessPattern, filler: int) -> AccessPattern:
    """``group`` with ``filler`` accesses to another array in front of
    and between its accesses, so its global positions move.  The filler
    is a constant element, so it always has a zero-cost cover, and it
    lies outside every generated offset, so its key never meets
    theirs."""
    accesses = []
    for access in group:
        accesses.extend(ArrayAccess("z", AffineExpr(0, 9))
                        for _ in range(filler))
        accesses.append(access)
    return AccessPattern(tuple(accesses), step=group.step,
                         loop_var=group.loop_var)


groups = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    st.sampled_from("ij"),
    st.sampled_from([0, 1, 2]),
    st.sampled_from([1, 2, -1]),
    st.integers(0, 2)))


class TestTheKey:
    @settings(max_examples=120, deadline=None)
    @given(groups, st.integers(1, 3), st.sets(st.integers(0, 6)))
    def test_names_labels_and_writes_share_one_entry(self, group, filler,
                                                     writes):
        offsets, var, coefficient, step, modify_range = group
        plain = group_pattern(offsets, var, coefficient=coefficient,
                              step=step)
        # Another array, another loop variable name, labels and writes.
        renamed = interleaved(group_pattern(
            offsets, "k", coefficient=coefficient, step=step,
            array="y", labelled=True, writes=writes), filler)
        expected = [solve_or_error(pattern, modify_range)
                    for pattern in (plain, renamed)]
        with cover_scope() as memo:
            first = solve_or_error(plain, modify_range)
            entries = len(memo)
            second = solve_or_error(renamed, modify_range)
        assert [first, second] == expected
        if isinstance(first, type):
            assert entries == 0
            return
        # The renamed group is a hit; only the filler group is new.
        assert (entries, len(memo)) == (1, 2)
        # The shared entry maps back to each pattern's own positions.
        local = {position: index for index, position in enumerate(
            position for position, access in enumerate(renamed)
            if access.array == "y")}
        assert [tuple(local[position] for position in path.indices)
                for path in second.cover if path.first in local] \
            == [path.indices for path in first.cover]

    @settings(max_examples=80, deadline=None)
    @given(groups, st.sampled_from(
        ["step", "coefficient", "modify_range", "budget"]))
    def test_anything_the_search_reads_splits_entries(self, group, change):
        offsets, var, coefficient, step, modify_range = group
        budget = branch_and_bound.DEFAULT_NODE_BUDGET
        base = group_pattern(offsets, var, coefficient=coefficient,
                             step=step)
        variant, variant_m, variant_budget = base, modify_range, budget
        if change == "step":
            variant = group_pattern(offsets, var,
                                    coefficient=coefficient, step=step + 3)
        elif change == "coefficient":
            variant = group_pattern(offsets, var,
                                    coefficient=coefficient + 1, step=step)
        elif change == "modify_range":
            variant_m = modify_range + 1
        else:
            variant_budget = budget - 1
        with cover_scope() as memo:
            base_outcome = solve_or_error(base, modify_range, budget)
            entries = len(memo)
            variant_outcome = solve_or_error(variant, variant_m,
                                             variant_budget)
            assert len(memo) == entries + (
                not isinstance(variant_outcome, type))
        assert base_outcome == solve_or_error(base, modify_range, budget)
        assert variant_outcome == solve_or_error(variant, variant_m,
                                                 variant_budget)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
#: A group no zero-cost cover exists for at M=1: each access moves by
#: the step 3 per iteration, and the two are too far apart to chain.
INFEASIBLE = pattern_from_offsets([0, 5], step=3)


class TestLifecycle:
    def test_an_infeasible_group_raises_every_time(self, searches):
        with cover_scope() as memo:
            for _attempt in range(2):
                with pytest.raises(InfeasibleZeroCostCover):
                    minimum_zero_cost_cover(INFEASIBLE, 1)
        assert memo == {}
        assert len(searches) == 2

    def test_an_exhausted_budget_is_not_remembered(self, monkeypatch):
        attempts = []

        def exhausted(pattern, modify_range, node_budget):
            attempts.append(pattern)
            raise SearchBudgetExceeded("no cover within the budget")

        monkeypatch.setattr(branch_and_bound, "_search_group", exhausted)
        pattern = pattern_from_offsets([0, 1, 2])
        with cover_scope() as memo:
            for _attempt in range(2):
                with pytest.raises(SearchBudgetExceeded):
                    minimum_zero_cost_cover(pattern, 1)
        assert memo == {}
        assert len(attempts) == 2

    def test_an_infeasible_group_falls_back_in_every_job(self, searches):
        jobs = job_matrix(
            [BatchJob(name="far", spec=AguSpec(2, 1), pattern=INFEASIBLE)],
            [AguSpec(1, 1), AguSpec(2, 1)])
        report = BatchCompiler().compile(jobs)
        assert [result.k_tilde for result in report.results] == [None, None]
        assert len(searches) == 2

    def test_a_batch_solves_each_distinct_group_once(self, searches):
        jobs = job_matrix(jobs_from_kernels(["fir8", "fir16"],
                                            AguSpec(2, 1), n_iterations=4),
                          [AguSpec(2, 1), AguSpec(4, 1)])
        BatchCompiler().compile(jobs)
        distinct = len(searches)
        assert distinct < sum(
            len(job.kernel().pattern.group_keys()) for job in jobs)
        # The scope closed with the batch: a second one solves again.
        BatchCompiler().compile(jobs)
        assert len(searches) == 2 * distinct

    def test_scopes_nest_and_take_seeds(self, searches):
        pattern = pattern_from_offsets([1, 0, 2, -1, 1, 0, -2])
        with cover_scope() as seeded:
            expected = minimum_zero_cost_cover(pattern, 1)
        with cover_scope() as outer:
            with cover_scope(seeded) as inner:
                assert inner is outer
                assert minimum_zero_cost_cover(pattern, 1) == expected
        assert len(searches) == 1
        assert open_scope() is None
        minimum_zero_cost_cover(pattern, 1)  # closed: solves afresh
        assert len(searches) == 2

    def test_streaming_keeps_the_scope_to_the_batch(self):
        jobs = jobs_from_kernels(["fir8", "saxpy"], AguSpec(2, 1),
                                 n_iterations=4)
        seen = 0
        for _step in BatchCompiler().as_completed(jobs):
            assert open_scope() is None
            seen += 1
        assert seen == len(jobs)

    def test_a_forked_child_starts_outside_any_scope(self):
        read, write = os.pipe()
        with cover_scope():
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                os.write(write, b"1" if open_scope() is None else b"0")
                os._exit(0)
            assert open_scope() is not None
        os.close(write)
        _, status = os.waitpid(pid, 0)
        assert os.read(read, 1) == b"1"
        os.close(read)
        assert os.waitstatus_to_exitcode(status) == 0
