"""Corpus audit: the whole kernel library through the batch engine.

Extends the single-kernel audit (``tests/test_integration.py``) to the
entire ``full`` suite: every kernel is compiled by
:class:`~repro.batch.engine.BatchCompiler` with the simulator on, and
the simulator's dynamic cost must equal the modelled cost for each.
Also locks down the engine's headline guarantee: a second run of the
same suite is served entirely from the cache -- zero recompilations.
"""

from __future__ import annotations

import pytest

from repro.agu.model import AguSpec
from repro.batch.engine import BatchCompiler
from repro.batch.jobs import jobs_from_suite
from repro.core.pipeline import compile_kernel
from repro.workloads.kernels import KERNELS
from repro.workloads.suite import SUITES


@pytest.fixture(scope="module")
def full_suite_runs():
    """The full suite compiled twice on one compiler, >= 2 workers."""
    compiler = BatchCompiler(executor="local:2")
    jobs = jobs_from_suite("full", AguSpec(4, 1), n_iterations=4)
    first = compiler.compile(jobs)
    second = compiler.compile(jobs)
    return jobs, first, second


class TestFullSuiteAudit:
    def test_every_kernel_audits_clean(self, full_suite_runs):
        """Dynamic (simulated) cost == modelled cost, kernel by kernel."""
        _jobs, first, _second = full_suite_runs
        assert first.n_jobs == len(SUITES["full"]) == len(KERNELS)
        for result in first.results:
            assert result.simulated, result.name
            assert result.audit_ok, result.name

    def test_results_arrive_in_suite_order(self, full_suite_runs):
        _jobs, first, _second = full_suite_runs
        assert tuple(result.name for result in first.results) \
            == SUITES["full"]

    def test_parallel_run_matches_direct_compilation(self, full_suite_runs):
        """The pooled engine reports exactly what compile_kernel says."""
        _jobs, first, _second = full_suite_runs
        spec = AguSpec(4, 1)
        for result in first.results:
            artifacts = compile_kernel(KERNELS[result.name].kernel(),
                                       spec, n_iterations=4)
            assert result.total_cost == \
                artifacts.allocation.total_cost, result.name
            assert result.k_tilde == \
                artifacts.allocation.k_tilde, result.name
            assert result.n_registers_used == \
                artifacts.allocation.n_registers_used, result.name

    def test_second_run_is_fully_cached(self, full_suite_runs):
        """Acceptance: cache hits == kernel count, zero recompiles."""
        jobs, first, second = full_suite_runs
        assert first.n_cache_hits == 0
        assert first.n_compiled == len(jobs)
        assert second.n_cache_hits == len(jobs) == len(KERNELS)
        assert second.n_compiled == 0
        # Cached summaries are byte-for-byte the compiled ones.
        for fresh, cached in zip(first.results, second.results):
            assert cached.from_cache and not fresh.from_cache
            assert fresh.payload() == cached.payload()

    def test_audit_holds_across_specs(self):
        """A tighter AGU (more merging) still audits clean, batched."""
        report = BatchCompiler().compile(jobs_from_suite(
            "core8", AguSpec(2, 1), n_iterations=4))
        assert report.all_audits_ok
        assert all(result.n_registers_used <= 2
                   for result in report.results)
