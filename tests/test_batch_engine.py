"""Tests of batch jobs, the engine's fan-out, and its reports."""

from __future__ import annotations

import json

import pytest

from repro.agu.model import AguSpec
from repro.analysis.reports import to_jsonable
from repro.batch.cache import InMemoryLRUCache
from repro.batch.digest import job_digest
from repro.batch.engine import (
    BatchCompiler,
    BatchReport,
    LocalPoolExecutor,
    execute_job,
)
from repro.batch.jobs import (
    BatchJob,
    job_matrix,
    jobs_from_kernels,
    jobs_from_random,
    jobs_from_suite,
    parse_scope,
)
from repro.core.config import AllocatorConfig
from repro.core.pipeline import compile_kernel
from repro.errors import BatchError, ParseError, WorkloadError
from repro.ir.builder import pattern_from_offsets
from repro.ir.parser import parse_kernel
from repro.workloads.kernels import KERNELS
from repro.workloads.random_patterns import RandomPatternConfig
from repro.workloads.suite import SUITES

SPEC = AguSpec(4, 1)


class TestBatchJob:
    def test_needs_exactly_one_input(self):
        with pytest.raises(BatchError):
            BatchJob(name="none", spec=SPEC)
        with pytest.raises(BatchError):
            BatchJob(name="both", spec=SPEC, source="for",
                     pattern=pattern_from_offsets((1,)))

    def test_rejects_non_positive_iterations(self):
        with pytest.raises(BatchError):
            BatchJob(name="bad", spec=SPEC, source="x", n_iterations=0)

    def test_pattern_job_wraps_into_a_simulatable_kernel(self):
        pattern = pattern_from_offsets((1, 0, -3, 2))
        job = BatchJob(name="wrapped", spec=SPEC, pattern=pattern)
        kernel = job.kernel()
        assert kernel.pattern == pattern
        # Start is pushed up so no negative element is touched.
        assert kernel.loop.start == 3
        assert {decl.name for decl in kernel.arrays} == {"A"}

    def test_pattern_job_executes_with_simulation(self):
        job = BatchJob(name="p", spec=AguSpec(2, 1),
                       pattern=pattern_from_offsets((1, 0, 2, -1, 1, 0, -2)),
                       n_iterations=8)
        result = execute_job(job)
        assert result.simulated and result.audit_ok
        assert result.n_accesses == 7
        assert result.total_cost == 2  # the paper's K=2 example


class TestJobFactories:
    def test_suite_jobs_cover_the_suite_in_order(self):
        jobs = jobs_from_suite("core8", SPEC)
        assert tuple(job.name for job in jobs) == SUITES["core8"]
        assert all(job.source is not None for job in jobs)

    def test_unknown_suite_and_kernel_are_rejected(self):
        with pytest.raises(WorkloadError):
            jobs_from_suite("nope", SPEC)
        with pytest.raises(WorkloadError):
            jobs_from_kernels(["nope"], SPEC)

    def test_random_jobs_are_reproducible(self):
        config = RandomPatternConfig(10, offset_span=5)
        first = jobs_from_random(config, 4, SPEC, seed=7)
        second = jobs_from_random(config, 4, SPEC, seed=7)
        assert len(first) == 4
        assert [job.pattern for job in first] \
            == [job.pattern for job in second]
        assert first[0].name == "uniform-n10-seed7-0"
        other = jobs_from_random(config, 4, SPEC, seed=8)
        assert [job.pattern for job in first] \
            != [job.pattern for job in other]

    def test_matrix_crosses_specs_and_configs(self):
        base = jobs_from_kernels(["fir8"], SPEC)
        specs = [AguSpec(2, 1), AguSpec(4, 2)]
        configs = [None, AllocatorConfig(exact_cover_limit=8)]
        matrix = job_matrix(base, specs, configs)
        assert len(matrix) == 4
        assert [job.name for job in matrix] == [
            "fir8@K2M1/c0", "fir8@K2M1/c1",
            "fir8@K4M2/c0", "fir8@K4M2/c1",
        ]
        with pytest.raises(BatchError):
            job_matrix(base, [])
        with pytest.raises(BatchError):
            job_matrix(base, specs, [])


class TestBatchCompiler:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(BatchError):
            BatchCompiler(n_workers=0)

    def test_compile_suite_shorthand(self):
        report = BatchCompiler().compile_suite("core8", SPEC,
                                               n_iterations=4)
        assert report.n_jobs == len(SUITES["core8"])
        assert report.all_audits_ok

    def test_parallel_equals_inline(self):
        """Differential: the process pool changes wall time only."""
        jobs = jobs_from_suite("core8", SPEC, n_iterations=4)
        inline = BatchCompiler(n_workers=1).compile(jobs)
        pooled = BatchCompiler(n_workers=2).compile(jobs)
        assert pooled.n_workers == 2
        for lhs, rhs in zip(inline.results, pooled.results):
            assert lhs.name == rhs.name
            assert lhs.total_cost == rhs.total_cost
            assert lhs.k_tilde == rhs.k_tilde
            assert lhs.n_registers_used == rhs.n_registers_used

    def test_matrix_batch_over_random_patterns(self):
        jobs = job_matrix(
            jobs_from_random(RandomPatternConfig(10, offset_span=5), 3,
                             SPEC, seed=1),
            [AguSpec(2, 1), AguSpec(4, 1)])
        report = BatchCompiler().compile(jobs)
        assert report.n_jobs == 6
        # More registers can never cost more on the same pattern.
        for tight, rich in zip(report.results[0::2],
                               report.results[1::2]):
            assert rich.total_cost <= tight.total_cost


#: The library workload's spec grid.
LIBRARY_SPECS = [AguSpec(2, 1), AguSpec(2, 2), AguSpec(4, 1), AguSpec(4, 2)]

#: A source with a syntax error.
BROKEN = "for (i = 0; i < 8; i++) { A[i] = ; }"


@pytest.fixture(scope="module")
def library_matrix() -> list[BatchJob]:
    return job_matrix(jobs_from_kernels(sorted(KERNELS), SPEC,
                                        n_iterations=4), LIBRARY_SPECS)


def without_timing(result) -> dict:
    payload = result.payload()
    del payload["wall_seconds"]
    return payload


class TestParseScope:
    """A batch parses each distinct source once, and nothing more."""

    def test_a_library_sweep_parses_each_source_once(
            self, library_matrix, parse_calls):
        report = BatchCompiler().compile(library_matrix)
        assert report.n_compiled == len(KERNELS) * len(LIBRARY_SPECS)
        assert sorted(parse_calls) == sorted(
            entry.source for entry in KERNELS.values())

    def test_the_scope_does_not_outlive_the_batch(
            self, library_matrix, parse_calls):
        BatchCompiler().compile(library_matrix)
        BatchCompiler(cache=InMemoryLRUCache()).compile(library_matrix)
        assert len(parse_calls) == 2 * len(KERNELS)

    def test_streaming_parses_once_and_keeps_the_scope_to_itself(
            self, library_matrix, parse_calls):
        seen = 0
        for _result in BatchCompiler().run_iter(library_matrix):
            # The consumer's code between results runs outside the
            # batch's scope: this parse is not served from it.
            library_matrix[0].kernel()
            seen += 1
        assert seen == len(library_matrix)
        assert len(parse_calls) == len(KERNELS) + seen

    def test_payloads_and_listings_match_per_job_parsing(
            self, library_matrix):
        scoped = BatchCompiler().compile(library_matrix)
        for job, result in zip(library_matrix, scoped.results):
            assert result.name == job.name
            assert without_timing(result) == without_timing(
                execute_job(job))
        with parse_scope():
            kernels = [job.kernel() for job in library_matrix]
        for job, kernel in zip(library_matrix, kernels):
            assert kernel == parse_kernel(job.source, name=job.name)
            assert compile_kernel(kernel, job.spec).listing \
                == compile_kernel(job.source, job.spec,
                                  name=job.name).listing

    def test_a_shared_syntax_error_fails_with_the_culprits_digest(
            self, parse_calls):
        first, second = job_matrix(
            [BatchJob(name="broken", spec=SPEC, source=BROKEN)],
            [AguSpec(2, 1), AguSpec(4, 1)])
        compiler = BatchCompiler()
        with pytest.raises(BatchError) as info:
            compiler.compile([first, second])
        assert info.value.digest == job_digest(first)
        assert isinstance(info.value.__cause__, ParseError)
        # Never memoised: the other job still raises, on its own.
        with pytest.raises(BatchError) as info:
            compiler.compile([second])
        assert info.value.digest == job_digest(second)
        assert parse_calls == [BROKEN, BROKEN]

    def test_parse_errors_are_not_remembered_inside_a_scope(
            self, parse_calls):
        job = BatchJob(name="broken", spec=SPEC, source=BROKEN)
        with parse_scope() as kernels:
            for _attempt in range(2):
                with pytest.raises(ParseError):
                    job.kernel()
        assert kernels == {}
        assert parse_calls == [BROKEN, BROKEN]

    def test_scopes_nest_and_take_seeds(self, parse_calls):
        source = KERNELS["fir8"].source
        seed = parse_kernel(source, name="seed")
        job = BatchJob(name="fir8@K4M1", spec=SPEC, source=source)
        with parse_scope({source: seed}) as outer:
            with parse_scope() as inner:
                assert inner is outer
                kernel = job.kernel()
        assert parse_calls == []
        assert kernel.name == job.name
        assert kernel.loop is seed.loop
        job.kernel()  # closed: parses afresh
        assert parse_calls == [source]

    def test_a_process_pool_batch_is_bit_identical(self, library_matrix):
        inline = BatchCompiler().compile(library_matrix)
        pooled = BatchCompiler(executor=LocalPoolExecutor(2)).compile(
            library_matrix)
        assert [without_timing(result) for result in pooled.results] \
            == [without_timing(result) for result in inline.results]


class TestBatchReport:
    @pytest.fixture(scope="class")
    def report(self) -> BatchReport:
        return BatchCompiler().compile_suite("core8", SPEC,
                                             n_iterations=4)

    def test_aggregates(self, report):
        assert report.n_jobs == 8
        assert report.total_accesses \
            == sum(r.n_accesses for r in report.results)
        assert report.mean_overhead_per_iteration == pytest.approx(
            sum(r.overhead_per_iteration for r in report.results) / 8)
        assert report.jobs_per_second > 0
        assert report.elapsed_seconds > 0

    def test_render_and_summary(self, report):
        text = report.render()
        for result in report.results:
            assert result.name in text
        summary = report.summary()
        assert "8 job(s)" in summary
        assert "cache hit(s)" in summary

    def test_lookup_by_name(self, report):
        assert report.result("fir8").n_accesses == 17
        with pytest.raises(BatchError):
            report.result("nope")

    def test_report_is_json_able(self, report):
        payload = json.dumps(to_jsonable(report))
        assert "fir8" in payload

    def test_empty_batch(self):
        report = BatchCompiler().compile([])
        assert report.n_jobs == 0
        assert report.mean_overhead_per_iteration == 0.0
        assert report.all_audits_ok
