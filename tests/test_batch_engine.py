"""Tests of batch jobs, the engine's fan-out, and its reports."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.agu.model import AguSpec
from repro.analysis.points import experiment_point_jobs, get_experiment
from repro.analysis.reports import to_jsonable
from repro.batch.cache import InMemoryLRUCache
from repro.batch.digest import job_digest
from repro.batch.engine import (
    BatchCompiler,
    BatchReport,
    InlineExecutor,
    LocalPoolExecutor,
    execute_job,
    open_executor,
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


class TestSpecParsing:
    def test_open_executor_inline(self):
        assert isinstance(open_executor("inline"), InlineExecutor)

    def test_open_executor_local_pool(self):
        executor = open_executor("local:3")
        assert isinstance(executor, LocalPoolExecutor)
        assert executor.n_workers == 3

    def test_open_executor_local_defaults_to_cpu_count(self):
        executor = open_executor("local")
        assert executor.n_workers == (os.cpu_count() or 1)

    def test_tcp_is_an_unknown_executor_scheme(self):
        """Jobs run inline or on a local pool; a ``tcp://`` spec is
        rejected like any other unknown scheme, naming the known
        ones."""
        with pytest.raises(BatchError) as caught:
            open_executor("tcp://127.0.0.1:8742")
        message = str(caught.value)
        assert "unknown executor scheme 'tcp'" in message
        assert "known schemes: inline, local" in message

    def test_instances_pass_through(self):
        executor = InlineExecutor()
        assert open_executor(executor) is executor

    @pytest.mark.parametrize("spec", [
        "pool", "local:x", "local:0", "redis://h:1", "tcp://nope",
        "tcp://h:1/path", "tcp://127.0.0.1:1?bogus=1",
        "tcp://127.0.0.1:1?timeout=x",
    ])
    def test_bad_specs_fail_loudly(self, spec):
        with pytest.raises(BatchError):
            open_executor(spec)

    @pytest.mark.parametrize("spec, message", [
        ("local:0", "executor spec 'local:0' needs a worker count >= 1"),
        ("local:-2", "executor spec 'local:-2' needs a worker count >= 1"),
        ("4", "did you mean 'local:4'"),
    ])
    def test_bad_spec_errors_name_the_spec(self, spec, message):
        """Errors quote what the caller typed; a bare worker count
        points at the ``local:N`` spelling."""
        with pytest.raises(BatchError) as caught:
            open_executor(spec)
        assert message in str(caught.value)
        assert "n_workers" not in str(caught.value)

    def test_compiler_accepts_spec_strings(self):
        report = BatchCompiler(executor="inline").compile(
            jobs_from_suite("full", SPEC, n_iterations=4)[:2])
        assert report.n_jobs == 2


class TestBatchCompiler:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(BatchError):
            BatchCompiler(executor="local:0")

    def test_compile_a_named_suite(self):
        report = BatchCompiler().compile(
            jobs_from_suite("core8", SPEC, n_iterations=4))
        assert report.n_jobs == len(SUITES["core8"])
        assert report.all_audits_ok

    def test_parallel_equals_inline(self):
        """Differential: the process pool changes wall time only."""
        jobs = jobs_from_suite("core8", SPEC, n_iterations=4)
        inline = BatchCompiler().compile(jobs)
        pooled = BatchCompiler(executor="local:2").compile(jobs)
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
        for _step in BatchCompiler().as_completed(library_matrix):
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


@pytest.fixture
def digest_calls(monkeypatch):
    """Every job digested through the batch layer, in call order."""
    calls = []

    def counting_digest(job):
        calls.append(job)
        return job_digest(job)

    for module in ("repro.batch.engine", "repro.batch.jobs"):
        monkeypatch.setattr(f"{module}.job_digest", counting_digest)
    return calls


class TestDigestOnce:
    """The engine's scan digests each job once; execution reuses it."""

    def test_a_library_sweep_digests_each_job_once(
            self, library_matrix, digest_calls):
        report = BatchCompiler().compile(library_matrix)
        assert digest_calls == library_matrix
        assert [result.digest for result in report.results] \
            == [job_digest(job) for job in library_matrix]

    def test_experiment_points_digest_once(self, digest_calls):
        jobs = experiment_point_jobs(
            "pathcover", get_experiment("pathcover").quick_config())
        report = BatchCompiler().compile(jobs)
        assert digest_calls == jobs
        assert [result.digest for result in report.results] \
            == [job_digest(job) for job in jobs]

    def test_the_digest_travels_through_the_pool(self, library_matrix):
        dispatched = []

        class Recording(LocalPoolExecutor):
            def run(self, jobs):
                dispatched.extend(jobs)
                return super().run(jobs)

        jobs = library_matrix[:6]
        report = BatchCompiler(executor=Recording(2)).compile(jobs)
        assert [job.digest for job in dispatched] \
            == [job_digest(job) for job in jobs]
        assert [result.digest for result in report.results] \
            == [job_digest(job) for job in jobs]
        # The caller's jobs are not touched, and a carried digest is
        # not an input: it stays out of equality and ``replace``.
        assert all(job.digest is None for job in jobs)
        assert dispatched == jobs
        assert dataclasses.replace(dispatched[0]).digest is None

    def test_direct_execution_digests_itself(self, digest_calls):
        job = BatchJob(name="fir8", spec=SPEC,
                       source=KERNELS["fir8"].source)
        assert execute_job(job).digest == job_digest(job)
        assert digest_calls == [job]


class TestOneDeliveryPath:
    def test_compile_equals_collected_as_completed(self, library_matrix):
        """``compile()`` is ``as_completed()`` collected into job order:
        same payloads and provenance, with a pre-warmed third of the
        library and a twin of a cold job in the batch."""
        jobs = [*library_matrix,
                dataclasses.replace(library_matrix[5], name="twin")]
        warm = library_matrix[::3]

        def warmed() -> BatchCompiler:
            compiler = BatchCompiler(cache=InMemoryLRUCache())
            compiler.compile(warm)
            return compiler

        report = warmed().compile(jobs)
        streamed = [None] * len(jobs)
        for index, result in warmed().as_completed(jobs):
            assert streamed[index] is None
            streamed[index] = result
        assert [without_timing(result) for result in report.results] \
            == [without_timing(result) for result in streamed]
        assert [result.from_cache for result in report.results] \
            == [result.from_cache for result in streamed]
        assert report.n_cache_hits == len(warm) + 1  # + the twin
        assert report.result("twin").from_cache

    def test_an_in_batch_duplicate_point_keeps_its_own_index(self):
        """A duplicate slot is built as a cache hit is: its display
        metadata (name, a point's index) comes from its own job."""
        config = dataclasses.replace(
            get_experiment("kernels").quick_config(),
            kernel_names=("fir8", "saxpy", "fir8"))
        jobs = experiment_point_jobs("kernels", config)
        assert job_digest(jobs[0]) == job_digest(jobs[2])
        report = BatchCompiler().compile(jobs)
        assert [result.index for result in report.results] == [0, 1, 2]
        assert [result.from_cache for result in report.results] \
            == [False, False, True]
        assert report.results[2].payload() == report.results[0].payload()

    def test_a_warm_duplicate_point_is_a_detached_hit(self):
        """In the cache scan, a later slot with a digest already served
        is rebuilt from the first slot's result: equal, with its own
        index, and sharing no container with the first."""
        config = dataclasses.replace(
            get_experiment("kernels").quick_config(),
            kernel_names=("fir8", "saxpy", "fir8"))
        jobs = experiment_point_jobs("kernels", config)
        compiler = BatchCompiler()
        compiler.compile(jobs)
        report = compiler.compile(jobs)
        first, _, twin = report.results
        assert [result.from_cache for result in report.results] \
            == [True, True, True]
        assert (first.index, twin.index) == (0, 2)
        assert twin.payload() == first.payload()
        assert twin.values is not first.values


class TestBatchReport:
    @pytest.fixture(scope="class")
    def report(self) -> BatchReport:
        return BatchCompiler().compile(
            jobs_from_suite("core8", SPEC, n_iterations=4))

    def test_aggregates(self, report):
        assert report.n_jobs == 8
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
        assert report.all_audits_ok
