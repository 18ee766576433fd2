"""The engine's contract, whatever executes its cache misses.

`BatchCompiler` owns digests, dedup, caching, salvage and failure
attribution; an executor only decides where a miss runs.  So every
case here runs against each backend a caller can name: the ``inline``
spec, the ``local:2`` spec, and a caller-owned `LocalPoolExecutor`
instance (which the engine uses without opening or closing it).  The
results, the cache they persist into, the trace they leave and the
statistical summary built from them must not depend on the choice.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

import pytest

from repro.agu.model import AguSpec
from repro.analysis.experiments import (
    quick_statistical_config,
    run_statistical_comparison,
)
from repro.batch.cache import InMemoryLRUCache, ShardedDirectoryCache
from repro.batch.digest import job_digest
from repro.batch.engine import BatchCompiler, LocalPoolExecutor
from repro.batch.jobs import BatchJob, JobResult, jobs_from_suite
from repro.batch.trace import analyze_trace, read_trace
from repro.errors import BatchError
from repro.ir.builder import pattern_from_offsets

SPEC = AguSpec(4, 1)

#: Backend name -> a factory for what ``BatchCompiler(executor=...)``
#: is given: two spec strings and one caller-owned instance.
EXECUTORS = {
    "inline": lambda: "inline",
    "local:2": lambda: "local:2",
    "pool-instance": lambda: LocalPoolExecutor(2),
}

backends = pytest.mark.parametrize("backend", sorted(EXECUTORS))


def suite_jobs(count: int = 6):
    return jobs_from_suite("full", SPEC, n_iterations=4)[:count]


def pattern_job(name: str, offsets) -> BatchJob:
    return BatchJob(name=name, spec=AguSpec(2, 1),
                    pattern=pattern_from_offsets(offsets),
                    run_simulation=False)


def result_key(results):
    return [(r.name, r.digest, r.total_cost, r.k_tilde,
             r.overhead_per_iteration) for r in results]


@dataclass(frozen=True)
class CountedCrashJob:
    """A job that records each execution in ``log`` and then raises."""

    name: str
    log: str
    digest: str | None = field(default=None, init=False, repr=False,
                               compare=False)

    result_type = JobResult

    def cache_key(self) -> dict:
        return {"v": 0, "counted-crash": self.name}

    def execute(self):
        with open(self.log, "a", encoding="utf-8") as stream:
            stream.write(f"{os.getpid()}\n")
        raise RuntimeError(f"injected crash in {self.name}")


@backends
class TestResults:
    def test_suite_matches_inline_bit_for_bit(self, backend):
        jobs = suite_jobs(6)
        inline = BatchCompiler().compile(jobs)
        report = BatchCompiler(
            executor=EXECUTORS[backend]()).compile(jobs)
        assert result_key(report.results) == result_key(inline.results)
        assert report.n_compiled == len(jobs)

    def test_duplicate_digests_compute_once(self, backend):
        job = pattern_job("dup", [0, 3, 1, 4])
        twin = pattern_job("dup-twin", [0, 3, 1, 4])
        compiler = BatchCompiler(executor=EXECUTORS[backend]())
        results = [result for _, result
                   in compiler.as_completed([job, twin])]
        assert {result.name for result in results} \
            == {"dup", "dup-twin"}
        assert sum(result.from_cache for result in results) == 1
        assert results[0].digest == results[1].digest

    def test_one_compiler_serves_consecutive_batches(self, backend):
        """The executor outlives a batch; the second batch reuses the
        compiler's cache for the jobs the first one computed."""
        compiler = BatchCompiler(executor=EXECUTORS[backend]())
        first = compiler.compile(suite_jobs(3))
        second = compiler.compile(suite_jobs(5))
        assert [(r.name, r.digest, r.total_cost)
                for r in second.results[:3]] \
            == [(r.name, r.digest, r.total_cost) for r in first.results]
        assert (second.n_cache_hits, second.n_compiled) == (3, 2)

    def test_an_empty_batch_executes_nothing(self, backend):
        report = BatchCompiler(
            executor=EXECUTORS[backend]()).compile([])
        assert report.n_jobs == 0
        assert report.results == ()


@backends
class TestPersistence:
    def test_streaming_persists_every_point(self, backend, tmp_path):
        jobs = suite_jobs(5)
        store = ShardedDirectoryCache(tmp_path / "store")
        compiler = BatchCompiler(cache=store,
                                 executor=EXECUTORS[backend]())
        delivered = dict(compiler.as_completed(jobs))
        assert sorted(delivered) == list(range(len(jobs)))
        assert len(store) == len(jobs)
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(jobs)
        assert resumed.n_cache_hits == len(jobs)

    def test_abandoned_stream_keeps_what_it_delivered(
            self, backend, tmp_path):
        """Breaking out of as_completed tears the batch down; what was
        delivered (or drained) is persisted and the re-run resumes."""
        jobs = suite_jobs(6)
        store = ShardedDirectoryCache(tmp_path / "store")
        compiler = BatchCompiler(cache=store,
                                 executor=EXECUTORS[backend]())
        for _index, _result in compiler.as_completed(jobs):
            break  # abandon after the first delivery
        stored = len(store)
        assert stored >= 1
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(jobs)
        assert resumed.n_cache_hits == stored
        assert result_key(resumed.results) \
            == result_key(BatchCompiler().compile(jobs).results)

    def test_a_warm_cache_executes_nothing(self, backend):
        jobs = suite_jobs(4)
        cache = InMemoryLRUCache()
        BatchCompiler(cache=cache).compile(jobs)
        report = BatchCompiler(
            cache=cache, executor=EXECUTORS[backend]()).compile(jobs)
        assert report.n_cache_hits == len(jobs)
        assert report.n_compiled == 0


@backends
class TestFailures:
    def test_a_failing_job_runs_exactly_once(self, backend, tmp_path):
        """A deterministic crash reaches the caller once; it is never
        retried, on any backend."""
        log = tmp_path / "runs.log"
        poison = CountedCrashJob(name="poison", log=str(log))
        with pytest.raises(BatchError) as caught:
            BatchCompiler(executor=EXECUTORS[backend]()).compile(
                [*suite_jobs(2), poison])
        assert caught.value.job_name == "poison"
        assert caught.value.digest == job_digest(poison)
        assert "injected crash in poison" in str(caught.value)
        assert len(log.read_text(encoding="utf-8").splitlines()) == 1

    def test_crash_names_job_and_digest_and_resumes(
            self, backend, tmp_path):
        survivors = suite_jobs(4)
        poison = CountedCrashJob(name="poison",
                                 log=str(tmp_path / "runs.log"))
        store = ShardedDirectoryCache(tmp_path / "store")
        compiler = BatchCompiler(cache=store,
                                 executor=EXECUTORS[backend]())
        with pytest.raises(BatchError) as caught:
            for _ in compiler.as_completed([*survivors, poison]):
                pass
        assert caught.value.job_name == "poison"
        assert "RuntimeError" in str(caught.value)
        stored = len(store)
        assert stored >= 1
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(survivors)
        assert resumed.n_cache_hits == stored
        assert result_key(resumed.results) \
            == result_key(BatchCompiler().compile(survivors).results)


@backends
class TestTraceAndGrid:
    def test_trace_counts_do_not_depend_on_the_backend(self, backend):
        """Two cold jobs, a duplicate and a pre-warmed job leave the
        same event counts wherever the misses ran."""
        cache = InMemoryLRUCache()
        BatchCompiler(cache=cache).compile(
            [pattern_job("warm", [0, 1, 2, 3, 4, 5])])
        jobs = [pattern_job("a", [1, 0, 2, -1, 1, 0, -2]),
                pattern_job("b", [2, 2, -1, 0, 5]),
                pattern_job("a-again", [1, 0, 2, -1, 1, 0, -2]),
                pattern_job("warm-too", [0, 1, 2, 3, 4, 5])]
        sink = io.StringIO()
        report = BatchCompiler(cache=cache, trace=sink,
                               executor=EXECUTORS[backend]()).compile(jobs)
        analyzed = analyze_trace(read_trace(io.StringIO(sink.getvalue())))
        assert (analyzed.n_jobs, analyzed.n_completed,
                analyzed.n_failed, analyzed.n_cache_hits) == (2, 2, 0, 2)
        assert (report.n_compiled, report.n_cache_hits) == (2, 2)

    def test_statistical_summary_is_bit_identical(self, backend, tmp_path):
        """EXP-S1 cold, warming a cache, and fully cached: the same
        summary as an inline run."""
        config = quick_statistical_config()

        def key(summary):
            return (summary.rows, summary.average_reduction_pct,
                    summary.overall_reduction_pct)

        inline = run_statistical_comparison(config)
        cold = run_statistical_comparison(
            config, executor=EXECUTORS[backend]())
        store = ShardedDirectoryCache(tmp_path / "grid")
        warmed = run_statistical_comparison(
            config, cache=store, executor=EXECUTORS[backend]())
        cached = run_statistical_comparison(
            config, cache=ShardedDirectoryCache(store.root),
            executor=EXECUTORS[backend]())
        assert key(cold) == key(inline)
        assert key(warmed) == key(inline)
        assert key(cached) == key(inline)
        assert cached.n_points_compiled == 0
        assert cached.n_points_cached == len(inline.rows)

    def test_progress_reports_every_point_once(self, backend):
        seen = []

        def progress(done, total, result):
            seen.append((done, total))

        summary = run_statistical_comparison(
            quick_statistical_config(), progress=progress,
            executor=EXECUTORS[backend]())
        total = len(summary.rows)
        assert [done for done, _ in seen] == list(range(1, total + 1))
        assert {count for _, count in seen} == {total}


@pytest.mark.parametrize("backend", ["inline", "local:2"])
def test_experiment_cli_through_executor_spec(capsys, backend):
    """``--executor`` drives the same code path end to end through the
    CLI, and the footer names the backend."""
    from repro.cli.main import main

    assert main(["experiment", "stats", "--set", "n_values=10",
                 "--set", "m_values=1", "--set", "k_values=2",
                 "--set", "patterns_per_config=2",
                 "--set", "naive_repeats=2",
                 "--executor", backend]) == 0
    out = capsys.readouterr().out
    assert "1 point(s): 1 compiled" in out
    assert f"on {backend}" in out
