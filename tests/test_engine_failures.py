"""Failure-path tests of the batch engine: crashing jobs, dying
worker processes, and interrupted streams.

The contract under test (see ``BatchCompiler.as_completed``): a
failing job aborts the run with a :class:`BatchError` that names the
job and its digest, the process pool is shut down rather than
orphaned, and every point that completed stays persisted -- so a
re-run against the same cache resumes instead of starting over.

``TestFailureContractAcrossExecutors`` is the executor differential:
the same contract, byte for byte, whether the jobs ran inline or on a
local process pool.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import pytest

from repro.agu.model import AguSpec
from repro.batch.cache import InMemoryLRUCache, ShardedDirectoryCache
from repro.batch.digest import job_digest
from repro.batch.engine import (
    BatchCompiler,
    ExecutionStream,
    Executor,
    InlineExecutor,
    JobFailure,
    LocalPoolExecutor,
    execute_any,
)
from repro.batch.jobs import JobResult, jobs_from_suite
from repro.errors import BatchError

SPEC = AguSpec(4, 1)


# Module-level so the process pool can pickle them into workers.
@dataclass(frozen=True)
class CrashingJob:
    """A job whose execution raises (a plain worker exception)."""

    name: str
    digest: str | None = field(default=None, init=False, repr=False,
                               compare=False)

    result_type = JobResult

    def cache_key(self) -> dict:
        return {"v": 0, "crash-test": self.name}

    def execute(self):
        raise RuntimeError(f"injected crash in {self.name}")


@dataclass(frozen=True)
class InterruptingJob:
    """A job whose execution raises KeyboardInterrupt (a Ctrl-C that
    lands inside a worker; the pool re-raises it at ``result()``)."""

    name: str
    digest: str | None = field(default=None, init=False, repr=False,
                               compare=False)

    result_type = JobResult

    def cache_key(self) -> dict:
        return {"v": 0, "interrupt-test": self.name}

    def execute(self):
        raise KeyboardInterrupt


@dataclass(frozen=True)
class WorkerKillerJob:
    """A job that kills its worker process outright (no exception
    crosses the pipe), breaking the process pool."""

    name: str
    digest: str | None = field(default=None, init=False, repr=False,
                               compare=False)

    result_type = JobResult

    def cache_key(self) -> dict:
        return {"v": 0, "worker-killer": self.name}

    def execute(self):  # pragma: no cover - runs in a doomed worker
        os._exit(13)


class DrainingExecutor(Executor):
    """Fails the batch's last job before delivering anything, then
    hands every other job's result to the teardown salvage -- a pool
    draining its in-flight work, made deterministic."""

    def run(self, jobs):
        class Stream(ExecutionStream):
            def __iter__(self):
                raise JobFailure(len(jobs) - 1,
                                 RuntimeError("injected crash"))
                yield  # pragma: no cover - makes this a generator

            def shutdown(self):
                return {index: execute_any(job)
                        for index, job in enumerate(jobs[:-1])}

        return Stream()


class RecordingExecutor(Executor):
    """Wraps an executor and records every job that completed: the
    ones its stream delivered and the ones its teardown drained."""

    def __init__(self, inner: Executor):
        self.inner = inner
        self.n_workers = inner.n_workers
        self.completed: list = []

    def run(self, jobs):
        stream, completed = self.inner.run(jobs), self.completed

        class Stream(ExecutionStream):
            def __iter__(self):
                for index, result in stream:
                    completed.append(jobs[index])
                    yield index, result

            def shutdown(self):
                salvage = stream.shutdown()
                completed.extend(jobs[index] for index in salvage)
                return salvage

        return Stream()


def good_jobs(count: int = 6):
    return jobs_from_suite("full", SPEC, n_iterations=4)[:count]


class TestCrashingJobInline:
    def test_batch_error_names_job_and_digest(self, tmp_path):
        jobs = [*good_jobs(3), CrashingJob(name="poison")]
        store = ShardedDirectoryCache(tmp_path / "store")
        compiler = BatchCompiler(cache=store)
        streamed = []
        with pytest.raises(BatchError) as caught:
            for index, result in compiler.as_completed(jobs):
                streamed.append(result)
        assert caught.value.job_name == "poison"
        assert caught.value.digest == job_digest(CrashingJob("poison"))
        assert "poison" in str(caught.value)
        assert caught.value.digest in str(caught.value)
        assert "injected crash" in str(caught.value)
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert len(streamed) == 3

    def test_compile_path_names_the_failing_job(self):
        with pytest.raises(BatchError) as caught:
            BatchCompiler().compile([*good_jobs(2),
                                     CrashingJob(name="poison")])
        assert caught.value.job_name == "poison"
        assert caught.value.digest is not None

    def test_configuration_errors_keep_a_bare_batch_error(self):
        error = BatchError("max_batch must be >= 1, got 0")
        assert error.job_name is None and error.digest is None

    def test_salvage_failure_does_not_mask_the_culprit(self, caplog):
        """A cache that cannot take the teardown salvage writes (disk
        full, dead server) must not displace the job failure -- the
        caller still gets the BatchError naming the poison job."""
        cache = InMemoryLRUCache()
        def refuse(*args, **kwargs):
            raise OSError("disk full")
        cache.put = refuse
        with pytest.raises(BatchError) as caught:
            BatchCompiler(cache=cache, executor=DrainingExecutor()).compile(
                [*good_jobs(2), CrashingJob(name="poison")])
        assert caught.value.job_name == "poison"
        assert "failed to persist 2 completed result(s)" in caplog.text


class TestCrashingJobPooled:
    """The crash-injection differential: a mid-batch worker failure
    must leave exactly the completed prefix persisted and resumable."""

    def test_completed_points_survive_and_resume(self, tmp_path):
        survivors = good_jobs(6)
        jobs = [*survivors, CrashingJob(name="poison")]
        store = ShardedDirectoryCache(tmp_path / "store")
        with pytest.raises(BatchError) as caught:
            for _ in BatchCompiler(cache=store,
                                   executor="local:2").as_completed(jobs):
                pass
        assert caught.value.job_name == "poison"

        # Differential: the resumed run serves everything the crashed
        # run persisted and computes only the remainder, bit-identical
        # to a run that never crashed.
        fresh = BatchCompiler().compile(survivors)
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(survivors)
        assert resumed.n_cache_hits == len(store)
        assert resumed.n_cache_hits >= 1
        assert resumed.n_compiled \
            == len(survivors) - resumed.n_cache_hits
        assert [(r.name, r.total_cost, r.k_tilde)
                for r in resumed.results] \
            == [(r.name, r.total_cost, r.k_tilde)
                for r in fresh.results]

    def test_pooled_compile_names_the_failing_job(self):
        with pytest.raises(BatchError) as caught:
            BatchCompiler(executor="local:2").compile(
                [*good_jobs(3), CrashingJob(name="poison")])
        assert caught.value.job_name == "poison"
        assert isinstance(caught.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compile_persists_completed_work_before_raising(
            self, tmp_path, workers):
        """compile() honors the same salvage contract as the
        streaming path: work that finished before the failure is in
        the cache, so the re-run resumes instead of starting over."""
        survivors = good_jobs(4)
        store = ShardedDirectoryCache(tmp_path / "store")
        with pytest.raises(BatchError):
            BatchCompiler(cache=store, executor=f"local:{workers}").compile(
                [*survivors, CrashingJob(name="poison")])
        assert len(store) >= 1
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(survivors)
        assert resumed.n_cache_hits == len(store)
        assert resumed.n_compiled == len(survivors) - len(store)


@pytest.mark.parametrize("make_executor", [
    InlineExecutor, lambda: LocalPoolExecutor(2)],
    ids=["inline", "local-pool-2"])
class TestFailingCompilePersistsEverything:
    """compile() is as_completed() collected: a failing batch stores
    every result that completed -- delivered or drained -- and names
    the culprit's digest."""

    def test_every_completed_result_is_persisted(self, tmp_path,
                                                 make_executor):
        survivors = good_jobs(6)
        poison = CrashingJob(name="poison")
        store = ShardedDirectoryCache(tmp_path / "store")
        executor = RecordingExecutor(make_executor())
        with pytest.raises(BatchError) as caught:
            BatchCompiler(cache=store, executor=executor).compile(
                [*survivors[:2], poison, *survivors[2:]])
        assert caught.value.digest == job_digest(poison)
        assert caught.value.job_name == "poison"
        completed = {job_digest(job) for job in executor.completed}
        assert completed
        assert len(store) == len(completed)
        for digest in completed:
            assert store.get(digest) is not None


class TestBrokenProcessPool:
    def test_dead_worker_surfaces_as_batch_error(self, tmp_path):
        store = ShardedDirectoryCache(tmp_path / "store")
        jobs = [WorkerKillerJob(name="killer"), *good_jobs(2)]
        with pytest.raises(BatchError) as caught:
            for _ in BatchCompiler(cache=store,
                                   executor="local:2").as_completed(jobs):
                pass
        # Every victim future carries BrokenProcessPool; whichever
        # surfaces first is named -- hedged as "in flight", since the
        # pool cannot identify the true culprit.
        assert caught.value.job_name is not None
        assert caught.value.digest is not None
        assert "process pool died" in str(caught.value)
        assert "in flight" in str(caught.value)

    def test_engine_usable_after_a_broken_pool(self):
        with pytest.raises(BatchError):
            BatchCompiler(executor="local:2").compile(
                [WorkerKillerJob(name="killer"), *good_jobs(2)])
        # The pool was shut down, not orphaned: a fresh run works.
        report = BatchCompiler(executor="local:2").compile(good_jobs(4))
        assert report.n_jobs == 4 and report.all_audits_ok


class TestKeyboardInterrupt:
    """Interrupting a streamed run must shut the executor down without
    hanging and leave the persisted prefix resumable."""

    def interrupt_after(self, compiler, jobs, count: int) -> int:
        stream = compiler.as_completed(jobs)
        delivered = 0
        with pytest.raises(KeyboardInterrupt):
            try:
                for _index, _result in stream:
                    delivered += 1
                    if delivered >= count:
                        raise KeyboardInterrupt
            finally:
                stream.close()  # deterministic teardown, like the REPL
        return delivered

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupt_then_resume(self, tmp_path, workers):
        jobs = good_jobs(6)
        store = ShardedDirectoryCache(tmp_path / "store")
        compiler = BatchCompiler(cache=store, executor=f"local:{workers}")
        delivered = self.interrupt_after(compiler, jobs, 2)
        assert delivered == 2
        # Everything delivered (plus any in-flight completion the
        # shutdown drained) is persisted; nothing is persisted twice.
        assert len(store) >= delivered
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root),
            executor=f"local:{workers}").compile(jobs)
        assert resumed.n_cache_hits >= delivered
        assert resumed.n_compiled <= len(jobs) - delivered
        fresh = BatchCompiler().compile(jobs)
        assert [(r.name, r.total_cost) for r in resumed.results] \
            == [(r.name, r.total_cost) for r in fresh.results]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_compile_persists_completed_prefix(
            self, tmp_path, workers):
        """Ctrl-C during compile() (surfacing from inline execution or
        through a pool future): the interrupt propagates as-is -- not
        wrapped in a BatchError -- after the completed prefix is
        persisted, so the resumed run skips the finished work."""
        survivors = good_jobs(4)
        store = ShardedDirectoryCache(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            BatchCompiler(cache=store, executor=f"local:{workers}").compile(
                [*survivors, InterruptingJob(name="ctrl-c")])
        assert len(store) >= 1
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(survivors)
        assert resumed.n_cache_hits == len(store)
        assert resumed.n_compiled == len(survivors) - len(store)

    def test_interrupt_in_a_pooled_persist_resumes(self, tmp_path):
        """Ctrl-C landing in the engine itself (here: while it stores
        a pooled result) propagates as-is, shuts the pool down, and
        leaves what was stored resumable."""
        jobs = good_jobs(5)
        store = ShardedDirectoryCache(tmp_path / "store")
        put = store.put
        calls = []

        def interrupt_second_put(digest, payload):
            calls.append(digest)
            if len(calls) == 2:
                raise KeyboardInterrupt
            put(digest, payload)

        store.put = interrupt_second_put
        with pytest.raises(KeyboardInterrupt):
            BatchCompiler(cache=store, executor="local:2").compile(jobs)
        stored = len(store)
        assert stored >= 1
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(jobs)
        assert resumed.n_cache_hits == stored
        assert resumed.n_compiled == len(jobs) - stored


@pytest.mark.parametrize("executor", ["inline", "local:2"])
class TestFailureContractAcrossExecutors:
    """The executor differential: `BatchError` attribution, completed-
    work persistence, and cache resumability are byte-identical across
    every execution backend."""

    def test_crash_attribution_is_identical(self, tmp_path, executor):
        store = ShardedDirectoryCache(tmp_path / "store")
        with pytest.raises(BatchError) as caught:
            BatchCompiler(cache=store, executor=executor).compile(
                [*good_jobs(4), CrashingJob(name="poison")])
        assert caught.value.job_name == "poison"
        assert caught.value.digest == job_digest(CrashingJob("poison"))
        assert "poison" in str(caught.value)
        assert caught.value.digest in str(caught.value)
        assert "injected crash" in str(caught.value)

    def test_completed_work_persists_and_resumes(self, tmp_path, executor):
        survivors = good_jobs(4)
        store = ShardedDirectoryCache(tmp_path / "store")
        with pytest.raises(BatchError):
            BatchCompiler(cache=store, executor=executor).compile(
                [*survivors, CrashingJob(name="poison")])
        assert len(store) >= 1
        fresh = BatchCompiler().compile(survivors)
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(survivors)
        assert resumed.n_cache_hits == len(store)
        assert resumed.n_compiled == len(survivors) - len(store)
        assert [(r.name, r.total_cost, r.k_tilde)
                for r in resumed.results] \
            == [(r.name, r.total_cost, r.k_tilde)
                for r in fresh.results]

    def test_streaming_failure_salvages_delivered_prefix(
            self, tmp_path, executor):
        store = ShardedDirectoryCache(tmp_path / "store")
        streamed = []
        compiler = BatchCompiler(cache=store, executor=executor)
        with pytest.raises(BatchError) as caught:
            for _index, result in compiler.as_completed(
                    [*good_jobs(3), CrashingJob(name="poison")]):
                streamed.append(result)
        assert caught.value.job_name == "poison"
        # Everything delivered before the failure is in the store.
        assert len(store) >= len(streamed)

    def test_interrupted_stream_resumes(self, tmp_path, executor):
        jobs = good_jobs(6)
        store = ShardedDirectoryCache(tmp_path / "store")
        compiler = BatchCompiler(cache=store, executor=executor)
        stream = compiler.as_completed(jobs)
        delivered = 0
        with pytest.raises(KeyboardInterrupt):
            try:
                for _index, _result in stream:
                    delivered += 1
                    if delivered >= 2:
                        raise KeyboardInterrupt
            finally:
                stream.close()
        assert delivered == 2
        persisted = len(store)
        assert persisted >= delivered
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(jobs)
        assert resumed.n_cache_hits == persisted
        fresh = BatchCompiler().compile(jobs)
        assert [(r.name, r.total_cost) for r in resumed.results] \
            == [(r.name, r.total_cost) for r in fresh.results]
