"""The batch compilation engine: fan-out, caching, aggregation.

:class:`BatchCompiler` takes a list of :class:`~repro.batch.jobs.BatchJob`
and produces a :class:`BatchReport`.  Per job it either

* serves the per-kernel summary (:class:`JobResult`) straight from the
  result cache -- keyed by the content digest of
  :mod:`repro.batch.digest`, so *what* is compiled, not what it is
  called, decides -- or
* runs the job's ``execute()`` (for a :class:`~repro.batch.jobs.BatchJob`
  a compile), on the calling process (``executor="inline"``, the
  default) or a ``concurrent.futures`` process pool
  (``executor="local:N"``), and stores the summary back into the
  cache.

Identical jobs inside one batch (same digest) are compiled once and
fanned back out to every slot, so a sweep that repeats a configuration
pays for it a single time.  Likewise each distinct source text is
parsed once per batch (:func:`~repro.batch.jobs.parse_scope`), however
many specs it is swept over, and each distinct phase-1 group is solved
once per batch (:func:`~repro.pathcover.branch_and_bound.cover_scope`),
however many kernels and register counts share it.

The engine aggregates summaries, not full artifacts: a
:class:`JobResult` is a small picklable/JSON-able record, which is what
makes both the process pool and the on-disk cache cheap.  Callers that
need listings or simulation traces compile those kernels individually.

There is one delivery path: :meth:`BatchCompiler.as_completed`
streams results as they finish and stores each in the cache the moment
it exists; :meth:`BatchCompiler.compile` collects that stream into a
:class:`BatchReport` in job order.  Both run any job that implements
the job contract of :mod:`repro.batch.jobs` (``name``, ``digest``,
``cache_key()``, ``execute()``, ``result_type``) -- compilation units
(:class:`~repro.batch.jobs.BatchJob`) and experiment points
(:class:`~repro.batch.jobs.ExperimentPointJob`) alike.

*Where* cache misses execute is an :class:`Executor`: inline on the
calling process (:class:`InlineExecutor`) or on a
``concurrent.futures`` process pool (:class:`LocalPoolExecutor`).
:func:`open_executor` maps CLI-style spec strings (``inline``,
``local:N``) to executors, mirroring
:func:`~repro.batch.cache.open_cache`; both honor the same failure
contract (a :class:`~repro.errors.BatchError` naming the failing job,
completed work persisted before the error propagates), so the
engine's callers cannot tell them apart except by speed.  Runs on
several processes or hosts share work through a common ``dir:``
result store, not through the executor.

With ``trace=`` the engine records one ``enqueue`` and one ``finish``
event per computed job and one ``cache_hit`` per slot that did not
execute (see :mod:`repro.batch.trace`).
"""

from __future__ import annotations

import contextlib
import copy
import logging
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import as_completed as _futures_as_completed
from concurrent.futures.process import BrokenProcessPool \
    as _BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.batch.cache import InMemoryLRUCache
from repro.batch.digest import job_digest
from repro.batch.jobs import BatchJob, JobResult, parse_scope
from repro.batch.trace import open_tracer
from repro.errors import BatchError
from repro.pathcover.branch_and_bound import cover_scope

_LOGGER = logging.getLogger("repro.batch.engine")


def execute_any(job) -> Any:
    """Run one job on the calling process (the executors' submit
    target)."""
    return job.execute()


#: The same entry point under the name callers use for one
#: :class:`~repro.batch.jobs.BatchJob`.
execute_job = execute_any


def _carrying_digest(job, digest: str):
    """A copy of ``job`` that carries the engine's ``digest`` to its
    execution -- through a process pool too."""
    carrier = copy.copy(job)
    object.__setattr__(carrier, "digest", digest)
    return carrier


def _job_failure(job, digest: str, error: Exception) -> BatchError:
    """A :class:`BatchError` naming the batch job whose execution
    failed (``raise ... from error`` at the call site keeps the
    original traceback).

    A died process pool surfaces here too, via the
    ``BrokenProcessPool`` its victim futures all carry -- but the pool
    cannot say *which* in-flight job killed the worker, so that
    message names the job only as "in flight" rather than blaming it.
    """
    name = job.name or "<unnamed>"
    if isinstance(error, _BrokenProcessPool):
        return BatchError(
            f"worker process pool died with batch job {name!r} "
            f"(digest {digest}) in flight -- the crash may belong to "
            f"any job running at the time: {error}",
            job_name=name, digest=digest)
    return BatchError(
        f"batch job {name!r} (digest {digest}) failed: "
        f"{type(error).__name__}: {error}",
        job_name=name, digest=digest)


# ----------------------------------------------------------------------
# The executor seam: where cache misses run
# ----------------------------------------------------------------------
class JobFailure(Exception):
    """Internal executor signal: the job at ``index`` (a position in
    the sequence handed to :meth:`Executor.run`) failed with ``cause``.

    Executors raise this from their streams instead of a finished
    :class:`~repro.errors.BatchError` because only the engine knows the
    job's digest and display name; it converts via ``_job_failure`` so
    every backend produces byte-for-byte the same error shape.
    """

    def __init__(self, index: int, cause: Exception):
        super().__init__(f"job #{index} failed: {cause}")
        self.index = index
        self.cause = cause


class ExecutionStream:
    """One in-flight batch on an :class:`Executor`.

    Iterating yields ``(index, result)`` pairs in *completion* order,
    where ``index`` is the job's position in the submitted sequence; a
    failing job aborts the iteration with :class:`JobFailure`.
    :meth:`shutdown` is the teardown hook: stop scheduling new work,
    wait out whatever is already executing, and hand back the completed
    results the iteration never delivered, so the engine can persist
    them before an error propagates.
    """

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        raise NotImplementedError

    def shutdown(self) -> dict[int, Any]:
        """Tear the stream down (idempotent); returns completed results
        that were never yielded, keyed by job index."""
        raise NotImplementedError


class Executor:
    """Abstract execution backend of :class:`BatchCompiler`.

    An executor decides *where* a batch's cache misses run; the engine
    owns everything else (digests, dedup, caching, salvage, failure
    attribution).  Implementations: :class:`InlineExecutor` (the
    calling process) and :class:`LocalPoolExecutor` (a process pool).
    Construct one directly or from a spec string via
    :func:`open_executor`.

    Example::

        >>> from repro.batch.engine import BatchCompiler, open_executor
        >>> compiler = BatchCompiler(executor=open_executor("local:2"))
    """

    #: Parallelism width, for reports; pinned at construction.
    n_workers: int = 1

    def run(self, jobs: Sequence) -> ExecutionStream:
        """Start executing ``jobs``; returns the result stream."""
        raise NotImplementedError


class _InlineStream(ExecutionStream):
    """Serial execution on the calling process; nothing is ever in
    flight between results, so teardown salvage is always empty."""

    def __init__(self, jobs: Sequence):
        self._jobs = list(jobs)

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        for index, job in enumerate(self._jobs):
            try:
                result = execute_any(job)
            except Exception as error:
                raise JobFailure(index, error) from error
            yield index, result

    def shutdown(self) -> dict[int, Any]:
        return {}


class InlineExecutor(Executor):
    """Run every job serially on the calling process.

    The default backend: deterministic ordering, no fork cost, and
    exceptions keep their original tracebacks.

    Example::

        >>> from repro.batch.engine import BatchCompiler, InlineExecutor
        >>> compiler = BatchCompiler(executor=InlineExecutor())
    """

    def run(self, jobs: Sequence) -> ExecutionStream:
        """Start executing ``jobs`` serially; returns the inline
        stream."""
        return _InlineStream(jobs)


class _PoolStream(ExecutionStream):
    """A batch fanned out over a ``ProcessPoolExecutor``."""

    def __init__(self, jobs: Sequence, max_workers: int):
        self._pool = ProcessPoolExecutor(
            max_workers=min(max_workers, len(jobs)))
        self._index = {self._pool.submit(execute_any, job): position
                       for position, job in enumerate(jobs)}
        self._delivered: set[int] = set()
        self._shut = False

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        for future in _futures_as_completed(self._index):
            position = self._index[future]
            try:
                result = future.result()
            except Exception as error:
                raise JobFailure(position, error) from error
            self._delivered.add(position)
            yield position, result

    def shutdown(self) -> dict[int, Any]:
        if self._shut:
            return {}
        self._shut = True
        # Stop paying for what never started, let in-flight jobs
        # finish, and hand their drained completions to the engine.
        self._pool.shutdown(wait=True, cancel_futures=True)
        return {position: future.result()
                for future, position in self._index.items()
                if position not in self._delivered
                and future.done() and not future.cancelled()
                and future.exception() is None}


class LocalPoolExecutor(Executor):
    """Fan jobs out over a local ``concurrent.futures`` process pool.

    Batches of one job short-circuit to inline execution -- a pool
    would only add fork cost.

    Example::

        >>> from repro.batch.engine import BatchCompiler, LocalPoolExecutor
        >>> compiler = BatchCompiler(executor=LocalPoolExecutor(4))
    """

    def __init__(self, width: int):
        if width < 1:
            raise BatchError(
                f"a local pool needs a worker count >= 1, got {width}")
        self.n_workers = width

    def run(self, jobs: Sequence) -> ExecutionStream:
        """Fan ``jobs`` out over the pool (single-job batches run
        inline)."""
        if self.n_workers == 1 or len(jobs) <= 1:
            return _InlineStream(jobs)
        return _PoolStream(jobs, self.n_workers)


#: The spec schemes :func:`open_executor` understands.  Like
#: :data:`~repro.batch.cache.KNOWN_CACHE_SCHEMES`, matching is
#: restricted so unknown specs fail loudly instead of silently
#: executing somewhere unintended.
KNOWN_EXECUTOR_SCHEMES = ("inline", "local")

_EXECUTOR_URL_LIKE = re.compile(r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://")


def open_executor(spec) -> Executor:
    """Open an execution backend from a spec string.

    * ``inline`` -- run jobs serially on the calling process;
    * ``local`` or ``local:N`` -- a process pool of ``N`` workers
      (``local`` alone uses every CPU).

    An :class:`Executor` instance passes through unchanged, so APIs
    can accept either form.  Unknown schemes and malformed specs are
    rejected loudly, mirroring :func:`~repro.batch.cache.open_cache`.

    Example::

        >>> open_executor("inline")            # doctest: +ELLIPSIS
        <repro.batch.engine.InlineExecutor object at ...>
        >>> open_executor("local:2").n_workers
        2
    """
    if isinstance(spec, Executor):
        return spec
    text = str(spec)
    match = _EXECUTOR_URL_LIKE.match(text)
    if match is not None:
        raise BatchError(
            f"unknown executor scheme {match['scheme']!r} in spec "
            f"{text!r} (known schemes: "
            f"{', '.join(KNOWN_EXECUTOR_SCHEMES)})")
    if text == "inline":
        return InlineExecutor()
    if text == "local":
        return LocalPoolExecutor(os.cpu_count() or 1)
    if text.startswith("local:"):
        try:
            width = int(text[len("local:"):])
        except ValueError:
            raise BatchError(
                f"invalid worker count in executor spec {text!r}")
        if width < 1:
            raise BatchError(
                f"executor spec {text!r} needs a worker count >= 1")
        return LocalPoolExecutor(width)
    hint = f"; did you mean 'local:{text}'?" if text.isdigit() else ""
    raise BatchError(
        f"unknown executor spec {text!r} (expected inline or "
        f"local[:N]{hint})")


@dataclass(frozen=True)
class BatchReport:
    """Aggregate outcome of one :meth:`BatchCompiler.compile` run."""

    results: tuple[JobResult, ...]
    n_workers: int
    elapsed_seconds: float

    @property
    def n_jobs(self) -> int:
        """Number of job slots in the report."""
        return len(self.results)

    @property
    def n_cache_hits(self) -> int:
        """Jobs served from the result cache."""
        return sum(result.from_cache for result in self.results)

    @property
    def n_compiled(self) -> int:
        """Jobs that actually ran the pipeline (non-hits)."""
        return self.n_jobs - self.n_cache_hits

    @property
    def total_cost(self) -> int:
        """Summed modelled cost per iteration over all jobs."""
        return sum(result.total_cost for result in self.results)

    @property
    def all_audits_ok(self) -> bool:
        """Whether every simulated job agreed with the cost model."""
        return all(result.audit_ok for result in self.results)

    @property
    def jobs_per_second(self) -> float:
        """Batch throughput (0.0 when no time elapsed)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.n_jobs / self.elapsed_seconds

    def result(self, name: str) -> JobResult:
        """The named job's summary."""
        for entry in self.results:
            if entry.name == name:
                return entry
        raise BatchError(f"no job named {name!r} in this report")

    def render(self, title: str = "batch compilation") -> str:
        """Fixed-width table of the per-job rows."""
        from repro.analysis.tables import Column, Table

        table = Table([
            Column("kernel", "kernel", align="<"),
            Column("N", "n"), Column("K", "k"), Column("M", "m"),
            Column("K~", "k_tilde"), Column("used", "used"),
            Column("cost/iter", "cost"),
            Column("base/iter", "baseline"),
            Column("sim", "sim", align="<"),
            Column("cached", "cached", align="<"),
            Column("ms", "ms", fmt=".1f"),
        ], title=title)
        for result in self.results:
            table.add_row(
                kernel=result.name, n=result.n_accesses,
                k=result.n_registers, m=result.modify_range,
                k_tilde=result.k_tilde, used=result.n_registers_used,
                cost=result.total_cost,
                baseline=result.baseline_overhead,
                sim="ok" if result.simulated and result.audit_ok
                else ("FAIL" if result.simulated else "-"),
                cached="hit" if result.from_cache else "-",
                ms=1000 * result.wall_seconds)
        return table.render()

    def summary(self) -> str:
        """One-line account: volume, cache effectiveness, throughput."""
        return (f"{self.n_jobs} job(s): {self.n_compiled} compiled, "
                f"{self.n_cache_hits} cache hit(s); total cost/iter "
                f"{self.total_cost}; {self.elapsed_seconds:.3f} s on "
                f"{self.n_workers} worker(s) "
                f"({self.jobs_per_second:.1f} jobs/s)")


def _scoped_steps(stream: ExecutionStream) -> Iterator[tuple[int, Any]]:
    """Iterate ``stream`` with one :func:`~repro.batch.jobs.parse_scope`
    and one :func:`~repro.pathcover.branch_and_bound.cover_scope` over
    the whole batch, open only while the stream steps: a scope held
    across a ``yield`` would leak into the consumer's code, and
    interleaved streams would unwind each other's scopes out of order.
    """
    kernels: dict = {}
    groups: dict = {}
    steps = iter(stream)
    while True:
        with parse_scope(kernels), cover_scope(groups):
            step = next(steps, None)
        if step is None:
            return
        yield step


class BatchCompiler:
    """Compile many kernels at once, with caching and parallelism.

    Parameters
    ----------
    cache:
        Any object with ``get(digest) -> dict | None`` and
        ``put(digest, dict)`` (see :mod:`repro.batch.cache`).  Defaults
        to a fresh :class:`InMemoryLRUCache`, so repeated calls on one
        compiler already skip recompilation.  Pass a
        :class:`~repro.batch.cache.ShardedDirectoryCache` (for example
        ``open_cache("dir:results/cache")``) to persist across process
        restarts.
    executor:
        Where cache misses execute -- an :class:`Executor` instance or
        an :func:`open_executor` spec string: ``"local:N"`` for an
        ``N``-process pool.  ``None`` (the default) compiles inline on
        the calling process (deterministic ordering, no fork cost).
    trace:
        Trace sink (path, stream, or a shared
        :class:`~repro.batch.trace.Tracer`): the engine emits
        ``cache_hit``/``enqueue``/``finish`` events per job.  A path
        opens a tracer the compiler owns (see :meth:`close`); a
        :class:`~repro.batch.trace.Tracer` passed in stays the
        caller's.  ``None`` (the default) disables tracing at zero
        cost.
    """

    def __init__(self, *, cache=None,
                 executor: Executor | str | None = None,
                 trace=None):
        self.cache = cache if cache is not None else InMemoryLRUCache()
        self.executor = InlineExecutor() if executor is None \
            else open_executor(executor)
        self.trace = open_tracer(trace, source="engine")
        self._owns_trace = self.trace is not trace

    def close(self) -> None:
        """Close the trace file this compiler opened from a path
        (idempotent); a tracer the caller passed in stays open."""
        if self._owns_trace:
            self.trace.close()

    @property
    def n_workers(self) -> int:
        """The executor's parallelism width (best effort, for reports)."""
        return self.executor.n_workers

    def _trace_job(self, kind: str, index: int, job,
                   **extra) -> None:
        """Emit one engine-side trace event for a job slot."""
        if not self.trace.enabled:
            return
        fields: dict = {"index": index, "name": str(job.name)}
        fields.update({key: value for key, value in extra.items()
                       if value is not None})
        self.trace.emit(kind, **fields)

    def _scan(self, jobs: Sequence) -> list[tuple[str, Any]]:
        """Per-job ``(digest, cached result | None)``, the batch's
        initial cache pass.

        A job that already carries its digest (a served request) is
        not hashed again.  Each unique digest is probed with one
        ``get``, and its payload becomes a result at once, so a warm
        pass keeps alive only its results: every payload held beside
        them doubles the objects the garbage collector tracks, and a
        pass of a few hundred hits then triggers collections that
        reach the oldest generation.  Later slots with the
        same digest are rebuilt from the first slot's result, as
        :meth:`as_completed` rebuilds duplicates of a computed job,
        so they share no container with it.
        """
        digests = [job.digest if job.digest is not None
                   else job_digest(job) for job in jobs]
        first: dict[str, Any] = {}
        scanned: list[tuple[str, Any]] = []
        for job, digest in zip(jobs, digests):
            if digest not in first:
                payload = self.cache.get(digest)
                result = first[digest] = \
                    job.result_type.from_payload(payload, job) \
                    if payload is not None else None
            elif first[digest] is not None:
                result = job.result_type.from_payload(
                    first[digest].payload(), job)
            else:
                result = None
            scanned.append((digest, result))
        return scanned

    def compile(self, jobs: Iterable[BatchJob]) -> BatchReport:
        """Run a batch; results come back in job order.

        Collects :meth:`as_completed` into a :class:`BatchReport`, so a
        gathered batch and a streamed one share one cache, dedup and
        failure contract: every result is stored the moment it exists,
        and a failing batch raises only after everything that
        completed is persisted.
        """
        jobs = list(jobs)
        started = time.perf_counter()
        slots: list[Any] = [None] * len(jobs)
        with contextlib.closing(self.as_completed(jobs)) as stream:
            for index, result in stream:
                slots[index] = result
        return BatchReport(
            results=tuple(slots),
            n_workers=self.n_workers,
            elapsed_seconds=time.perf_counter() - started)

    def as_completed(self, jobs: Iterable) -> Iterator[tuple[int, Any]]:
        """Stream ``(index, result)`` pairs in completion order.

        The engine's one delivery path (:meth:`compile` collects it
        into job order): cache hits are yielded immediately during the
        initial scan; misses fan out on the executor and are yielded as
        they finish.  Identical jobs inside the batch (same
        digest) compute once -- the duplicate slots are yielded as
        cache hits when the first copy lands.

        Every computed result is stored back into the cache the moment
        it exists, so an interrupted run keeps its partial progress and
        a re-run against the same cache only computes what is still
        missing.

        Failure semantics: a job that raises (or a worker process that
        dies, surfacing as ``BrokenProcessPool``) aborts the stream
        with a :class:`BatchError` whose ``job_name``/``digest`` name
        the failing work unit.  The pool is shut down -- never
        orphaned -- and results that completed before (or in flight
        with) the failure are persisted first, so the cache stays
        consistent and the surviving points resume on the next run.
        The same teardown runs when the consumer abandons the stream
        or a ``KeyboardInterrupt`` lands mid-wait.
        """
        jobs = list(jobs)
        pending: dict[str, list[int]] = {}
        pending_jobs: dict[str, Any] = {}
        for index, (digest, result) in enumerate(self._scan(jobs)):
            if result is not None:
                self._trace_job("cache_hit", index, jobs[index],
                                digest=digest)
                yield index, result
                continue
            pending.setdefault(digest, []).append(index)
            pending_jobs.setdefault(digest, jobs[index])
        if not pending:
            return

        persisted: set[str] = set()

        def fan_out(digest: str, result: Any) -> Iterator[tuple[int, Any]]:
            self.cache.put(digest, result.payload())
            persisted.add(digest)
            first, *duplicates = pending[digest]
            yield first, result
            for index in duplicates:
                self._trace_job("cache_hit", index, jobs[index],
                                digest=digest)
                # Built as a cache hit is, so display metadata (name,
                # a point's index) comes from this slot's own job.
                yield index, jobs[index].result_type.from_payload(
                    result.payload(), jobs[index])

        digests = list(pending)
        for position, digest in enumerate(digests):
            self._trace_job("enqueue", position, pending_jobs[digest],
                            digest=digest)
        stream = self.executor.run([
            _carrying_digest(pending_jobs[digest], digest)
            for digest in digests])
        try:
            for position, result in _scoped_steps(stream):
                self._trace_job(
                    "finish", position, pending_jobs[digests[position]],
                    outcome="ok",
                    seconds=getattr(result, "wall_seconds", None))
                yield from fan_out(digests[position], result)
        except JobFailure as failure:
            digest = digests[failure.index]
            self._trace_job("finish", failure.index,
                            pending_jobs[digest], outcome="failed")
            raise _job_failure(pending_jobs[digest], digest,
                               failure.cause) from failure.cause
        finally:
            # Torn down mid-stream -- abandoned, interrupted, or a
            # job failure above: drop what never started, let
            # in-flight jobs finish, and persist everything that
            # completed.  Compute is cached, never thrown away, so
            # a re-run against the same cache resumes exactly where
            # this one stopped.  (A clean finish passes through here
            # too; its salvage is empty by construction.)
            salvage = {digests[position]: result
                       for position, result in stream.shutdown().items()
                       if digests[position] not in persisted}
            try:
                for digest, result in salvage.items():
                    self.cache.put(digest, result.payload())
            # repro-lint: disable=BROAD-EXCEPT -- teardown salvage is best-effort; a cache write error must not displace what is propagating
            except Exception:
                # Teardown salvage is best-effort: a cache write
                # error must not displace whatever is already
                # propagating.
                _LOGGER.warning(
                    "failed to persist %d completed result(s) "
                    "during stream teardown", len(salvage),
                    exc_info=True)
