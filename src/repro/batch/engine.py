"""The batch compilation engine: fan-out, caching, aggregation.

:class:`BatchCompiler` takes a list of :class:`~repro.batch.jobs.BatchJob`
and produces a :class:`BatchReport`.  Per job it either

* serves the per-kernel summary (:class:`JobResult`) straight from the
  result cache -- keyed by the content digest of
  :mod:`repro.batch.digest`, so *what* is compiled, not what it is
  called, decides -- or
* compiles through :func:`repro.core.pipeline.compile_kernel`, on the
  calling process (``n_workers=1``) or a ``concurrent.futures`` process
  pool, and stores the summary back into the cache.

Identical jobs inside one batch (same digest) are compiled once and
fanned back out to every slot, so a sweep that repeats a configuration
pays for it a single time.  Likewise each distinct source text is
parsed once per batch (:func:`~repro.batch.jobs.parse_scope`), however
many specs it is swept over.

The engine aggregates summaries, not full artifacts: a
:class:`JobResult` is a small picklable/JSON-able record, which is what
makes both the process pool and the on-disk cache cheap.  Callers that
need listings or simulation traces compile those kernels individually.

Two delivery modes share the cache/fan-out machinery:
:meth:`BatchCompiler.compile` gathers a whole batch into a
:class:`BatchReport`; :meth:`BatchCompiler.as_completed` /
:meth:`BatchCompiler.run_iter` stream results as workers finish, for
live progress and incremental persistence.  Both run any job type that
offers the ``execute()``/``payload()`` protocol -- compilation units
(:class:`~repro.batch.jobs.BatchJob`) and experiment points
(:class:`~repro.batch.jobs.ExperimentPointJob`) alike.

*Where* cache misses execute is an :class:`Executor`: inline on the
calling process (:class:`InlineExecutor`), on a ``concurrent.futures``
process pool (:class:`LocalPoolExecutor`), or leased out to a fleet of
``repro-agu worker`` processes on any number of hosts
(:class:`~repro.batch.cluster.ClusterExecutor`).  :func:`open_executor`
maps CLI-style spec strings (``inline``, ``local:N``,
``tcp://HOST:PORT``) to executors, mirroring
:func:`~repro.batch.cache.open_cache`; every executor honors the same
failure contract (a :class:`~repro.errors.BatchError` naming the
failing job, completed work persisted before the error propagates), so
the engine's callers cannot tell them apart except by speed.
"""

from __future__ import annotations

import copy
import dataclasses
import logging
import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import as_completed as _futures_as_completed
from concurrent.futures.process import BrokenProcessPool \
    as _BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.agu.codegen import generate_unoptimized_code
from repro.agu.model import AguSpec
from repro.agu.simulator import simulate
from repro.batch.cache import InMemoryLRUCache
from repro.batch.digest import job_digest
from repro.batch.jobs import (
    BatchJob,
    CacheableResult,
    jobs_from_suite,
    parse_scope,
)
from repro.core.config import AllocatorConfig
from repro.batch.trace import NULL_TRACER, open_tracer
from repro.core.pipeline import (
    DEFAULT_SIMULATION_ITERATIONS,
    compile_kernel,
)
from repro.errors import BatchError

_LOGGER = logging.getLogger("repro.batch.engine")


@dataclass(frozen=True)
class JobResult(CacheableResult):
    """Per-job summary the engine aggregates (picklable, JSON-able)."""

    name: str
    digest: str
    n_accesses: int
    n_registers: int
    modify_range: int
    k_tilde: int | None
    n_registers_used: int
    #: Unit-cost address computations per iteration (the model).
    total_cost: int
    #: Static per-iteration overhead of the generated program.
    overhead_per_iteration: int
    #: Overhead of the unoptimized baseline, when the job asked for it.
    baseline_overhead: int | None
    #: Whether the simulator ran (and, see ``audit_ok``, agreed).
    simulated: bool
    #: Dynamic (simulated) cost equals the modelled cost.  Trivially
    #: true for unsimulated jobs; the simulator raises on mismatches,
    #: so a False here never actually reaches a report.
    audit_ok: bool
    wall_seconds: float
    from_cache: bool = False


def execute_job(job: BatchJob) -> JobResult:
    """Compile one job on the calling process (the pool's map target)."""
    started = time.perf_counter()
    kernel = job.kernel()
    iterations = job.n_iterations
    if iterations is not None and kernel.loop.n_iterations is not None:
        iterations = min(iterations, kernel.loop.n_iterations)
    artifacts = compile_kernel(kernel, job.spec, job.config,
                               run_simulation=job.run_simulation,
                               n_iterations=iterations)
    simulation = artifacts.simulation

    baseline_overhead: int | None = None
    if job.include_baseline:
        baseline = generate_unoptimized_code(kernel.pattern, job.spec)
        if job.run_simulation:
            count = iterations
            if count is None and kernel.loop.n_iterations is None:
                count = DEFAULT_SIMULATION_ITERATIONS
            baseline_overhead = simulate(
                baseline, kernel.loop, artifacts.layout,
                n_iterations=count).overhead_per_iteration
        else:
            baseline_overhead = baseline.overhead_per_iteration

    allocation = artifacts.allocation
    return JobResult(
        name=job.name,
        digest=job_digest(job),
        n_accesses=len(kernel.pattern),
        n_registers=job.spec.n_registers,
        modify_range=job.spec.modify_range,
        k_tilde=allocation.k_tilde,
        n_registers_used=allocation.n_registers_used,
        total_cost=allocation.total_cost,
        overhead_per_iteration=artifacts.program.overhead_per_iteration,
        baseline_overhead=baseline_overhead,
        simulated=simulation is not None,
        audit_ok=simulation is None
        or simulation.overhead_per_iteration == allocation.total_cost,
        wall_seconds=time.perf_counter() - started,
    )


def execute_any(job) -> Any:
    """Run one job of any supported type (the pool's submit target).

    Job classes that define their own ``execute()`` (e.g.
    :class:`~repro.batch.jobs.ExperimentPointJob`) run it; plain
    :class:`~repro.batch.jobs.BatchJob` compilation units go through
    :func:`execute_job`.
    """
    execute = getattr(job, "execute", None)
    if execute is not None:
        return execute()
    return execute_job(job)


def _result_type(job) -> type:
    """The result class a job's cache payloads rebuild into."""
    return getattr(job, "result_type", JobResult)


def job_size_hint(job) -> float | None:
    """A job's advisory size estimate (bigger = slower), or ``None``.

    Jobs expose it as a ``size_hint`` attribute or property; anything
    non-numeric, non-finite, or raising is treated as "no hint" --
    scheduling hints are advisory and must never break a run.  The
    cluster client ships this to the job server, which leases the
    largest hinted job first.
    """
    try:
        hint = getattr(job, "size_hint", None)
        if callable(hint):
            hint = hint()
    # repro-lint: disable=BROAD-EXCEPT -- a broken size hint must degrade to "no hint", never fail the batch
    except Exception:
        return None
    if isinstance(hint, bool) or not isinstance(hint, (int, float)):
        return None
    value = float(hint)
    return value if math.isfinite(value) else None


def _job_failure(job, digest: str, error: Exception) -> BatchError:
    """A :class:`BatchError` naming the batch job whose execution
    failed (``raise ... from error`` at the call site keeps the
    original traceback).

    A died process pool surfaces here too, via the
    ``BrokenProcessPool`` its victim futures all carry -- but the pool
    cannot say *which* in-flight job killed the worker, so that
    message names the job only as "in flight" rather than blaming it.
    """
    name = getattr(job, "name", None) or "<unnamed>"
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
    calling process), :class:`LocalPoolExecutor` (a process pool), and
    :class:`~repro.batch.cluster.ClusterExecutor` (a multi-host worker
    fleet behind a job server).  Construct one directly or from a spec
    string via :func:`open_executor`.

    Example::

        >>> from repro.batch.engine import BatchCompiler, open_executor
        >>> compiler = BatchCompiler(executor=open_executor("local:2"))
    """

    #: Best-effort parallelism width, for reports.  The cluster
    #: executor updates it per run from the server's connected-worker
    #: count; local executors pin it at construction.
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

    The ``n_workers=1`` backend: deterministic ordering, no fork cost,
    and exceptions keep their original tracebacks.

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

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise BatchError(
                f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers

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
KNOWN_EXECUTOR_SCHEMES = ("inline", "local", "tcp")

_EXECUTOR_URL_LIKE = re.compile(r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://")


def open_executor(spec) -> Executor:
    """Open an execution backend from a spec string.

    * ``inline`` -- run jobs serially on the calling process;
    * ``local`` or ``local:N`` -- a process pool of ``N`` workers
      (``local`` alone uses every CPU);
    * ``tcp://HOST:PORT`` -- a
      :class:`~repro.batch.cluster.ClusterExecutor` client against a
      running ``repro-agu job-serve`` (the multi-host choice).

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
        scheme = match["scheme"].lower()
        if scheme == "tcp":
            from repro.batch.cluster import cluster_executor_from_spec

            return cluster_executor_from_spec(text)
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
        return LocalPoolExecutor(width)
    raise BatchError(
        f"unknown executor spec {text!r} (expected inline, local[:N], "
        f"or tcp://HOST:PORT)")


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
    def total_accesses(self) -> int:
        """Summed pattern sizes over all jobs."""
        return sum(result.n_accesses for result in self.results)

    @property
    def mean_overhead_per_iteration(self) -> float:
        """Mean generated overhead per iteration (0.0 when empty)."""
        if not self.results:
            return 0.0
        return sum(result.overhead_per_iteration
                   for result in self.results) / self.n_jobs

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
    over the whole batch, open only while the stream steps: a scope
    held across a ``yield`` would leak into the consumer's code, and
    interleaved streams would unwind each other's scopes out of order.
    """
    kernels: dict = {}
    steps = iter(stream)
    while True:
        with parse_scope(kernels):
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
        :class:`~repro.batch.cache.JsonFileCache` to persist across
        process restarts.
    n_workers:
        Process-pool width for cache misses; ``1`` compiles inline on
        the calling process (deterministic ordering, no fork cost).
        Shorthand for the matching local :class:`Executor`.
    executor:
        An explicit execution backend -- an :class:`Executor` instance
        or an :func:`open_executor` spec string such as
        ``"tcp://host:port"`` for a multi-host worker fleet.  Mutually
        exclusive with a non-default ``n_workers`` (an executor carries
        its own width).
    trace:
        Trace sink (path, stream, or a shared
        :class:`~repro.batch.trace.Tracer`): the engine emits
        ``cache_hit``/``enqueue``/``finish`` events per job, so
        "where did the wall-clock go" is answerable for local runs
        too, not just cluster ones.  ``None`` (the default) disables
        tracing at zero cost.
    """

    def __init__(self, *, cache=None, n_workers: int = 1,
                 executor: Executor | str | None = None,
                 trace=None):
        if n_workers < 1:
            raise BatchError(f"n_workers must be >= 1, got {n_workers}")
        if executor is not None and n_workers != 1:
            raise BatchError(
                "pass either n_workers or executor, not both (an "
                "executor carries its own parallelism width)")
        self.cache = cache if cache is not None else InMemoryLRUCache()
        if executor is None:
            executor = InlineExecutor() if n_workers == 1 \
                else LocalPoolExecutor(n_workers)
        self.executor = open_executor(executor)
        self.trace = open_tracer(trace, source="engine")

    @property
    def n_workers(self) -> int:
        """The executor's parallelism width (best effort, for reports)."""
        return self.executor.n_workers

    def _trace_job(self, kind: str, index: int, job,
                   **extra) -> None:
        """Emit one engine-side trace event for a job slot."""
        if not self.trace.enabled:
            return
        fields: dict = {"index": index}
        name = getattr(job, "name", None)
        if name is not None:
            fields["name"] = str(name)
        size = job_size_hint(job)
        if size is not None and kind == "enqueue":
            fields["size"] = size
        fields.update({key: value for key, value in extra.items()
                       if value is not None})
        self.trace.emit(kind, **fields)

    def _scan(self, jobs: Sequence) -> list[tuple[str, Any]]:
        """Per-job ``(digest, cached result | None)``, the batch's
        initial cache pass.

        Backends offering ``get_many`` (the remote client) answer the
        whole scan in one batched lookup round rather than one round
        trip per job; the rest are probed digest by digest.
        Duplicate digests are looked up once -- later slots get a
        defensive copy, matching the per-``get`` copy semantics of the
        local stores.
        """
        digests = [job_digest(job) for job in jobs]
        unique = list(dict.fromkeys(digests))
        fetch_many = getattr(self.cache, "get_many", None)
        if fetch_many is not None:
            payloads = dict(fetch_many(unique))
        else:
            payloads = {}
            for digest in unique:
                payload = self.cache.get(digest)
                if payload is not None:
                    payloads[digest] = payload
        scanned: list[tuple[str, Any]] = []
        served: set[str] = set()
        for job, digest in zip(jobs, digests):
            payload = payloads.get(digest)
            if payload is not None and digest in served:
                payload = copy.deepcopy(payload)
            result = _result_type(job).from_payload(payload, job) \
                if payload is not None else None
            if result is not None:
                served.add(digest)
            scanned.append((digest, result))
        return scanned

    def compile(self, jobs: Iterable[BatchJob]) -> BatchReport:
        """Run a batch; results come back in job order."""
        jobs = list(jobs)
        started = time.perf_counter()
        slots: list[JobResult | None] = [None] * len(jobs)

        # Digest-deduplicated work list: cache hits are served
        # immediately, identical misses compile once.
        pending: dict[str, list[int]] = {}
        pending_jobs: dict[str, BatchJob] = {}
        for index, (digest, result) in enumerate(self._scan(jobs)):
            if result is not None:
                slots[index] = result
                self._trace_job("cache_hit", index, jobs[index],
                                digest=digest)
                continue
            pending.setdefault(digest, []).append(index)
            pending_jobs.setdefault(digest, jobs[index])

        digests = list(pending)
        with parse_scope():
            compiled = self._run([pending_jobs[digest]
                                  for digest in digests])
        self._store({digest: result.payload()
                     for digest, result in zip(digests, compiled)})
        for digest, result in zip(digests, compiled):
            first, *duplicates = pending[digest]
            slots[first] = result
            for index in duplicates:
                slots[index] = dataclasses.replace(
                    result, name=jobs[index].name, from_cache=True)

        assert all(slot is not None for slot in slots)
        return BatchReport(
            results=tuple(slots),  # type: ignore[arg-type]
            n_workers=self.n_workers,
            elapsed_seconds=time.perf_counter() - started)

    def _store(self, entries: dict[str, dict]) -> None:
        """Persist payloads, with one batched write when the backend
        offers ``put_many`` (per-entry puts otherwise)."""
        if not entries:
            return
        store_batch = getattr(self.cache, "put_many", None)
        if store_batch is not None:
            store_batch(entries)
            return
        for digest, payload in entries.items():
            self.cache.put(digest, payload)

    def _persist(self, jobs: Sequence[BatchJob], results) -> None:
        """Best-effort store of completed results for ``jobs`` (a
        failing batch's salvage path -- :meth:`compile` only persists
        after ``_run`` returns whole, so completed work must be saved
        before the failure propagates or a re-run would recompute it).

        Best-effort because it only ever runs while a job failure or
        interrupt is already propagating: a cache write error here
        (disk full, dead server) must cost the salvage, never displace
        the primary error and its culprit attribution.
        """
        try:
            self._store({job_digest(job): result.payload()
                         for job, result in zip(jobs, results)
                         if result is not None})
        # repro-lint: disable=BROAD-EXCEPT -- best-effort persist while a batch failure is already propagating; logged, and the primary error keeps its attribution
        except Exception:
            _LOGGER.warning(
                "failed to persist completed results while a batch "
                "failure was propagating; the re-run will recompute "
                "them", exc_info=True)

    def _run(self, jobs: Sequence[BatchJob]) -> list[JobResult]:
        """Execute ``jobs`` on the configured executor, results in
        job order.

        The failure contract, uniform across executors: a job failure
        (or a died worker) first drains and persists everything that
        completed, then raises a :class:`~repro.errors.BatchError`
        naming the culprit; a ``KeyboardInterrupt`` gets the same
        salvage but propagates as itself.
        """
        slots: list[JobResult | None] = [None] * len(jobs)
        for position, job in enumerate(jobs):
            self._trace_job("enqueue", position, job)
        stream = self.executor.run(jobs)
        try:
            for position, result in stream:
                slots[position] = result
                self._trace_job(
                    "finish", position, jobs[position], outcome="ok",
                    seconds=getattr(result, "wall_seconds", None))
        except BaseException as error:
            # Stop paying for what never started, persist everything
            # that did complete (including in-flight completions the
            # shutdown drains), and -- for a job failure, as opposed
            # to a KeyboardInterrupt -- name the culprit.
            for position, result in stream.shutdown().items():
                slots[position] = result
            self._persist(jobs, slots)
            if isinstance(error, JobFailure):
                failing = jobs[error.index]
                self._trace_job("finish", error.index, failing,
                                outcome="failed")
                raise _job_failure(failing, job_digest(failing),
                                   error.cause) from error.cause
            raise
        stream.shutdown()  # release executor resources (no-op salvage)
        assert all(slot is not None for slot in slots)
        return slots  # type: ignore[return-value]

    def as_completed(self, jobs: Iterable) -> Iterator[tuple[int, Any]]:
        """Stream ``(index, result)`` pairs in completion order.

        The streaming counterpart of :meth:`compile`: cache hits are
        yielded immediately during the initial scan; misses fan out
        (over the process pool when ``n_workers > 1``) and are yielded
        as workers finish.  Identical jobs inside the batch (same
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
                yield index, dataclasses.replace(
                    result, name=jobs[index].name, from_cache=True)

        digests = list(pending)
        for position, digest in enumerate(digests):
            self._trace_job("enqueue", position, pending_jobs[digest],
                            digest=digest)
        stream = self.executor.run([pending_jobs[digest]
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
            salvage = {
                digests[position]: result.payload()
                for position, result in stream.shutdown().items()
                if digests[position] not in persisted}
            try:
                self._store(salvage)
            # repro-lint: disable=BROAD-EXCEPT -- teardown salvage is best-effort; a cache write error must not displace what is propagating
            except Exception:
                # Teardown salvage is best-effort: a cache write
                # error must not displace whatever is already
                # propagating.
                _LOGGER.warning(
                    "failed to persist %d completed result(s) "
                    "during stream teardown", len(salvage),
                    exc_info=True)

    def run_iter(self, jobs: Iterable) -> Iterator[Any]:
        """Stream results in job order, each as soon as it is ready.

        A reorder buffer over :meth:`as_completed`: result ``i`` is
        held back until every result before it has been yielded, so
        callers get streaming delivery with deterministic ordering.
        """
        buffered: dict[int, Any] = {}
        next_index = 0
        for index, result in self.as_completed(jobs):
            buffered[index] = result
            while next_index in buffered:
                yield buffered.pop(next_index)
                next_index += 1

    def compile_suite(self, suite: str, spec: AguSpec,
                      config: AllocatorConfig | None = None, *,
                      run_simulation: bool = True,
                      n_iterations: int | None = None,
                      include_baseline: bool = False) -> BatchReport:
        """Compile a named kernel suite in one batch."""
        return self.compile(jobs_from_suite(
            suite, spec, config, run_simulation=run_simulation,
            n_iterations=n_iterations, include_baseline=include_baseline))
