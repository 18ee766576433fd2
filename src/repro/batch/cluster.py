"""Distributed execution for the batch engine: multi-host workers.

The cache service (:mod:`repro.batch.service`) made *results* shareable
across hosts; this module shares the *compute*.  Three pieces close the
loop:

* :class:`JobServer` -- a TCP broker (the ``repro-agu job-serve``
  subcommand) that queues picklable batch jobs and leases them out,
  largest size hint first, to any number of connected workers.  Leases
  carry a timeout: a worker that dies mid-job (its connection drops) or
  goes silent (the lease expires) gets its job requeued and re-leased
  to the next free worker, so a batch survives worker loss.  The
  server never unpickles a job -- payloads are routed as opaque bytes
  between the client that submitted them and the worker that executes
  them.
* :class:`Worker` -- the execution loop behind the ``repro-agu
  worker`` subcommand: connect, lease, execute via the engine's
  standard :func:`~repro.batch.engine.execute_any` job contract,
  stream the result back, repeat.
* :class:`ClusterExecutor` -- the client backend that plugs the fleet
  into :class:`~repro.batch.engine.BatchCompiler` through the
  :class:`~repro.batch.engine.Executor` seam
  (``open_executor("tcp://host:port")`` / ``--executor`` on the CLI),
  so every experiment runner gains multi-host execution unchanged.

Wire protocol: the length-prefixed JSON framing of
:mod:`repro.batch.service`, served by its
:class:`~repro.batch.service.FrameServer`.  Jobs and results travel as
base64-encoded pickles inside the JSON frames; requests carry an
``op`` from :attr:`JobServer.OPS` (workers) or
:attr:`JobServer.STREAM_OPS` (submitting clients), and a submitted
batch's results are *pushed* to the client as :data:`EVENTS` frames in
completion order.

Failure philosophy: compute, unlike the cache, is not optional -- a
dead or unreachable job server fails the batch loudly with a
:class:`~repro.errors.BatchError` (no silent degradation).  A job
whose *execution* raises is never requeued (a deterministic failure
would loop forever); the failure streams back and aborts the batch
with the engine's standard job attribution, after in-flight survivors
finish and persist.  A job whose *worker* dies is requeued up to
``max_attempts`` times, then reported as failed.

Security note: workers unpickle and execute whatever the server hands
them, and the server relays whatever clients submit.  Run the trio
only on hosts and networks you trust with arbitrary code execution --
the same trust the fleet already grants a shared filesystem or a
deployment system.
"""

from __future__ import annotations

import base64
import itertools
import logging
import math
import os
import pickle
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.batch.engine import (
    ExecutionStream,
    Executor,
    JobFailure,
    execute_any,
    job_size_hint,
)
from repro.batch.trace import open_tracer
from repro.batch.service import (
    FrameServer,
    FrameTooLargeError,
    Op,
    _close_socket,
    field_or,
    format_endpoint,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.errors import BatchError

_LOGGER = logging.getLogger("repro.batch.cluster")

#: Hard cap on one blocking lease wait, so a worker poll can never pin
#: a handler thread indefinitely (workers re-poll in a loop anyway).
MAX_LEASE_WAIT = 30.0

#: The event frames a ``submit`` connection's result stream carries,
#: kind -> payload fields beyond ``event``, in completion order until
#: a terminal ``done`` (every job resolved) or ``aborted`` (the batch
#: failed, was cancelled, or lost its client).
EVENTS: dict[str, tuple[str, ...]] = {
    "result": ("index", "result"),
    "failed": ("index", "error", "error_type"),
    "heartbeat": (),
    "done": (),
    "aborted": (),
}


def encode_payload(obj: Any) -> str:
    """A picklable object as a base64 string (frame-embeddable)."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_payload(text: str) -> Any:
    """Rebuild an object from :func:`encode_payload` output."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


class RemoteJobError(BatchError):
    """A job failed on a remote worker.

    Carries the worker-side exception's type name and message (the
    traceback object itself cannot cross the wire); the engine wraps
    this into its standard job-attributed
    :class:`~repro.errors.BatchError`, so callers see the same failure
    shape as for a local run.
    """

    def __init__(self, message: str, *, error_type: str = "Exception"):
        super().__init__(message)
        self.error_type = error_type


@dataclass
class ClusterStats:
    """Lifetime counters of one :class:`JobServer` (monotonic)."""

    #: Batches accepted from clients.
    batches: int = 0
    #: Jobs accepted across all batches.
    jobs: int = 0
    #: Jobs that completed with a result.
    completed: int = 0
    #: Jobs that failed on a worker (execution raised).
    failed: int = 0
    #: Leases requeued after a worker death or lease expiry.
    requeued: int = 0
    #: Jobs dropped unrun (batch cancelled, failed, or abandoned).
    dropped: int = 0
    #: Worker reports that arrived after their lease was superseded.
    stale: int = 0

    def __str__(self) -> str:
        return (f"{self.batches} batch(es), {self.jobs} job(s): "
                f"{self.completed} completed, {self.failed} failed, "
                f"{self.requeued} requeued, {self.dropped} dropped, "
                f"{self.stale} stale")


@dataclass
class _Lease:
    """One leased job: who may complete it, and since when.

    Carries the opaque job payload so a requeue (worker death, lease
    expiry) can put the job back on the ready queue without help from
    the submitting client.
    """

    lease_id: str
    batch_id: str
    index: int
    payload: str
    owner: object
    leased_at: float


@dataclass
class _Batch:
    """Server-side state of one submitted batch."""

    batch_id: str
    #: Opaque job payloads by index (only unleased ones remain here).
    payloads: dict[int, str]
    #: Indices not yet resolved (result, failure, or drop).
    unresolved: set[int]
    #: Events to push to the submitting client, in completion order.
    events: queue.Queue
    #: ``running`` -> ``failing`` (a job failed) / ``cancelled`` (the
    #: client asked to stop) / ``dead`` (the client connection is
    #: gone; in-flight results are discarded).
    state: str = "running"
    #: Lease attempts per index (requeue bookkeeping).
    attempts: dict[int, int] = field(default_factory=dict)
    #: Optional per-index display names from the submit frame's hints.
    names: list | None = None


class JobServer(FrameServer):
    """Queue batch jobs and lease them to a fleet of workers over TCP.

    A connection's first frame decides its role: ``submit`` turns it
    into that batch's result stream (:attr:`STREAM_OPS`,
    :data:`EVENTS`); anything else makes it a worker (or diagnostic)
    connection whose frames :attr:`OPS` answers.

    Parameters
    ----------
    host, port:
        As for :class:`~repro.batch.service.FrameServer`.
    lease_timeout:
        Seconds a worker may hold a lease before the job is presumed
        lost and requeued.  Size it above the slowest expected job: a
        healthy job that outlives it is re-run elsewhere (its late
        result is acknowledged stale), and one that outlives it
        ``max_attempts`` times fails the batch with ``WorkerLost``.
    max_attempts:
        Lease attempts per job before the server gives up and reports
        the job failed (guards against a job that kills every worker
        it touches).
    heartbeat:
        Quiet-connection keepalive interval of the client result
        stream.
    idle_timeout:
        Seconds a connection may sit idle between frames before the
        server closes it (``None`` disables the timeout).  Size it
        above the slowest expected job *and* above ``lease_timeout``:
        a worker is silent for the whole run of a job, and dropping a
        slow-but-healthy worker costs duplicate compute (its leases
        requeue on disconnect) though never correctness.  Client
        result streams are not subject to the read timeout -- an idle
        submitting client is normal; a dead one is detected when the
        heartbeat send backs up.
    trace:
        Trace sink (path, stream, or a shared
        :class:`~repro.batch.trace.Tracer`); ``None`` disables
        tracing at zero cost.  See :mod:`repro.batch.trace` for the
        event schema.
    clock:
        Monotonic clock; injectable for deterministic tests.
    auto_reap:
        Start the background lease reaper.  Tests pass ``False`` and
        drive :meth:`reap_expired_leases` by hand under a virtual
        clock.

    Jobs are leased largest size hint first, so one big job cannot
    land last and serialize the tail of its batch.  Size hints ride in
    the submit frame (the server still never unpickles a payload);
    jobs without a usable hint keep submission order after the hinted
    ones, so an unhinted batch is served first come first served.

    Run blocking with :meth:`serve_forever` (the CLI does) or on a
    background thread via :meth:`start` / the context-manager form
    (tests and benchmarks do).

    Example::

        >>> from repro.batch.cluster import JobServer, Worker
        >>> from repro.batch.engine import BatchCompiler
        >>> with JobServer() as server:           # doctest: +SKIP
        ...     # start `repro-agu worker tcp://...` processes, then:
        ...     compiler = BatchCompiler(executor=server.endpoint)
    """

    OPS = {
        "ping": Op("_op_ping", "Liveness probe.", response=("server",)),
        "status": Op("_op_status", "Queue, lease, and fleet counters "
                     "(diagnostic; no in-repo sender).",
                     response=("workers", "queued", "leased", "batches",
                               "completed", "failed", "requeued",
                               "stale", "lease_timeout")),
        "lease": Op("_op_lease", "Lease the next queued job, waiting up "
                    "to `wait` seconds (>= 0, capped at 30) for one; "
                    "`idle` when none came.",
                    optional={"wait": "number"},
                    response=("lease", "batch", "index", "job", "idle")),
        "complete": Op("_op_complete", "Report a leased job's result (a "
                       "base64 pickle); `stale` when the lease was "
                       "superseded.  A `seconds` that is not a finite "
                       "non-negative number is ignored.",
                       required={"lease": "string", "result": "string"},
                       optional={"seconds": None}, response=("stale",)),
        "fail": Op("_op_fail", "Report that a leased job raised; `stale` "
                   "as for `complete`.", required={"lease": "string"},
                   optional={"error": "string", "error_type": "string",
                             "seconds": None},
                   response=("stale",)),
    }
    #: The ops of a submitting client's connection.  ``submit`` must be
    #: its first frame and turns it into the batch's result stream; a
    #: ``cancel`` may follow at any time.  Not routed through
    #: :meth:`handle_worker_request`.
    STREAM_OPS = {
        "submit": Op("_stream_batch", "Queue a batch of jobs (a non-empty "
                     "list of base64 pickles) and stream its events back "
                     "on this connection.  Malformed advisory `hints` "
                     "(per-job name/size) are ignored.",
                     required={"jobs": "list"}, optional={"hints": None},
                     response=("batch", "n_jobs", "workers")),
        "cancel": Op("cancel_batch", "Stop scheduling the streamed batch: "
                     "queued jobs drop, leased ones finish and stream "
                     "back.  Answered by the stream, not a response "
                     "frame."),
    }
    thread_name = "repro-job-server"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 lease_timeout: float = 60.0, max_attempts: int = 3,
                 heartbeat: float = 2.0,
                 idle_timeout: float | None = 600.0,
                 trace: Any = None,
                 clock: Callable[[], float] = time.monotonic,
                 auto_reap: bool = True):
        if lease_timeout <= 0:
            raise BatchError(
                f"lease_timeout must be > 0 seconds, got {lease_timeout}")
        if max_attempts < 1:
            raise BatchError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.heartbeat = float(heartbeat)
        self.auto_reap = bool(auto_reap)
        self.stats = ClusterStats()
        self._clock = clock
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._batches: dict[str, _Batch] = {}
        self._ready: deque[tuple[str, int]] = deque()
        self._leases: dict[str, _Lease] = {}
        self._workers: set[object] = set()
        self._worker_names: dict[object, str] = {}
        self._worker_ids = itertools.count(1)
        self._ids = itertools.count(1)
        super().__init__(host, port, idle_timeout)
        self._trace = open_tracer(
            trace, source="job-server", clock=clock,
            meta={"endpoint": self.endpoint,
                  "lease_timeout": self.lease_timeout})
        # The reaper waits on _stop_reaping, so shutdown wakes it at
        # once instead of blocking for a whole reap interval.
        self._stop_reaping = threading.Event()
        self._reaper = threading.Thread(
            target=self._reap_forever, name="repro-job-reaper",
            daemon=True) if self.auto_reap else None

    @property
    def n_connected_workers(self) -> int:
        """Workers currently connected (lease loops, not leases)."""
        with self._lock:
            return len(self._workers)

    # -- connections (handler threads) ---------------------------------
    def handle_connection(self, sock: socket.socket) -> None:
        """Per-connection hook: a ``submit`` first frame makes this a
        result stream; any other makes it a worker connection, whose
        frames the shared frame loop answers and whose leases are
        requeued when it goes away.

        For workers the idle timeout spans one job's execution (the
        recv gap), so it must be sized above the slowest job.
        """
        try:
            first = recv_frame(sock)
        except (BatchError, OSError):
            return
        if first is None:
            return
        if first.get("op") == "submit":
            self._stream_batch(sock, first)
            return
        try:
            self.answer_frames(
                sock, lambda request: self.handle_worker_request(
                    request, owner=sock), first)
        finally:
            # A vanished worker must not strand its leases: requeue
            # them so another worker picks the jobs up.
            self.release_worker(sock)

    def _stream_batch(self, sock: socket.socket, submit: dict) -> None:
        """Queue a submitted batch, then push its events on ``sock``
        until a terminal one, while a side thread watches for
        ``cancel`` (or the client hanging up)."""
        problem = self.STREAM_OPS["submit"].check("submit", submit)
        jobs = submit.get("jobs")
        if problem is None and (not jobs or not all(
                isinstance(payload, str) for payload in jobs)):
            problem = "'submit' needs a non-empty list of job payloads"
        if problem is not None:
            try:
                send_frame(sock, {"ok": False, "error": problem})
            except (BatchError, OSError):
                pass
            return
        batch = self.create_batch(jobs, hints=submit.get("hints"))
        try:
            send_frame(sock, {
                "ok": True, "batch": batch.batch_id, "n_jobs": len(jobs),
                "workers": self.n_connected_workers})
        except (BatchError, OSError):
            self.kill_batch(batch.batch_id)
            return

        def watch_for_cancel() -> None:
            try:
                while True:
                    try:
                        frame = recv_frame(sock)
                    except TimeoutError:
                        # An idle *client* is healthy: it sends nothing
                        # while results stream back, so the idle
                        # timeout must not kill its batch.  A truly
                        # dead client is caught by the heartbeat send
                        # below filling the socket buffer.
                        continue
                    if frame is None:
                        break
                    if frame.get("op") == "cancel":
                        self.cancel_batch(batch.batch_id)
            except (BatchError, OSError):
                pass
            # EOF or a broken pipe: the client cannot receive results
            # anymore, so in-flight completions are discarded.
            self.kill_batch(batch.batch_id)

        threading.Thread(target=watch_for_cancel,
                         name="repro-job-client-watch",
                         daemon=True).start()
        while True:
            try:
                event = batch.events.get(timeout=self.heartbeat)
            except queue.Empty:
                event = {"event": "heartbeat"}
            try:
                send_frame(sock, event)
            except FrameTooLargeError:
                # One oversized result must not desync the stream (no
                # bytes were sent): report that job as failed instead.
                try:
                    send_frame(sock, {
                        "event": "failed", "index": event.get("index"),
                        "error": "result too large for one protocol "
                                 "frame", "error_type": "FrameTooLarge"})
                except (BatchError, OSError):
                    self.kill_batch(batch.batch_id)
                    return
            except (BatchError, OSError):
                self.kill_batch(batch.batch_id)
                return
            if event.get("event") in ("done", "aborted"):
                return

    def _worker_name_locked(self, owner: object) -> str:
        name = self._worker_names.get(owner)
        if name is None:
            name = f"w{next(self._worker_ids)}"
            self._worker_names[owner] = name
            self._trace.emit("worker_join", worker=name)
        return name

    def register_worker(self, owner: object) -> None:
        """Note a live worker connection.  Called on the first
        ``lease`` op, not on connect, so diagnostic connections
        (``ping``/``status`` probes) never inflate the worker count
        reported to clients."""
        with self._lock:
            self._workers.add(owner)
            self._worker_name_locked(owner)

    def release_worker(self, owner: object) -> None:
        """Worker connection gone: requeue every lease it still held."""
        with self._lock:
            self._workers.discard(owner)
            stranded = [lease for lease in self._leases.values()
                        if lease.owner is owner]
            for lease in stranded:
                self._requeue_locked(lease, reason="worker disconnected")
            name = self._worker_names.pop(owner, None)
            if name is not None:
                self._trace.emit("worker_leave", worker=name)

    # -- the scheduler (all under self._lock) --------------------------
    @staticmethod
    def _normalize_hints(hints: Any, n_jobs: int) -> tuple[list | None,
                                                           list | None]:
        """Submit-frame ``hints`` -> parallel name/size lists.

        Hints are advisory: anything malformed (wrong length, wrong
        types) is silently ignored rather than failing the batch.
        """
        if not isinstance(hints, list) or len(hints) != n_jobs:
            return None, None
        names: list = []
        sizes: list = []
        for hint in hints:
            entry = hint if isinstance(hint, dict) else {}
            name = entry.get("name")
            size = entry.get("size")
            names.append(name if isinstance(name, str) else None)
            sizes.append(float(size)
                         if isinstance(size, (int, float))
                         and not isinstance(size, bool) else None)
        if not any(name is not None for name in names):
            names = None
        if not any(size is not None for size in sizes):
            sizes = None
        return names, sizes

    @staticmethod
    def _schedule_order(sizes: list | None, n_jobs: int) -> list[int]:
        indices = list(range(n_jobs))
        if not sizes:
            return indices
        # Largest hinted job first; unhinted jobs keep submission
        # order after every hinted one (the sort is stable).
        indices.sort(key=lambda index: (
            0, -sizes[index]) if sizes[index] is not None else (1, 0))
        return indices

    def create_batch(self, payloads: Sequence[str],
                     hints: Any = None) -> _Batch:
        """Register a submitted batch and queue its jobs, largest
        size hint first."""
        names, sizes = self._normalize_hints(hints, len(payloads))
        with self._lock:
            batch_id = f"b{next(self._ids)}"
            batch = _Batch(
                batch_id=batch_id,
                payloads=dict(enumerate(payloads)),
                unresolved=set(range(len(payloads))),
                events=queue.Queue(),
                names=names)
            self._batches[batch_id] = batch
            order = self._schedule_order(sizes, len(payloads))
            self._ready.extend((batch_id, index) for index in order)
            if self._trace.enabled:
                for index in range(len(payloads)):
                    fields: dict = {"batch": batch_id, "index": index}
                    if names and names[index] is not None:
                        fields["name"] = names[index]
                    if sizes and sizes[index] is not None:
                        fields["size"] = sizes[index]
                    self._trace.emit("enqueue", **fields)
            self.stats.batches += 1
            self.stats.jobs += len(payloads)
            self._work.notify_all()
            return batch

    def _pop_ready_locked(self) -> tuple[_Batch, int] | None:
        while self._ready:
            batch_id, index = self._ready.popleft()
            batch = self._batches.get(batch_id)
            if batch is None or batch.state != "running" \
                    or index not in batch.payloads:
                continue
            return batch, index
        return None

    def lease(self, owner: object, wait: float) -> dict:
        """Lease the next queued job to ``owner``; blocks up to
        ``wait`` seconds (capped) when the queue is empty.  (The block
        itself is real time even under an injected virtual clock --
        deterministic tests lease with ``wait=0``.)"""
        deadline = self._clock() + max(0.0, min(wait, MAX_LEASE_WAIT))
        with self._lock:
            while True:
                entry = self._pop_ready_locked()
                if entry is not None:
                    batch, index = entry
                    payload = batch.payloads.pop(index)
                    lease = _Lease(
                        lease_id=f"l{next(self._ids)}",
                        batch_id=batch.batch_id, index=index,
                        payload=payload, owner=owner,
                        leased_at=self._clock())
                    self._leases[lease.lease_id] = lease
                    batch.attempts[index] = \
                        batch.attempts.get(index, 0) + 1
                    if self._trace.enabled:
                        self._trace.emit(
                            "lease", batch=batch.batch_id, index=index,
                            lease=lease.lease_id,
                            worker=self._worker_name_locked(owner),
                            attempt=batch.attempts[index])
                    return {"ok": True, "lease": lease.lease_id,
                            "batch": batch.batch_id, "index": index,
                            "job": payload}
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return {"ok": True, "idle": True}
                self._work.wait(remaining)

    def _take_lease_locked(self, lease_id: str) -> _Lease | None:
        return self._leases.pop(lease_id, None)

    def _stale_locked(self, lease_id: str,
                      lease: _Lease | None) -> dict:
        self.stats.stale += 1
        if self._trace.enabled:
            fields: dict = {"lease": lease_id}
            if lease is not None:
                fields.update(batch=lease.batch_id, index=lease.index)
            self._trace.emit("stale_result", **fields)
        return {"ok": True, "stale": True}

    @staticmethod
    def _worker_seconds(seconds: Any) -> float | None:
        """A worker-reported ``seconds`` when it is a finite,
        non-negative, non-bool number, else ``None`` -- so a trace line
        never carries ``Infinity``/``NaN`` (not valid JSON)."""
        if isinstance(seconds, (int, float)) \
                and not isinstance(seconds, bool) \
                and math.isfinite(seconds) and seconds >= 0:
            return float(seconds)
        return None

    def complete(self, lease_id: str, result_payload: str,
                 seconds: float | None = None) -> dict:
        """Accept a worker's result; stale leases are acknowledged but
        ignored (the job was requeued and already resolved, or its
        batch is gone).  ``seconds`` is the worker's self-timed
        execution duration, recorded in the trace (anything
        unusable falls back to the server-side lease age)."""
        with self._lock:
            lease = self._take_lease_locked(lease_id)
            if lease is None:
                return self._stale_locked(lease_id, None)
            batch = self._batches.get(lease.batch_id)
            if batch is None or lease.index not in batch.unresolved:
                return self._stale_locked(lease_id, lease)
            self.stats.completed += 1
            if batch.state != "dead":
                batch.events.put({"event": "result",
                                  "index": lease.index,
                                  "result": result_payload})
            if self._trace.enabled:
                elapsed = self._worker_seconds(seconds)
                if elapsed is None:
                    elapsed = max(0.0, self._clock() - lease.leased_at)
                self._trace.emit(
                    "finish", batch=lease.batch_id, index=lease.index,
                    lease=lease_id,
                    worker=self._worker_names.get(lease.owner),
                    outcome="ok", seconds=round(elapsed, 9))
            self._resolve_locked(batch, lease.index)
            return {"ok": True}

    def fail(self, lease_id: str, error: str, error_type: str,
             seconds: float | None = None) -> dict:
        """Accept a worker's job-failure report: the batch stops
        scheduling new jobs, in-flight ones drain, queued ones drop."""
        with self._lock:
            lease = self._take_lease_locked(lease_id)
            if lease is None:
                return self._stale_locked(lease_id, None)
            batch = self._batches.get(lease.batch_id)
            if batch is None or lease.index not in batch.unresolved:
                return self._stale_locked(lease_id, lease)
            self.stats.failed += 1
            if batch.state == "running":
                batch.state = "failing"
            self._drop_queued_locked(batch)
            if batch.state != "dead":
                batch.events.put({"event": "failed",
                                  "index": lease.index,
                                  "error": error,
                                  "error_type": error_type})
            if self._trace.enabled:
                fields: dict = {
                    "batch": lease.batch_id, "index": lease.index,
                    "lease": lease_id,
                    "worker": self._worker_names.get(lease.owner),
                    "outcome": "failed", "error_type": error_type}
                elapsed = self._worker_seconds(seconds)
                if elapsed is not None:
                    fields["seconds"] = round(elapsed, 9)
                self._trace.emit("finish", **fields)
            self._resolve_locked(batch, lease.index)
            return {"ok": True}

    def cancel_batch(self, batch_id: str) -> None:
        """Client-requested stop: queued jobs drop, leased jobs finish
        and stream back (the client drains them for salvage)."""
        with self._lock:
            batch = self._batches.get(batch_id)
            if batch is None:
                return
            if batch.state == "running":
                batch.state = "cancelled"
            self._drop_queued_locked(batch)
            self._check_terminal_locked(batch)

    def kill_batch(self, batch_id: str) -> None:
        """The client is gone: drop queued jobs and discard whatever
        the in-flight leases still produce."""
        with self._lock:
            batch = self._batches.pop(batch_id, None)
            if batch is None:
                return
            batch.state = "dead"
            self._drop_queued_locked(batch)
            # Unblock a push loop waiting on the events queue.
            batch.events.put({"event": "aborted"})

    def _drop_queued_locked(self, batch: _Batch) -> None:
        for index in list(batch.payloads):
            del batch.payloads[index]
            batch.unresolved.discard(index)
            self.stats.dropped += 1
            if self._trace.enabled:
                self._trace.emit("drop", batch=batch.batch_id,
                                 index=index)

    def _resolve_locked(self, batch: _Batch, index: int) -> None:
        batch.unresolved.discard(index)
        self._check_terminal_locked(batch)

    def _check_terminal_locked(self, batch: _Batch) -> None:
        if batch.unresolved:
            return
        terminal = "done" if batch.state == "running" else "aborted"
        if batch.state != "dead":
            batch.events.put({"event": terminal})
        self._batches.pop(batch.batch_id, None)

    def _trace_lease_end_locked(self, lease: _Lease, *, expired: bool,
                                reason: str, requeued: bool) -> None:
        # Lease-lifecycle invariant: every popped lease gets exactly
        # one terminal trace event (finish / expire / requeue).
        if not self._trace.enabled:
            return
        self._trace.emit(
            "expire" if expired else "requeue",
            batch=lease.batch_id, index=lease.index,
            lease=lease.lease_id,
            worker=self._worker_names.get(lease.owner),
            reason=reason, requeued=requeued)

    def _requeue_locked(self, lease: _Lease, reason: str,
                        expired: bool = False) -> None:
        if self._leases.pop(lease.lease_id, None) is None:
            return  # already resolved or requeued by another path
        batch = self._batches.get(lease.batch_id)
        if batch is None or lease.index not in batch.unresolved:
            self._trace_lease_end_locked(
                lease, expired=expired, reason=reason, requeued=False)
            return
        if batch.state != "running":
            # A draining batch has no use for a re-run: resolve the
            # slot as dropped so the terminal event can fire.
            self.stats.dropped += 1
            self._trace_lease_end_locked(
                lease, expired=expired, reason=reason, requeued=False)
            self._resolve_locked(batch, lease.index)
            return
        if batch.attempts.get(lease.index, 0) >= self.max_attempts:
            _LOGGER.warning(
                "giving up on job %d of batch %s after %d lease(s)",
                lease.index, batch.batch_id, self.max_attempts)
            self.stats.failed += 1
            batch.state = "failing"
            self._trace_lease_end_locked(
                lease, expired=expired, reason=reason, requeued=False)
            self._drop_queued_locked(batch)
            batch.events.put({
                "event": "failed", "index": lease.index,
                "error": f"job lost {self.max_attempts} worker(s) "
                         f"({reason}); giving up",
                "error_type": "WorkerLost"})
            self._resolve_locked(batch, lease.index)
            return
        _LOGGER.info("requeueing job %d of batch %s (%s)",
                     lease.index, batch.batch_id, reason)
        self.stats.requeued += 1
        self._trace_lease_end_locked(
            lease, expired=expired, reason=reason, requeued=True)
        # Recover the payload from the lease-time snapshot: payloads
        # are popped at lease time, so stash it back via the lease.
        batch.payloads[lease.index] = lease.payload
        self._ready.appendleft((lease.batch_id, lease.index))
        self._work.notify()

    def _queued_locked(self) -> int:
        return sum(1 for batch_id, index in self._ready
                   if batch_id in self._batches
                   and index in self._batches[batch_id].payloads)

    def reap_expired_leases(self) -> int:
        """One scheduler maintenance sweep: requeue every lease older
        than ``lease_timeout`` and trace a ``heartbeat``.  The
        background reaper calls this periodically; deterministic tests
        call it directly after advancing their virtual clock.  Returns
        how many leases were reaped."""
        with self._lock:
            now = self._clock()
            expired = [lease for lease in self._leases.values()
                       if now - lease.leased_at > self.lease_timeout]
            for lease in expired:
                self._requeue_locked(lease, reason="lease expired",
                                     expired=True)
            if self._trace.enabled:
                self._trace.emit(
                    "heartbeat", queued=self._queued_locked(),
                    leased=len(self._leases),
                    workers=len(self._workers),
                    lease_timeout=self.lease_timeout)
            return len(expired)

    # -- the worker-facing protocol ------------------------------------
    def handle_worker_request(self, request: dict,
                              owner: object) -> dict:
        """Answer one worker/diagnostic frame through :attr:`OPS`;
        ``owner`` is the connection that holds any lease it takes
        (exposed for protocol tests)."""
        return self.handle_request(request, owner)

    def _op_ping(self, request: dict, owner: object) -> dict:
        return {"ok": True, "server": "repro-agu job-serve"}

    def _op_status(self, request: dict, owner: object) -> dict:
        with self._lock:
            return {"ok": True, "workers": len(self._workers),
                    "queued": self._queued_locked(),
                    "leased": len(self._leases),
                    "batches": len(self._batches),
                    "completed": self.stats.completed,
                    "failed": self.stats.failed,
                    "requeued": self.stats.requeued,
                    "stale": self.stats.stale,
                    "lease_timeout": self.lease_timeout}

    def _op_lease(self, request: dict, owner: object) -> dict:
        wait = field_or(request, "wait", 0.0)
        if wait < 0:
            return {"ok": False,
                    "error": "'lease' needs a non-negative 'wait'"}
        self.register_worker(owner)
        return self.lease(owner, float(wait))

    def _op_complete(self, request: dict, owner: object) -> dict:
        return self.complete(request["lease"], request["result"],
                             seconds=request.get("seconds"))

    def _op_fail(self, request: dict, owner: object) -> dict:
        return self.fail(request["lease"],
                         field_or(request, "error", "unknown error"),
                         field_or(request, "error_type", "Exception"),
                         seconds=request.get("seconds"))

    # -- lifecycle -----------------------------------------------------
    def _reap_forever(self) -> None:
        interval = max(0.1, min(1.0, self.lease_timeout / 4))
        while not self._stop_reaping.wait(interval):
            try:
                self.reap_expired_leases()
            # repro-lint: disable=BROAD-EXCEPT -- the reaper must outlive any one bad iteration; the failure is logged, not hidden
            except Exception:  # pragma: no cover - belt and braces
                _LOGGER.exception("lease reaper iteration failed")

    def _before_serving(self) -> None:
        if self._reaper is not None:
            self._reaper.start()

    def _after_shutdown(self) -> None:
        """Clients see the closed connections as a loud batch failure
        and workers exit their loops; stop the reaper and the trace."""
        self._stop_reaping.set()
        if self._reaper is not None and self._reaper.is_alive():
            self._reaper.join(timeout=5.0)
        self._trace.close()

# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
class Worker:
    """Lease-execute-report loop against a :class:`JobServer`.

    The execution contract is exactly the engine's: a leased job runs
    through :func:`~repro.batch.engine.execute_any` (so ``BatchJob``
    compilation units, statistical grid points, and experiment points
    all work), its result streams back pickled, and an execution
    exception is reported as a job failure -- never retried, never
    fatal to the worker.

    Parameters
    ----------
    host, port:
        The job server to serve.
    poll:
        Seconds one blocking lease request waits server-side before
        answering "idle" (the worker then immediately re-polls).
    timeout:
        Per-request socket timeout; must exceed ``poll``.
    max_jobs:
        Exit after the server *accepts* this many job outcomes
        (``None`` = run forever).  Stale outcomes -- results the
        server already got elsewhere after a lease expiry -- do not
        consume slots, so a fleet sized ``max_jobs = len(batch)``
        cannot exit early and strand the batch.
    idle_exit:
        Exit after this many consecutive seconds without *accepted*
        work (``None`` = run forever); what CI smokes and tests use.
        Stale outcomes do not reset the idle clock.
    connect_retry:
        Seconds to keep retrying the initial connection, so workers
        may start before their server.
    on_event:
        Optional callback ``(kind, detail)`` for per-job logging
        (kinds: ``connected``, ``executed``, ``failed``, ``stale``,
        ``idle``).
    trace:
        Trace sink (path, stream, or a shared
        :class:`~repro.batch.trace.Tracer`); ``None`` disables
        tracing.  The worker emits ``start``/``finish`` events with
        self-timed execution durations.
    clock:
        Monotonic clock; injectable for deterministic tests.

    Example::

        >>> from repro.batch.cluster import JobServer, Worker
        >>> with JobServer() as server:
        ...     worker = Worker(*server.address, max_jobs=0)
        ...     worker.run()
        0
    """

    def __init__(self, host: str, port: int, *, poll: float = 2.0,
                 timeout: float = 30.0, max_jobs: int | None = None,
                 idle_exit: float | None = None,
                 connect_retry: float = 10.0,
                 on_event: Callable[[str, str], None] | None = None,
                 trace: Any = None,
                 clock: Callable[[], float] = time.monotonic):
        if not 1 <= int(port) <= 65535:
            raise BatchError(
                f"job server port must be in 1..65535, got {port}")
        if timeout <= poll:
            raise BatchError(
                f"timeout ({timeout}) must exceed poll ({poll})")
        self.host = host
        self.port = int(port)
        self.poll = float(poll)
        self.timeout = float(timeout)
        self.max_jobs = max_jobs
        self.idle_exit = idle_exit
        self.connect_retry = float(connect_retry)
        self._on_event = on_event or (lambda kind, detail: None)
        self._clock = clock
        self._trace = open_tracer(
            trace, source="worker", clock=clock,
            meta={"endpoint": format_endpoint(host, int(port))})
        self._worker_label = f"pid{os.getpid()}"
        self._sock: socket.socket | None = None
        self._stopping = threading.Event()
        #: Outcomes the server accepted so far (readable mid-run and
        #: after interrupts); stale outcomes are counted separately.
        self.jobs_executed = 0
        #: Outcomes the server acknowledged as stale (the job was
        #: re-leased elsewhere first); they never consume ``max_jobs``.
        self.jobs_stale = 0

    @property
    def endpoint(self) -> str:
        """The served job server as a ``tcp://`` spec."""
        return format_endpoint(self.host, self.port)

    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + self.connect_retry
        while True:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
                sock.settimeout(self.timeout)
                return sock
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise BatchError(
                        f"cannot reach job server {self.endpoint}: "
                        f"{error}")
                time.sleep(0.2)

    def _request(self, message: dict) -> dict:
        if self._sock is None:
            self._sock = self._connect()
            self._on_event("connected", self.endpoint)
        try:
            send_frame(self._sock, message)
            response = recv_frame(self._sock)
        except FrameTooLargeError:
            # A local serialization limit: no bytes hit the socket,
            # the connection is still in protocol sync.  Callers (the
            # oversized-result path in run()) decide what to drop;
            # this is never "the server is gone".
            raise
        except (OSError, BatchError) as error:
            _close_socket(self._sock)
            self._sock = None
            raise BatchError(
                f"lost the job server {self.endpoint}: {error}")
        if response is None:
            _close_socket(self._sock)
            self._sock = None
            raise BatchError(
                f"job server {self.endpoint} closed the connection")
        if not response.get("ok"):
            raise BatchError(
                f"job server {self.endpoint} rejected {message.get('op')!r}: "
                f"{response.get('error')}")
        return response

    def close(self) -> None:
        """Drop the connection (idempotent)."""
        if self._sock is not None:
            _close_socket(self._sock)
            self._sock = None

    def stop(self) -> None:
        """Ask :meth:`run` to exit after its in-flight request
        (thread-safe; what the CLI's signal handler calls)."""
        self._stopping.set()

    def run(self) -> int:
        """Serve until a stop condition; returns accepted outcomes.

        Raises :class:`~repro.errors.BatchError` when the server goes
        away (after the initial ``connect_retry`` grace) -- unless
        :meth:`stop` was requested, which exits quietly.

        Accounting: only outcomes the server *accepts* count toward
        ``max_jobs`` or reset the ``idle_exit`` clock.  An outcome the
        server marks stale (the lease expired mid-execution and the
        job finished elsewhere first) lands in :attr:`jobs_stale`
        instead -- a worker racing concurrent lease expiry can
        therefore never burn its job budget on work the batch did not
        use, nor look busier than the batch considers it.
        """
        idle_since: float | None = None
        try:
            while not self._stopping.is_set() \
                    and (self.max_jobs is None
                         or self.jobs_executed < self.max_jobs):
                try:
                    response = self._request({"op": "lease",
                                              "wait": self.poll})
                except BatchError:
                    if self._stopping.is_set():
                        break
                    raise
                if response.get("idle"):
                    self._on_event("idle", "")
                    now = self._clock()
                    idle_since = idle_since if idle_since is not None \
                        else now
                    if self.idle_exit is not None \
                            and now - idle_since >= self.idle_exit:
                        break
                    continue
                lease_id = response["lease"]
                job = decode_payload(response["job"])
                name = getattr(job, "name", "<unnamed>")
                if self._trace.enabled:
                    self._trace.emit(
                        "start", lease=lease_id,
                        batch=response.get("batch"),
                        index=response.get("index"),
                        name=str(name), worker=self._worker_label)
                started = time.perf_counter()
                outcome = "ok"
                try:
                    result = execute_any(job)
                # repro-lint: disable=BROAD-EXCEPT -- not swallowed: the failure is reported to the job server, which fails the batch with attribution
                except Exception as error:
                    elapsed = time.perf_counter() - started
                    outcome = "failed"
                    reply = self._request({
                        "op": "fail", "lease": lease_id,
                        "error": str(error),
                        "error_type": type(error).__name__,
                        "seconds": elapsed})
                    self._on_event(
                        "failed",
                        f"{name}: {type(error).__name__}: {error}")
                else:
                    elapsed = time.perf_counter() - started
                    try:
                        reply = self._request({
                            "op": "complete", "lease": lease_id,
                            "result": encode_payload(result),
                            "seconds": elapsed})
                    except FrameTooLargeError as error:
                        # The result, not the server, is the problem:
                        # report the job failed instead of dying and
                        # taking the next worker down the same way.
                        outcome = "failed"
                        reply = self._request({
                            "op": "fail", "lease": lease_id,
                            "error": f"result too large for one "
                                     f"protocol frame: {error}",
                            "error_type": "FrameTooLarge",
                            "seconds": elapsed})
                        self._on_event(
                            "failed", f"{name}: result too large")
                accepted = not reply.get("stale")
                if self._trace.enabled:
                    self._trace.emit(
                        "finish", lease=lease_id, name=str(name),
                        worker=self._worker_label, outcome=outcome,
                        accepted=accepted,
                        seconds=round(elapsed, 9))
                if accepted:
                    if outcome == "ok":
                        self._on_event(
                            "executed",
                            f"{name} ({1000 * elapsed:.0f} ms)")
                    self.jobs_executed += 1
                    idle_since = None
                else:
                    self.jobs_stale += 1
                    self._on_event(
                        "stale",
                        f"{name}: outcome arrived after the lease "
                        f"was superseded")
        finally:
            self.close()
            self._trace.close()
        return self.jobs_executed


# ----------------------------------------------------------------------
# The executor-side client
# ----------------------------------------------------------------------
class _ClusterStream(ExecutionStream):
    """One submitted batch, streaming back from the job server."""

    def __init__(self, executor: "ClusterExecutor", jobs: Sequence):
        self._endpoint = executor.endpoint
        self._timeout = executor.timeout
        self._total = len(jobs)
        self._delivered: set[int] = set()
        self._terminal = False
        self._sock: socket.socket | None = None
        if not jobs:
            self._terminal = True
            return
        sock: socket.socket | None = None
        try:
            sock = socket.create_connection(
                (executor.host, executor.port), timeout=self._timeout)
            sock.settimeout(self._timeout)
            # Hints are advisory metadata for the server's scheduler
            # and tracer (names + size estimates); payloads stay
            # opaque, so this is the only job shape the server sees.
            hints = [{"name": str(getattr(job, "name", "")) or None,
                      "size": job_size_hint(job)} for job in jobs]
            send_frame(sock, {"op": "submit",
                              "jobs": [encode_payload(job)
                                       for job in jobs],
                              "hints": hints})
            ack = recv_frame(sock)
        except FrameTooLargeError as error:
            _close_socket(sock)
            raise BatchError(
                f"batch of {len(jobs)} job(s) does not fit one submit "
                f"frame ({error}); split the batch")
        except OSError as error:
            if sock is not None:
                _close_socket(sock)
            raise BatchError(
                f"cannot reach job server {self._endpoint}: {error} "
                f"(is `repro-agu job-serve` running?)")
        except BatchError as error:
            _close_socket(sock)
            raise BatchError(
                f"job server {self._endpoint} broke protocol during "
                f"submit: {error}")
        if ack is None or not ack.get("ok"):
            _close_socket(sock)
            raise BatchError(
                f"job server {self._endpoint} rejected the batch: "
                f"{(ack or {}).get('error', 'connection closed')}")
        self._sock = sock
        executor.n_workers = max(1, int(ack.get("workers", 1)))
        if int(ack.get("workers", 0)) < 1:
            # Compute is not optional, but an empty fleet is not an
            # error either -- workers may still be starting.  Say so
            # instead of waiting in silence.
            _LOGGER.warning(
                "job server %s has no connected workers yet; the "
                "batch will wait until `repro-agu worker %s` "
                "processes join", self._endpoint, self._endpoint)

    def _close(self) -> None:
        if self._sock is not None:
            _close_socket(self._sock)
            self._sock = None

    def _next_event(self) -> dict:
        assert self._sock is not None
        try:
            frame = recv_frame(self._sock)
        except socket.timeout:
            raise BatchError(
                f"job server {self._endpoint} went silent (no result "
                f"or heartbeat within {self._timeout:.0f} s)")
        except OSError as error:
            raise BatchError(
                f"lost the job server {self._endpoint}: {error}")
        if frame is None:
            raise BatchError(
                f"job server {self._endpoint} closed the connection "
                f"mid-batch")
        return frame

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        while not self._terminal:
            event = self._next_event()
            kind = event.get("event")
            if kind == "heartbeat":
                continue
            if kind == "result":
                index = int(event["index"])
                result = decode_payload(event["result"])
                self._delivered.add(index)
                yield index, result
                continue
            if kind == "failed":
                index = int(event.get("index") or 0)
                raise JobFailure(index, RemoteJobError(
                    f"{event.get('error_type', 'Exception')}: "
                    f"{event.get('error', 'unknown error')}",
                    error_type=str(event.get("error_type",
                                             "Exception"))))
            if kind in ("done", "aborted"):
                self._terminal = True
                self._close()
                return
            raise BatchError(
                f"job server {self._endpoint} sent an unknown event "
                f"{kind!r}")

    def shutdown(self) -> dict[int, Any]:
        if self._terminal or self._sock is None:
            self._close()
            return {}
        salvage: dict[int, Any] = {}
        try:
            # Ask the server to stop scheduling, then drain: leased
            # jobs finish on their workers and stream back, exactly
            # like a local pool's shutdown(wait=True).
            send_frame(self._sock, {"op": "cancel"})
            while True:
                event = self._next_event()
                kind = event.get("event")
                if kind == "result":
                    index = int(event["index"])
                    if index not in self._delivered:
                        salvage[index] = decode_payload(event["result"])
                        self._delivered.add(index)
                elif kind in ("done", "aborted"):
                    break
        except (OSError, BatchError):
            # Teardown is best-effort: a dead server mid-drain costs
            # the salvage, never displaces the propagating error.
            _LOGGER.warning(
                "lost the job server while draining a cancelled "
                "batch; in-flight results were not salvaged")
        finally:
            self._terminal = True
            self._close()
        return salvage


class ClusterExecutor(Executor):
    """Run batches on a multi-host worker fleet behind a job server.

    The :class:`~repro.batch.engine.Executor` backend of
    ``open_executor("tcp://HOST:PORT")`` and the CLI's ``--executor``:
    jobs are pickled to the server, leased to ``repro-agu worker``
    processes anywhere on the network, and results stream back in
    completion order.  Failure semantics match the local backends
    exactly -- a failing job aborts the batch with the engine's
    job-attributed :class:`~repro.errors.BatchError` after in-flight
    survivors finish and persist, and a worker death mid-job is
    invisible (the server requeues the lease).

    Unlike the cache client, a dead *server* fails the batch loudly:
    compute is not optional.

    Example::

        >>> from repro.batch.engine import BatchCompiler
        >>> compiler = BatchCompiler(              # doctest: +SKIP
        ...     executor="tcp://job-host:8742")
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0):
        if not 1 <= int(port) <= 65535:
            raise BatchError(
                f"job server port must be in 1..65535, got {port}")
        if timeout <= 0:
            raise BatchError(
                f"timeout must be > 0 seconds, got {timeout}")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        #: Updated per run from the server's connected-worker count.
        self.n_workers = 1

    @property
    def endpoint(self) -> str:
        """This executor's server as a ``tcp://`` spec."""
        return format_endpoint(self.host, self.port)

    def __repr__(self) -> str:
        return f"ClusterExecutor({self.endpoint!r})"

    def run(self, jobs: Sequence) -> ExecutionStream:
        """Submit ``jobs`` to the server; returns the result stream."""
        return _ClusterStream(self, jobs)


#: ``?key=value`` options ``tcp://`` executor specs may carry.
_EXECUTOR_OPTIONS = {"timeout": float}


def cluster_executor_from_spec(text: str) -> ClusterExecutor:
    """``tcp://HOST:PORT[?timeout=S]`` -> a :class:`ClusterExecutor`
    (what :func:`~repro.batch.engine.open_executor` delegates to).
    The spec grammar is the batch layer's shared
    :func:`~repro.batch.service.parse_endpoint`."""
    host, port, options = parse_endpoint(text, _EXECUTOR_OPTIONS)
    return ClusterExecutor(host, port, **options)
