"""Compile-as-a-service: a persistent TCP front door for the compiler.

Everything below :mod:`repro.batch` is batch-shaped -- submit a list,
wait for the report.  This module is the request/response layer on
top: :class:`CompileService` answers *one kernel at a time* over the
length-prefixed JSON framing of :mod:`repro.batch.service`, and
:class:`ServeClient` is the matching pooled client.  ``repro-agu
serve`` runs the service from the CLI.

The service is three thin layers over machinery that already exists:

1. **Front door** -- admission control and backpressure.  Requests
   that miss the cache enter a bounded in-flight queue; when it is
   full the client gets an explicit ``busy`` error frame immediately
   instead of the server growing an unbounded thread pile.  Stalled
   connections are closed after an idle timeout.
2. **Micro-batcher** -- one dispatcher thread collects the requests
   that arrive within a small window (``batch_window`` seconds, up to
   ``max_batch`` requests; no wait while only one client is connected)
   and runs them as *one*
   :class:`~repro.batch.engine.BatchCompiler` batch through the
   existing :class:`~repro.batch.engine.Executor` seam.  Concurrent
   load therefore reuses the digest dedup and the cache orchestration
   unchanged.
3. **Warm tier** -- the service's cache is a
   :class:`~repro.batch.cache.TieredCache`: a process-local LRU in
   front of whatever ``open_cache()`` backend the operator configured,
   so hot kernels are answered from memory without touching the
   backing store.

Wire protocol (one JSON object per frame, shared framing limits, the
schema declared in :attr:`CompileService.OPS`):
requests carry ``op`` = ``ping`` | ``stats`` | ``compile``; a compile
request names its kernel either inline (``source``: frontend text) or
from the bundled library (``kernel``: a library name), plus the spec
knobs ``registers`` / ``modify_range`` and the execution options
``simulate`` / ``iterations`` / ``baseline`` / ``listing``.  A
successful response carries the content ``digest``, the ``cached``
flag, the :class:`~repro.batch.jobs.JobResult` payload under
``result``, and -- when asked -- the generated AGU code under
``listing`` (an output of the job: such a request is cold or warm
like any other).  Failures are ``ok: false`` error frames; an admission
rejection additionally sets ``busy: true`` so clients can distinguish
"overloaded, retry" from "wrong, don't".  Untrusted work is bounded
before anything is compiled, and each path answers a request over a
bound with the same error frame:

* every request: :data:`MAX_SOURCE_BYTES`, before the cache is asked;
* a cache miss (cold): :data:`MAX_ACCESSES` and :data:`MAX_ARRAYS`, on
  the handler thread's parse, before the request is queued;
* a cache hit (warm): :data:`MAX_ACCESSES`, on the stored result's
  ``n_accesses`` -- a shared ``dir:`` store may hold results that
  ``repro-agu batch`` computed without these bounds.

Served output is bit-identical to what a direct
:class:`~repro.batch.engine.BatchCompiler` run produces for the same
request: the service adds routing, not semantics.
"""

from __future__ import annotations

import dataclasses
import queue
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field, replace

from repro.agu.listing import titled
from repro.agu.model import AguSpec
from repro.batch.cache import CacheBackend, TieredCache, open_cache
from repro.batch.digest import job_digest
from repro.batch.engine import BatchCompiler, Executor
from repro.batch.jobs import BatchJob, JobResult, parse_scope
from repro.batch.service import (
    FrameTooLargeError,
    _close_socket,
    format_endpoint,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.errors import BatchError
from repro.ir.types import Kernel
from repro.workloads.kernels import get_kernel

#: Front-door bounds on one ``compile`` request.  Compile cost grows
#: with the kernel, not the trip count (the simulation audit replays a
#: fixed three iterations), so these three sizes bound the work a
#: single untrusted request can pin the dispatcher with.
MAX_SOURCE_BYTES = 64 * 1024
#: Array accesses per loop iteration.
MAX_ACCESSES = 256
#: Declared arrays.
MAX_ARRAYS = 32
#: Entry bound of the warm in-process LRU tier in front of the result
#: store.
WARM_CAPACITY = 4096


def _check_accesses(n_accesses: int) -> None:
    """Raise the error frame's :class:`BatchError` for a kernel over
    :data:`MAX_ACCESSES`."""
    if n_accesses > MAX_ACCESSES:
        raise BatchError(
            f"kernel has {n_accesses} array accesses per iteration; "
            f"this server accepts at most {MAX_ACCESSES}")


class ServerBusyError(BatchError):
    """The serve endpoint rejected a request for lack of capacity.

    The explicit backpressure signal: the server's bounded in-flight
    queue was full, so it answered a ``busy`` error frame instead of
    queueing without limit.  Unlike other request failures this one is
    *retryable by construction* -- the same request succeeds once load
    drains -- which is why :meth:`ServeClient.compile` can be told to
    retry it (``busy_retries``) while genuine errors keep failing
    fast.
    """


@dataclass
class ServeStats:
    """Request counters over one :class:`CompileService` lifetime."""

    #: Compile requests that passed the op table's field checks (a
    #: missing or wrongly typed field is answered before counting).
    requests: int = 0
    #: Compile requests answered straight from the cache's warm path,
    #: without entering the in-flight queue.
    served_warm: int = 0
    #: Compile requests rejected with a ``busy`` frame (queue full).
    busy_rejections: int = 0
    #: Micro-batches run through the engine.
    batches: int = 0
    #: Jobs that actually compiled (batch slots minus cache hits).
    compiled: int = 0
    #: Requests that ended in an error response (invalid request,
    #: failed compile, or shutdown while queued).
    failures: int = 0

    def __str__(self) -> str:
        return (f"{self.requests} request(s): {self.served_warm} warm, "
                f"{self.compiled} compiled, {self.busy_rejections} "
                f"busy-rejected, {self.failures} failed; "
                f"{self.batches} micro-batch(es)")


@dataclass(frozen=True)
class ServeResult:
    """One answered compile request, as :class:`ServeClient` sees it."""

    #: Content digest of the compiled job, listing left out.
    digest: str
    #: Whether the server answered from its cache (warm tier or
    #: backing store) rather than compiling.
    cached: bool
    #: The per-kernel summary, rebuilt with ``from_cache`` mirroring
    #: :attr:`cached` -- the same record a direct batch run returns.
    result: JobResult
    #: The generated AGU code, when the request asked for it.
    listing: str | None = None


class _PendingCompile:
    """One admitted compile request, in flight between a handler
    thread (which waits on ``ready``) and the dispatcher (which sets
    the outcome, then ``ready``).  ``job`` carries the handler's
    digest and ``kernel`` is the handler's parse of the job's source,
    so the dispatcher neither digests nor parses it again."""

    __slots__ = ("job", "kernel", "payload", "cached", "error", "ready")

    def __init__(self, job: BatchJob, kernel: Kernel):
        self.job = job
        self.kernel = kernel
        self.payload: dict | None = None
        self.cached = False
        self.error: str | None = None
        self.ready = threading.Event()

    def resolve(self, payload: dict, cached: bool) -> None:
        """Hand the handler thread its answer."""
        self.payload = payload
        self.cached = cached
        self.ready.set()

    def fail(self, error: str) -> None:
        """Hand the handler thread an error outcome."""
        self.error = error
        self.ready.set()


#: The JSON types an op table may declare a request field with, and
#: the Python values that carry each (a ``bool`` is never a number).
JSON_TYPES: dict[str, tuple[type, ...]] = {
    "string": (str,), "integer": (int,), "number": (int, float),
    "boolean": (bool,), "list": (list,), "object": (dict,)}


def _a(kind: str) -> str:
    return f"an {kind}" if kind[0] in "aeiou" else f"a {kind}"


def _has_type(value, kind: str) -> bool:
    if isinstance(value, bool) and kind != "boolean":
        return False
    return isinstance(value, JSON_TYPES[kind])


def field_or(request: dict, name: str, default):
    """``request[name]``, or ``default`` when the field is absent or
    ``null`` (the op table treats both alike)."""
    value = request.get(name)
    return default if value is None else value


@dataclass(frozen=True)
class Op:
    """One entry of :attr:`CompileService.OPS`: an op's wire schema.

    Op ``x`` is answered by the method ``_op_x``.  ``summary`` is its
    one-line description in ``docs/PROTOCOL.md``.  ``required`` and
    ``optional`` map request fields to a :data:`JSON_TYPES` name.  A
    ``null`` value counts as absent.  ``response`` lists the keys an
    answer may carry beyond the ``ok``/``error`` envelope.
    """

    summary: str
    required: dict[str, str] = field(default_factory=dict)
    optional: dict[str, str] = field(default_factory=dict)
    response: tuple[str, ...] = ()

    def check(self, op: str, request: dict) -> str | None:
        """Why ``request`` does not fit this schema, or ``None``."""
        for name, kind in self.required.items():
            if request.get(name) is None:
                return f"{op!r} needs {_a(kind)} {name!r}"
        for fields in (self.required, self.optional):
            for name, kind in fields.items():
                value = request.get(name)
                if value is not None and not _has_type(value, kind):
                    return f"{op!r} field {name!r} must be {_a(kind)}"
        return None


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _TcpServer6(_TcpServer):
    address_family = socket.AF_INET6


class _FrameHandler(socketserver.BaseRequestHandler):
    """One accepted connection, handed to its :class:`CompileService`."""

    def handle(self) -> None:
        self.server.service.serve_connection(  # type: ignore
            self.request)


class CompileService:
    """Serve single-kernel compile requests over TCP.

    One handler thread per connection runs the frame loop: receive a
    request, answer it through :attr:`OPS`, repeat.  Unknown ops and
    requests that miss their op's schema are answered error frames
    before any handler runs, so handlers only make the checks a field
    type cannot express.

    Parameters
    ----------
    cache:
        The result store behind the warm tier: a
        :class:`~repro.batch.cache.CacheBackend` or an ``open_cache``
        spec string (``dir:PATH`` or ``mem[:CAPACITY]``).  ``None``
        serves from the warm LRU alone.  Whatever is given is wrapped
        in a :class:`~repro.batch.cache.TieredCache` of
        :data:`WARM_CAPACITY` entries, so hot kernels never touch the
        backing store.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` / :attr:`endpoint` for the bound one).  A
        colon in ``host`` makes it an IPv6 literal.
    executor:
        Where cache misses compile -- the same seam as
        :class:`~repro.batch.engine.BatchCompiler` (which is what runs
        underneath): an :class:`~repro.batch.engine.Executor` or an
        ``open_executor`` spec -- ``"local:N"`` for a process pool.
        ``None`` (the default) compiles inline.
    batch_window:
        Seconds the dispatcher waits, after the first queued request,
        for more requests to coalesce into one engine batch.  Bounds
        the latency cost of micro-batching; ``0`` batches only what
        is already queued.  While at most one client connection is
        open the dispatcher does not wait: a lone client has no one
        to batch with.
    max_batch:
        Upper bound on requests per micro-batch.
    max_pending:
        Bound of the in-flight queue -- admission control.  A request
        arriving with ``max_pending`` compiles already queued is
        answered with a ``busy`` error frame instead of queueing.
    idle_timeout:
        Seconds a connection may sit idle between frames before the
        server closes it (``None`` disables the timeout).  Stalled or
        half-open peers would otherwise pin a handler thread forever
        and wedge graceful shutdown; well-behaved clients that went
        quiet simply reconnect on their next request.

    Run blocking with :meth:`serve_forever` (the CLI does) or on a
    background thread via :meth:`start` / the context-manager form
    (tests and benchmarks do)::

        >>> from repro.batch.serving import CompileService, ServeClient
        >>> with CompileService() as service:      # doctest: +SKIP
        ...     client = ServeClient(service.endpoint)
        ...     answer = client.compile(kernel="fir")
    """

    #: op name -> :class:`Op`: what :meth:`handle_request` dispatches.
    OPS = {
        "ping": Op("Liveness probe; reports the executor's parallelism "
                   "width.", response=("server", "workers")),
        "stats": Op("The `ServeStats` counters, plus the tiered cache's "
                    "hits/misses/stores under `cache`.",
                    response=("requests", "served_warm",
                              "busy_rejections", "batches", "compiled",
                              "failures", "cache")),
        "compile": Op(
            "Compile one kernel, named by exactly one of `source` "
            "(frontend text) and `kernel` (a library name); `busy` marks "
            "an admission rejection.",
            optional={"source": "string", "kernel": "string",
                      "name": "string", "registers": "integer",
                      "modify_range": "integer", "iterations": "integer",
                      "simulate": "boolean", "baseline": "boolean",
                      "listing": "boolean"},
            response=("digest", "cached", "result", "listing", "busy")),
    }

    def __init__(self, cache: CacheBackend | str | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 executor: Executor | str | None = None,
                 batch_window: float = 0.005, max_batch: int = 16,
                 max_pending: int = 64,
                 idle_timeout: float | None = 300.0):
        if not 0 <= port <= 65535:
            raise BatchError(f"port must be in 0..65535, got {port}")
        if batch_window < 0:
            raise BatchError(
                f"batch_window must be >= 0 seconds, got {batch_window}")
        if max_batch < 1:
            raise BatchError(
                f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise BatchError(
                f"max_pending must be >= 1, got {max_pending}")
        if idle_timeout is not None and not idle_timeout > 0:
            raise BatchError(
                f"idle_timeout must be > 0 seconds or None, got "
                f"{idle_timeout}")
        self.idle_timeout = idle_timeout
        backend = open_cache(cache) if isinstance(cache, str) else cache
        self.cache = TieredCache(backend, capacity=WARM_CAPACITY)
        # The compiler is driven only by the dispatcher thread; the
        # (thread-safe) tiered cache is what handler threads share.
        self._compiler = BatchCompiler(cache=self.cache,
                                       executor=executor)
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self.stats = ServeStats()
        self._stats_lock = threading.Lock()
        # None is shutdown's wake-up call for an idle dispatcher.
        self._queue: queue.Queue[_PendingCompile | None] = queue.Queue(
            maxsize=max_pending)
        self._stop = threading.Event()
        server_class = _TcpServer6 if ":" in host else _TcpServer
        self._server = server_class((host, port), _FrameHandler)
        self._server.service = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1}, name="repro-compile-service",
            daemon=True)
        # An Event, not a bool: shutdown() consults it from whatever
        # thread tears the server down while serve_forever runs
        # elsewhere, so the flag itself must be race-free.
        self._serving = threading.Event()
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._closing = False
        # Only after the bind succeeded -- a failed construction must
        # not leak a dispatcher thread.
        self._dispatcher = threading.Thread(
            target=self._dispatch_forever, name="repro-serve-dispatch",
            daemon=True)
        self._dispatcher.start()

    @property
    def n_workers(self) -> int:
        """The underlying executor's parallelism width."""
        return self._compiler.n_workers

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def endpoint(self) -> str:
        """The ``tcp://host:port`` spec clients should open (IPv6
        hosts come bracketed, ready for :class:`ServeClient`)."""
        return format_endpoint(*self.address)

    # -- connections (handler threads) ---------------------------------
    @property
    def n_connections(self) -> int:
        """Number of client connections open right now."""
        with self._connections_lock:
            return len(self._connections)

    def track_connection(self, sock: socket.socket,
                         alive: bool) -> None:
        """Handler bookkeeping so :meth:`shutdown` can close live
        connections instead of leaving them serving after "stopped".
        A connection that registers after shutdown drained the set (a
        handler spawned in the accept/shutdown race window) is closed
        on the spot instead of being allowed to serve."""
        with self._connections_lock:
            if not alive:
                self._connections.discard(sock)
                return
            if not self._closing:
                self._connections.add(sock)
                return
        _close_socket(sock)

    def serve_connection(self, sock: socket.socket) -> None:
        """Run one accepted connection on its handler thread: receive
        a request, send :meth:`handle_request`'s answer, repeat until
        the peer hangs up or breaks the protocol.  A handler crash
        becomes an error frame on the live connection."""
        self.track_connection(sock, alive=True)
        if self.idle_timeout is not None:
            # A blocking recv raises TimeoutError (an OSError) after
            # idle_timeout seconds and the connection closes cleanly.
            sock.settimeout(self.idle_timeout)
        try:
            while True:
                try:
                    request = recv_frame(sock)
                except (BatchError, OSError):
                    return
                if request is None:
                    return
                try:
                    # Through the instance, so a handle_request wrapped
                    # on the class (as profilers do) sees every request.
                    response = self.handle_request(request)
                # repro-lint: disable=BROAD-EXCEPT -- not swallowed: the error goes back to the peer as an error frame, keeping the connection alive
                except Exception as error:
                    response = {"ok": False,
                                "error": f"{type(error).__name__}: {error}"}
                try:
                    send_frame(sock, response)
                except FrameTooLargeError as error:
                    # The *response* outgrew a frame (a giant result
                    # or listing): answer an error frame so the peer
                    # sees a failed request on a live connection, not a
                    # dropped one it would misread as a dead server.
                    try:
                        send_frame(sock, {"ok": False, "error": str(error)})
                    except (BatchError, OSError):
                        return
                except (BatchError, OSError):
                    return
        finally:
            self.track_connection(sock, alive=False)

    # -- request handling (handler threads) ----------------------------
    def handle_request(self, request: dict) -> dict:
        """Answer one request frame through :attr:`OPS`: op ``x`` is
        answered by ``self._op_x(request)`` once the request fits the
        op's schema (exposed for protocol tests)."""
        name = request.get("op")
        op = self.OPS.get(name) if isinstance(name, str) else None
        if op is None:
            return {"ok": False, "error": f"unknown op {name!r}"}
        problem = op.check(name, request)
        if problem is not None:
            return {"ok": False, "error": problem}
        return getattr(self, f"_op_{name}")(request)

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "server": "repro-agu serve",
                "workers": self.n_workers}

    def _op_stats(self, request: dict) -> dict:
        with self._stats_lock:
            counters = dataclasses.asdict(self.stats)
        cache = self.cache.stats
        return {"ok": True, **counters,
                "cache": {"hits": cache.hits, "misses": cache.misses,
                          "stores": cache.stores}}

    def _op_compile(self, request: dict) -> dict:
        with self._stats_lock:
            self.stats.requests += 1
        try:
            job = self._job_from_request(request)
        # repro-lint: disable=BROAD-EXCEPT -- not swallowed: every request-shaping error (an unknown library kernel, an oversized source) is this request's error frame, never a batch failure that could fail other work
        except Exception as error:
            return self._reject(error)
        # The answer is the listing-less job's result under its digest;
        # a listing job's result is also stored there once compiled.
        # The job queued is hashed last and carries its digest into the
        # engine batch, so the engine's scan does not hash it again.
        digest = job_digest(replace(job, listing=False)) \
            if job.listing else None
        object.__setattr__(job, "digest", job_digest(job))
        digest = digest or job.digest

        # A hit skips the parse: its digest covers the exact source
        # text, which parsed (within the limits) when it was stored.
        # A listing job's entry without a listing is a miss.
        payload = self.cache.get(job.digest)
        result = JobResult.from_payload(payload, job) \
            if payload is not None else None
        if result is not None:
            try:
                _check_accesses(result.n_accesses)
            except BatchError as error:
                return self._reject(error)
            with self._stats_lock:
                self.stats.served_warm += 1
            return self._answer(job, digest, payload, cached=True)
        try:
            kernel = self._check_kernel(job)
        # repro-lint: disable=BROAD-EXCEPT -- not swallowed: a frontend syntax error or an over-limit kernel is this request's error frame
        except Exception as error:
            return self._reject(error)

        pending = _PendingCompile(job, kernel)
        if self._stop.is_set():
            with self._stats_lock:
                self.stats.failures += 1
            return {"ok": False,
                    "error": "compile service is shutting down"}
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            with self._stats_lock:
                self.stats.busy_rejections += 1
            return {"ok": False, "busy": True,
                    "error": f"server busy: {self.max_pending} "
                             f"compile(s) already in flight"}
        self._await(pending)
        if pending.error is not None or pending.payload is None:
            with self._stats_lock:
                self.stats.failures += 1
            return {"ok": False,
                    "error": pending.error or "compile produced no "
                                              "result"}
        answer = self._answer(job, digest, pending.payload,
                              cached=pending.cached)
        if digest != job.digest and not pending.cached:
            self.cache.put(digest, answer["result"])
        return answer

    def _reject(self, error: Exception) -> dict:
        """Count a request-shaping failure; its error frame."""
        with self._stats_lock:
            self.stats.failures += 1
        return {"ok": False, "error": f"{type(error).__name__}: {error}"}

    def _await(self, pending: _PendingCompile) -> None:
        """Block until the dispatcher resolves ``pending`` (with a
        shutdown escape hatch so a request admitted in the teardown
        race window cannot strand its handler thread)."""
        while not pending.ready.wait(timeout=0.5):
            if self._stop.is_set() \
                    and not pending.ready.wait(timeout=1.0):
                pending.error = "compile service shut down before the "\
                                "request was compiled"
                return

    @staticmethod
    def _answer(job: BatchJob, digest: str, payload: dict, *,
                cached: bool) -> dict:
        """``payload`` answered as the listing-less job's result, its
        listing titled with the request's name -- display metadata
        follows the request, not whoever stored the entry."""
        result = {key: value for key, value in payload.items()
                  if key != "listing"}
        response = {"ok": True, "digest": digest, "cached": cached,
                    "result": {**result, "name": job.name,
                               "digest": digest}}
        if job.listing:
            response["listing"] = titled(payload["listing"], job.name)
        return response

    def _job_from_request(self, request: dict) -> BatchJob:
        """Shape one compile request into a job.

        The op table already checked every field's type; this checks
        what a type cannot say and the source size, but does not
        parse: a cache hit needs no parse, and a miss is parsed by
        :meth:`_check_kernel` before it is queued.
        """
        source = request.get("source")
        library = request.get("kernel")
        if (source is None) == (library is None):
            raise BatchError("'compile' needs exactly one of 'source' "
                             "(frontend text) and 'kernel' (a library "
                             "kernel name)")
        if library is not None:
            source = get_kernel(library).source
        if not source.strip():
            raise BatchError("'source' must be non-empty frontend text")
        size = len(source.encode("utf-8"))
        if size > MAX_SOURCE_BYTES:
            raise BatchError(f"'source' is {size} bytes; this server "
                             f"accepts at most {MAX_SOURCE_BYTES}")
        iterations = request.get("iterations")
        if iterations is not None and iterations < 1:
            raise BatchError("'iterations' must be a positive integer "
                             "or null")
        return BatchJob(
            name=request.get("name") or library or "served-kernel",
            spec=AguSpec(n_registers=field_or(request, "registers", 4),
                         modify_range=field_or(request, "modify_range",
                                               1)),
            source=source,
            run_simulation=field_or(request, "simulate", True),
            n_iterations=iterations,
            include_baseline=field_or(request, "baseline", False),
            listing=field_or(request, "listing", False))

    @staticmethod
    def _check_kernel(job: BatchJob) -> Kernel:
        """Parse a cache miss on the handler thread and bound its size,
        so a syntax error or an oversized kernel is this request's
        error frame -- by the time a job reaches the dispatcher it is
        known to parse, within the limits.  Returns the kernel, which
        the request carries on so that it is parsed only here."""
        kernel = job.kernel()
        _check_accesses(len(kernel.pattern))
        if len(kernel.arrays) > MAX_ARRAYS:
            raise BatchError(
                f"kernel declares {len(kernel.arrays)} arrays; this "
                f"server accepts at most {MAX_ARRAYS}")
        return kernel

    # -- the micro-batcher (dispatcher thread) -------------------------
    def _dispatch_forever(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.2)
            except queue.Empty:
                first = None
            if first is None:  # idle, or shutdown's wake-up call
                if self._stop.is_set():
                    break
                continue
            batch = [first]
            # A lone client has no one to batch with: waiting would only
            # delay it.  Requests already queued still join the batch.
            window = self.batch_window if self.n_connections > 1 else 0.0
            deadline = time.monotonic() + window
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                try:
                    entry = self._queue.get(timeout=max(0.0, remaining))
                except queue.Empty:
                    break
                if entry is None:
                    break
                batch.append(entry)
            self._run_batch(batch)
        # Shutdown drain: everything still queued gets an error
        # outcome so no handler thread is left waiting.
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            if pending is not None:
                pending.fail("compile service is shutting down")

    def _run_batch(self, batch: list[_PendingCompile]) -> None:
        """One micro-batch through the engine, with per-culprit
        failure isolation.

        The engine's failure contract does the heavy lifting: when a
        job fails, everything that completed is already persisted to
        the cache and the raised error names the culprit's digest.  So
        the culprit's requests are failed, and the survivors are
        simply *rerun* -- which the cache answers as hits, costing one
        scan, not a recompile.  Each round removes at least one
        request, so the loop terminates.

        Every round runs in a parse scope seeded with the handlers'
        kernels, so no admitted request is parsed a second time.
        """
        with self._stats_lock:
            self.stats.batches += 1
        pending = list(batch)
        kernels = {entry.kernel.source: entry.kernel for entry in batch}
        while pending:
            try:
                with parse_scope(kernels):
                    report = self._compiler.compile(
                        [entry.job for entry in pending])
            except BatchError as error:
                digest = getattr(error, "digest", None)
                culprits = [entry for entry in pending
                            if entry.job.digest == digest]
                if not culprits:
                    # No (matching) attribution -- e.g. a dead process
                    # pool that cannot name its killer: fail the whole
                    # round rather than retry-loop forever.
                    culprits = list(pending)
                # The handler thread counts the failure when it sees
                # the error outcome -- counting here too would double.
                for entry in culprits:
                    entry.fail(str(error))
                survivors = [entry for entry in pending
                             if entry not in culprits]
                pending = survivors
                continue
            # repro-lint: disable=BROAD-EXCEPT -- dispatcher last resort, not swallowed: every waiting request is answered the error instead of stranding its handler thread
            except Exception as error:
                for entry in pending:
                    entry.fail(f"{type(error).__name__}: {error}")
                return
            with self._stats_lock:
                self.stats.compiled += report.n_compiled
            for entry, result in zip(pending, report.results):
                entry.resolve(result.payload(), result.from_cache)
            return

    # -- lifecycle (the controlling thread) ----------------------------
    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._serving.set()
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "CompileService":
        """Serve on a daemon background thread; returns ``self``."""
        self._serving.set()
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving (idempotent): close the listener and every
        live connection, so no handler thread keeps answering
        afterwards, then stop the dispatcher.

        Admission is a promise: requests already in the bounded queue
        are compiled and resolved before the dispatcher exits; only a
        request that slips in after its final pass is failed with a
        shutdown error.
        """
        if self._serving.is_set():
            self._server.shutdown()
            self._serving.clear()
        self._server.server_close()
        with self._connections_lock:
            self._closing = True
            live, self._connections = self._connections, set()
        for sock in live:
            _close_socket(sock)
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        # No new work can arrive now, so stop the dispatcher.
        self._stop.set()
        try:
            self._queue.put_nowait(None)  # wake an idle dispatcher now
        except queue.Full:
            pass  # a busy dispatcher sees the stop after the drain
        self._dispatcher.join(timeout=10.0)

    def __enter__(self) -> "CompileService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class ServeClient:
    """Pooled client for a :class:`CompileService`.

    Connections are pooled (up to ``pool_size``) and reused across
    requests, so concurrent callers -- the client is thread-safe --
    pay connection setup once, not per compile.  A connection the
    server closed in the meantime (idle timeout, restart) is detected
    on use: the rest of the pool is closed with it, since it went idle
    the same way, and the request is retried once on a fresh
    connection.  Every request is idempotent (compiles are
    deterministic and cached), so the retry is safe.

    A compile client never degrades: the compile *is* the point, so
    transport failures -- a refused connection included -- raise
    :class:`~repro.errors.BatchError` and a ``busy`` rejection raises
    :class:`ServerBusyError` -- optionally after ``busy_retries``
    back-off retries.

    Example::

        >>> client = ServeClient("tcp://127.0.0.1:8743")  # doctest: +SKIP
        >>> client.compile(kernel="fir").result.total_cost  # doctest: +SKIP
    """

    def __init__(self, endpoint: str, *, timeout: float = 60.0,
                 pool_size: int = 4, busy_retries: int = 0,
                 busy_backoff: float = 0.05):
        host, port = parse_endpoint(endpoint)
        if not timeout > 0:
            raise BatchError(
                f"timeout must be > 0 seconds, got {timeout}")
        if pool_size < 1:
            raise BatchError(
                f"pool_size must be >= 1, got {pool_size}")
        if busy_retries < 0:
            raise BatchError(
                f"busy_retries must be >= 0, got {busy_retries}")
        if busy_backoff < 0:
            raise BatchError(
                f"busy_backoff must be >= 0 seconds, got {busy_backoff}")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.pool_size = int(pool_size)
        self.busy_retries = int(busy_retries)
        self.busy_backoff = float(busy_backoff)
        self._pool: list[socket.socket] = []
        self._lock = threading.Lock()

    @property
    def endpoint(self) -> str:
        """The ``tcp://...`` spec of this client's server."""
        return format_endpoint(self.host, self.port)

    def __repr__(self) -> str:
        return f"ServeClient({self.endpoint!r})"

    # -- transport ------------------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.settimeout(self.timeout)
        return sock

    def _acquire(self) -> socket.socket:
        with self._lock:
            if self._pool:
                return self._pool.pop()
        return self._connect()

    def _release(self, sock: socket.socket) -> None:
        with self._lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(sock)
                return
        _close_socket(sock)

    def close(self) -> None:
        """Close every pooled connection (the next request reconnects).
        """
        with self._lock:
            pool, self._pool = self._pool, []
        for sock in pool:
            _close_socket(sock)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, message: dict) -> dict:
        """One round trip on a pooled connection.  On a transport
        failure the pool is closed and the request retried once on a
        fresh connection.  A request over the frame limit raises
        :class:`FrameTooLargeError` at once; its connection, which
        sent nothing, stays pooled."""
        last_error: Exception | None = None
        for acquire in (self._acquire, self._connect):
            sock = None
            try:
                sock = acquire()
                send_frame(sock, message)
                response = recv_frame(sock)
                if response is None:
                    raise BatchError(
                        "serve endpoint closed the connection")
            except FrameTooLargeError:
                # Only send_frame raises it, before sending a byte.
                self._release(sock)
                raise
            except (OSError, BatchError) as error:
                if sock is not None:
                    _close_socket(sock)
                self.close()
                last_error = error
                continue
            self._release(sock)
            return response
        raise BatchError(
            f"serve endpoint {self.endpoint} unreachable: "
            f"{last_error}") from last_error

    # -- the serve protocol --------------------------------------------
    def compile(self, source: str | None = None, *,
                kernel: str | None = None, name: str | None = None,
                registers: int = 4, modify_range: int = 1,
                simulate: bool = True, iterations: int | None = None,
                baseline: bool = False,
                listing: bool = False) -> ServeResult:
        """Compile one kernel on the server; returns the summary (and
        the generated AGU code, with ``listing=True``).

        Exactly one of ``source`` (frontend text) and ``kernel`` (a
        bundled library kernel name) names the kernel;
        ``registers``/``modify_range`` are the target AGU spec, the
        rest are the execution options of
        :class:`~repro.batch.jobs.BatchJob`.  A ``busy`` rejection
        raises :class:`ServerBusyError` after exhausting
        ``busy_retries``; any other rejection raises
        :class:`~repro.errors.BatchError` with the server's error.
        """
        request: dict = {"op": "compile", "registers": registers,
                         "modify_range": modify_range,
                         "simulate": simulate, "baseline": baseline,
                         "listing": listing}
        if source is not None:
            request["source"] = source
        if kernel is not None:
            request["kernel"] = kernel
        if name is not None:
            request["name"] = name
        if iterations is not None:
            request["iterations"] = iterations
        for attempt in range(self.busy_retries + 1):
            response = self._request(request)
            if response.get("ok"):
                break
            if response.get("busy"):
                if attempt < self.busy_retries:
                    time.sleep(self.busy_backoff * (attempt + 1))
                    continue
                raise ServerBusyError(
                    f"serve endpoint {self.endpoint} is at capacity: "
                    f"{response.get('error')}")
            raise BatchError(
                f"serve endpoint {self.endpoint} rejected the "
                f"request: {response.get('error')}")
        payload = response.get("result")
        digest = response.get("digest")
        if not isinstance(payload, dict) or not isinstance(digest, str):
            raise BatchError(
                f"serve endpoint {self.endpoint} answered a malformed "
                f"response (missing result/digest)")
        cached = bool(response.get("cached"))
        try:
            result = JobResult(**{**payload, "from_cache": cached})
        except TypeError as error:
            raise BatchError(
                f"serve endpoint {self.endpoint} answered an "
                f"incompatible result payload: {error}") from error
        text = response.get("listing")
        return ServeResult(digest=digest, cached=cached, result=result,
                           listing=text if isinstance(text, str)
                           else None)

    # -- niceties -------------------------------------------------------
    def ping(self) -> bool:
        """Whether the serve endpoint answers at all right now."""
        try:
            response = self._request({"op": "ping"})
        except BatchError:
            return False
        return bool(response.get("ok"))

    def server_stats(self) -> dict:
        """The server-side counters (see :class:`ServeStats`, plus the
        tiered cache's ``hits``/``misses``/``stores`` under
        ``cache``)."""
        response = self._request({"op": "stats"})
        if not response.get("ok"):
            raise BatchError(
                f"serve endpoint {self.endpoint} rejected the stats "
                f"request: {response.get('error')}")
        return {key: value for key, value in response.items()
                if key != "ok"}
