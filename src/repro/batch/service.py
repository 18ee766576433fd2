"""The batch layer's TCP core, and the remote result-cache service.

:class:`FrameServer` is the one server every service builds on (the
cache here, :class:`~repro.batch.cluster.JobServer`,
:class:`~repro.batch.serving.CompileService`): bind, one handler
thread per connection, the frame loop, idle timeouts, connection
tracking, and the start/shutdown lifecycle.  A service declares its
wire schema as an op table of :class:`Op` entries, which the base
enforces at runtime and ``tools/gen_protocol.py`` renders as
``docs/PROTOCOL.md``.

The sharded directory store covers shared-*filesystem* deployments;
the cache service covers everything else: :class:`CacheServer` exposes
any :class:`~repro.batch.cache.CacheBackend` over TCP, and
:class:`RemoteCache` is the matching client-side backend, so any number
of :class:`~repro.batch.engine.BatchCompiler` runs -- across processes
or across hosts -- share one result store and stop recompiling each
other's points.  ``open_cache("tcp://host:port")`` returns a client;
the ``repro-agu cache-serve`` subcommand runs a server in front of any
existing store spec.

Wire protocol (stdlib-only, deliberately boring): every message is one
*frame* -- a 4-byte big-endian length prefix followed by that many
bytes of UTF-8 JSON encoding a single object.  Requests carry an
``op`` from the server's table; responses carry ``ok`` plus op-specific
fields, or ``ok: false`` with an ``error`` string.  One connection
serves any number of frames back to back, which is what makes
per-result streaming puts cheap.

Failure philosophy: the cache is an optimization, so the *client*
never lets the network fail a batch.  A dead or unreachable server
degrades to miss-and-log -- ``get`` returns ``None`` (counted as a
miss), ``put`` becomes a no-op -- and the client re-probes after
``retry_interval`` seconds so a recovered server picks the run back
up.  The *server*, in turn, answers malformed requests with error
frames instead of dropping the connection, and a handler crash is
confined to its own response.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.batch.cache import CacheStats
from repro.errors import BatchError

_LOGGER = logging.getLogger("repro.batch.service")

#: Frame header: one 4-byte big-endian unsigned length.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame's JSON body.  Far above any real payload
#: batch (entries are small per-point summaries); its real job is to
#: reject garbage -- a stray non-protocol client would otherwise be
#: read as a multi-gigabyte "frame".
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameTooLargeError(BatchError):
    """A frame we were about to *send* exceeds :data:`MAX_FRAME_BYTES`.

    Raised by :func:`send_frame` before any bytes hit the socket, so
    the connection stays in protocol sync -- which is why the client
    treats it as "drop this store", never as a transport failure that
    would degrade a perfectly healthy server.
    """


def _close_socket(sock: socket.socket) -> None:
    """Hard-close both directions, ignoring already-dead sockets."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def format_endpoint(host: str, port: int) -> str:
    """``host``/``port`` as a ``tcp://`` spec, bracketing IPv6 hosts
    so the result feeds straight back into ``open_cache`` /
    ``open_executor``."""
    if ":" in host:
        return f"tcp://[{host}]:{port}"
    return f"tcp://{host}:{port}"


def parse_endpoint(text: str, options: dict | None = None,
                   ) -> tuple[str, int, dict]:
    """Split a ``tcp://HOST:PORT[?opts]`` spec into host, port, and
    converted options.

    The shared grammar of every TCP spec in the batch layer: cache
    clients (``open_cache``), executor clients (``open_executor``),
    and the ``worker`` / ``job-serve`` CLI arguments.  ``options``
    maps allowed ``?key=value`` names to converters; unknown keys,
    unparsable values, and any URL decoration beyond host/port/query
    are rejected loudly.
    """
    from urllib.parse import parse_qsl, urlsplit

    known = options or {}
    expected = (f"expected tcp://HOST:PORT"
                f"[?{'&'.join(sorted(known))}]" if known
                else "expected tcp://HOST:PORT")
    try:
        parts = urlsplit(text)
        port = parts.port
    except ValueError as error:
        raise BatchError(
            f"invalid endpoint spec {text!r} ({error}); "
            f"{expected}") from error
    if parts.scheme != "tcp" or port is None or parts.path \
            or parts.fragment or parts.username is not None:
        raise BatchError(
            f"invalid endpoint spec {text!r}; {expected}")
    try:
        pairs = parse_qsl(parts.query, keep_blank_values=True,
                          strict_parsing=True) if parts.query else []
    except ValueError as error:
        raise BatchError(
            f"invalid options in endpoint spec {text!r}; "
            f"{expected}") from error
    converted: dict = {}
    for key, value in pairs:
        convert = known.get(key)
        if convert is None:
            raise BatchError(
                f"unknown option {key!r} in endpoint spec {text!r} "
                f"(known: {', '.join(sorted(known)) or 'none'})")
        try:
            converted[key] = convert(value)
        except ValueError as error:
            raise BatchError(
                f"invalid value for {key!r} in endpoint spec "
                f"{text!r}") from error
    return parts.hostname or "127.0.0.1", port, converted


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Exactly ``count`` bytes from ``sock``, or ``None`` on EOF."""
    data = bytearray()
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            return None
        data.extend(chunk)
    return bytes(data)


def send_frame(sock: socket.socket, message: dict) -> None:
    """Send one length-prefixed JSON frame."""
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"cache protocol frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    sock.sendall(_HEADER.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> dict | None:
    """Receive one frame; ``None`` on a clean EOF between frames.

    EOF in the middle of a frame, an oversized length, or a body that
    is not a JSON object all raise :class:`BatchError` -- a peer that
    stops speaking the protocol must not be silently reinterpreted.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise BatchError(
            f"cache protocol frame announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit")
    body = _recv_exact(sock, length)
    if body is None:
        raise BatchError("connection closed mid-frame")
    try:
        message = json.loads(body.decode("utf-8"))
    except ValueError as error:
        raise BatchError(
            f"undecodable cache protocol frame: {error}") from error
    if not isinstance(message, dict):
        raise BatchError(
            f"cache protocol frame must be a JSON object, got "
            f"{type(message).__name__}")
    return message


# ----------------------------------------------------------------------
# The frame server: one TCP core under every service
# ----------------------------------------------------------------------
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
    ``null`` (the op tables treat both alike)."""
    value = request.get(name)
    return default if value is None else value


@dataclass(frozen=True)
class Op:
    """One entry of a server's op table: who answers the op, and its
    wire schema.

    ``handler`` names the server method that answers the request;
    ``summary`` is its one-line description in ``docs/PROTOCOL.md``.
    ``required`` and ``optional`` map request fields to a
    :data:`JSON_TYPES` name, or to ``None`` for a field the handler
    checks -- or deliberately tolerates malformed -- itself.  A
    ``null`` value counts as absent.  ``response`` lists the keys an
    answer may carry beyond the ``ok``/``error`` envelope.
    """

    handler: str
    summary: str
    required: dict[str, str | None] = field(default_factory=dict)
    optional: dict[str, str | None] = field(default_factory=dict)
    response: tuple[str, ...] = ()

    def check(self, op: str, request: dict) -> str | None:
        """Why ``request`` does not fit this schema, or ``None``."""
        for name, kind in self.required.items():
            if request.get(name) is None:
                what = f"{_a(kind)} {name!r}" if kind else repr(name)
                return f"{op!r} needs {what}"
        for fields in (self.required, self.optional):
            for name, kind in fields.items():
                value = request.get(name)
                if kind is not None and value is not None \
                        and not _has_type(value, kind):
                    return f"{op!r} field {name!r} must be {_a(kind)}"
        return None


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _TcpServer6(_TcpServer):
    address_family = socket.AF_INET6


class _FrameHandler(socketserver.BaseRequestHandler):
    """One accepted connection, handed to its :class:`FrameServer`."""

    def handle(self) -> None:
        self.server.frame_server.serve_connection(  # type: ignore
            self.request)


class FrameServer:
    """A threaded TCP server that answers frames through an op table.

    The core every service of the batch layer shares: the bind (IPv6
    hosts included), one handler thread per connection running the
    frame loop, the idle timeout, connection tracking, and the
    ``start`` / ``serve_forever`` / ``shutdown`` lifecycle.  A
    subclass declares :attr:`OPS` and writes one handler method per
    op; :meth:`handle_request` rejects unknown ops and requests that
    miss their op's schema with error frames before any handler runs,
    so handlers only make the checks a field type cannot express.

    Subclass hooks: :meth:`handle_connection` (what one connection
    does; the default answers every frame with :meth:`handle_request`),
    :meth:`_before_serving`, and :meth:`_after_shutdown`.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` / :attr:`endpoint` for the bound one).
    idle_timeout:
        Seconds a connection may sit idle between frames before the
        server closes it (``None`` disables the timeout).  Stalled or
        half-open peers would otherwise pin a handler thread forever
        and wedge graceful shutdown; well-behaved clients that went
        quiet simply reconnect on their next request.
    """

    #: op name -> :class:`Op`: what :meth:`handle_request` dispatches.
    OPS: dict[str, Op] = {}
    #: Name of the background thread :meth:`start` serves on.
    thread_name = "repro-frame-server"

    def __init__(self, host: str, port: int,
                 idle_timeout: float | None):
        if idle_timeout is not None and not idle_timeout > 0:
            raise BatchError(
                f"idle_timeout must be > 0 seconds or None, got "
                f"{idle_timeout}")
        self.idle_timeout = idle_timeout
        # A colon in the host is an IPv6 literal (e.g. "::1"), which
        # needs an AF_INET6 listening socket.
        server_class = _TcpServer6 if ":" in host else _TcpServer
        self._server = server_class((host, port), _FrameHandler)
        self._server.frame_server = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1}, name=self.thread_name,
            daemon=True)
        # An Event, not a bool: shutdown() consults it from whatever
        # thread tears the server down while serve_forever runs
        # elsewhere, so the flag itself must be race-free.
        self._serving = threading.Event()
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._closing = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def endpoint(self) -> str:
        """The ``tcp://host:port`` spec clients should open (IPv6
        hosts come bracketed, ready for ``open_cache`` /
        ``open_executor``)."""
        return format_endpoint(*self.address)

    # -- connections (handler threads) ---------------------------------
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
        """Run one accepted connection on its handler thread."""
        self.track_connection(sock, alive=True)
        if self.idle_timeout is not None:
            # A blocking recv raises TimeoutError (an OSError) after
            # idle_timeout seconds and the connection closes cleanly.
            sock.settimeout(self.idle_timeout)
        try:
            self.handle_connection(sock)
        finally:
            self.track_connection(sock, alive=False)

    def handle_connection(self, sock: socket.socket) -> None:
        """Per-connection hook: answer every frame with
        :meth:`handle_request` until the peer hangs up."""
        self.answer_frames(sock)

    def answer_frames(self, sock: socket.socket,
                      answer: Callable[[dict], dict] | None = None,
                      request: dict | None = None) -> None:
        """The frame loop: receive a request, send ``answer(request)``
        (default :meth:`handle_request`), repeat until the peer hangs
        up or breaks the protocol.  ``request`` is a first frame the
        caller already received.  A handler crash becomes an error
        frame on the live connection."""
        while True:
            if request is None:
                try:
                    request = recv_frame(sock)
                except (BatchError, OSError):
                    return
                if request is None:
                    return
            try:
                response = (answer or self.handle_request)(request)
            # repro-lint: disable=BROAD-EXCEPT -- not swallowed: the error goes back to the peer as an error frame, keeping the connection alive
            except Exception as error:
                response = {"ok": False,
                            "error": f"{type(error).__name__}: {error}"}
            request = None
            try:
                send_frame(sock, response)
            except FrameTooLargeError as error:
                # The *response* outgrew a frame (a get_many over huge
                # payloads, a giant listing): answer an error frame so
                # the peer sees a failed request on a live connection,
                # not a dropped one it would misread as a dead server.
                try:
                    send_frame(sock, {"ok": False, "error": str(error)})
                except (BatchError, OSError):
                    return
            except (BatchError, OSError):
                return

    def handle_request(self, request: dict, *context) -> dict:
        """Answer one request frame through :attr:`OPS`: the op's
        handler is called as ``handler(request, *context)`` once the
        request fits the op's schema (exposed for protocol tests)."""
        name = request.get("op")
        op = self.OPS.get(name) if isinstance(name, str) else None
        if op is None:
            return {"ok": False, "error": f"unknown op {name!r}"}
        problem = op.check(name, request)
        if problem is not None:
            return {"ok": False, "error": problem}
        return getattr(self, op.handler)(request, *context)

    # -- lifecycle (the controlling thread) ----------------------------
    def _before_serving(self) -> None:
        """Hook: start the subclass's own background threads."""

    def _after_shutdown(self) -> None:
        """Hook: stop what :meth:`_before_serving` started, once the
        listener and every connection are closed."""

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._serving.set()
        self._before_serving()
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "FrameServer":
        """Serve on a daemon background thread; returns ``self``."""
        self._serving.set()
        self._before_serving()
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving (idempotent): close the listener and every
        live connection, so no handler thread keeps answering
        afterwards, then run the subclass teardown."""
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
        self._after_shutdown()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# The cache server
# ----------------------------------------------------------------------
class CacheServer(FrameServer):
    """Serve one :class:`~repro.batch.cache.CacheBackend` over TCP.

    Parameters
    ----------
    store:
        The backing store (any backend ``open_cache`` can produce
        except another remote).  Access is serialized with a lock, so
        backends without their own thread safety are fine.
    host, port, idle_timeout:
        As for :class:`FrameServer`.
    readonly:
        Reject ``put``/``put_many`` with a flagged error response
        (clients notice the flag and stop sending stores), and turn
        off the backing store's own corrupt-entry discard -- a
        read-only server must never write to its store, not even to
        clean up.

    Run blocking with :meth:`serve_forever` (the CLI does) or on a
    background thread via :meth:`start` / the context-manager form
    (tests and in-process sharing do).
    """

    OPS = {
        "ping": Op("_op_ping", "Liveness probe; says whether the store "
                   "is read-only.", response=("server", "readonly")),
        "get": Op("_op_get", "One payload by digest (`null` on a miss).",
                  required={"digest": "string"}, response=("payload",)),
        "get_many": Op("_op_get_many", "The cached payloads among "
                       "`digests` (strings); misses are absent.",
                       required={"digests": "list"},
                       response=("payloads",)),
        "put": Op("_op_put", "Store one payload.",
                  required={"digest": "string", "payload": "object"},
                  response=("stored", "readonly")),
        "put_many": Op("_op_put_many", "Store `entries`, a dict of "
                       "digest -> payload.",
                       required={"entries": "object"},
                       response=("stored", "readonly")),
        "stats": Op("_op_stats", "The store's own counters.",
                    response=("hits", "misses", "stores")),
    }
    thread_name = "repro-cache-server"

    def __init__(self, store, host: str = "127.0.0.1", port: int = 0, *,
                 readonly: bool = False,
                 idle_timeout: float | None = 300.0):
        if isinstance(store, RemoteCache):
            raise BatchError(
                "a cache server cannot front another remote cache")
        super().__init__(host, port, idle_timeout)
        self.store = store
        self.readonly = readonly
        self._lock = threading.Lock()
        # Only after the bind succeeded: read-only must mean *no*
        # writes, including the store's own corrupt-entry cleanup on
        # the get path.  Restored on shutdown -- the caller's store is
        # borrowed, not owned (and a failed bind must not leave it
        # mutated).
        self._restore_discard = bool(
            readonly and getattr(store, "discard_corrupt", None))
        if self._restore_discard:
            store.discard_corrupt = False

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "server": "repro-agu cache-serve",
                "readonly": self.readonly}

    def _op_get(self, request: dict) -> dict:
        with self._lock:
            payload = self.store.get(request["digest"])
        return {"ok": True, "payload": payload}

    def _op_get_many(self, request: dict) -> dict:
        digests = request["digests"]
        if not all(isinstance(digest, str) for digest in digests):
            return {"ok": False, "error": "'get_many' needs a list of "
                                          "string digests"}
        with self._lock:
            payloads = {digest: self.store.get(digest)
                        for digest in digests}
        return {"ok": True,
                "payloads": {digest: payload
                             for digest, payload in payloads.items()
                             if isinstance(payload, dict)}}

    def _op_put(self, request: dict) -> dict:
        return self._store_entries({request["digest"]:
                                    request["payload"]})

    def _op_put_many(self, request: dict) -> dict:
        entries = request["entries"]
        if not all(isinstance(digest, str) and isinstance(payload, dict)
                   for digest, payload in entries.items()):
            return {"ok": False, "error": "'put_many' needs a dict of "
                                          "digest -> payload"}
        return self._store_entries(entries)

    def _op_stats(self, request: dict) -> dict:
        with self._lock:
            stats = self.store.stats
            return {"ok": True, "hits": stats.hits,
                    "misses": stats.misses, "stores": stats.stores}

    def _store_entries(self, entries: dict) -> dict:
        if self.readonly:
            return {"ok": False, "readonly": True,
                    "error": "store is read-only"}
        with self._lock:
            put_many = getattr(self.store, "put_many", None)
            if put_many is not None:
                put_many(entries)
            else:
                for digest, payload in entries.items():
                    self.store.put(digest, payload)
        return {"ok": True, "stored": len(entries)}

    def _after_shutdown(self) -> None:
        if self._restore_discard:
            self.store.discard_corrupt = True


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class RemoteCache:
    """Client backend for a :class:`CacheServer`.

    Implements the :class:`~repro.batch.cache.CacheBackend` protocol
    (``get``/``put`` plus the batched ``get_many``/``put_many`` and
    ``stats``), so it plugs into
    :class:`~repro.batch.engine.BatchCompiler` and every experiment
    runner unchanged.  One TCP connection is kept open and reused
    across requests; ``get_many``/``put_many`` batch digests and
    entries into frames of ``batch_size``, so a whole batch scan or
    persist costs one round trip per ``batch_size`` entries instead of
    one per job.

    A server that cannot be reached *never* raises into the batch:
    the client logs one warning, serves misses (and drops stores) for
    ``retry_interval`` seconds, then probes again.  ``stats`` counts
    the client-side view -- degraded lookups are misses, so
    ``hits + misses`` always equals the number of ``get`` calls.

    Instances are picklable (the socket is re-opened lazily on first
    use), so jobs or compilers carrying a remote cache can cross
    process boundaries; each process then holds its own connection and
    its own client-side stats.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float = 5.0, retry_interval: float = 5.0,
                 batch_size: int = 256):
        if not 1 <= int(port) <= 65535:
            raise BatchError(
                f"remote cache port must be in 1..65535, got {port}")
        if batch_size < 1:
            raise BatchError(
                f"batch_size must be >= 1, got {batch_size}")
        if not timeout > 0:
            raise BatchError(
                f"timeout must be > 0 seconds, got {timeout}")
        if retry_interval < 0:
            raise BatchError(
                f"retry_interval must be >= 0 seconds, got "
                f"{retry_interval}")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retry_interval = float(retry_interval)
        self.batch_size = int(batch_size)
        self.stats = CacheStats()
        self._sock: socket.socket | None = None
        self._lock = threading.RLock()
        self._down_since: float | None = None
        self._readonly_since: float | None = None

    @property
    def endpoint(self) -> str:
        """The ``tcp://...`` spec of this client's server, bracketed
        for IPv6 so it can be fed straight back into ``open_cache``."""
        return format_endpoint(self.host, self.port)

    def __repr__(self) -> str:
        return f"RemoteCache({self.endpoint!r})"

    # -- pickling: connections and client-side stats are per-process.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_sock"] = None
        state["_lock"] = None
        state["stats"] = CacheStats()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- transport ------------------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.settimeout(self.timeout)
        return sock

    def _close_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Drop the connection (the next request reconnects)."""
        with self._lock:
            self._close_locked()

    def _degrade_locked(self, error: BaseException | str) -> None:
        self._down_since = time.monotonic()
        _LOGGER.warning(
            "cache server %s unreachable (%s); degrading to cache "
            "misses for %.1f s", self.endpoint, error,
            self.retry_interval)

    def _roundtrip_locked(self, message: dict) -> dict | None:
        if self._sock is None:
            self._sock = self._connect()
        send_frame(self._sock, message)
        response = recv_frame(self._sock)
        if response is None:
            raise BatchError("server closed the connection")
        return response

    def _request(self, message: dict) -> dict | None:
        """One request/response round trip; ``None`` while degraded.

        A first transport failure gets one immediate reconnect-and-
        retry (servers legitimately drop idle connections; every
        protocol request is idempotent, so a resend is safe).  A second
        failure marks the server down for ``retry_interval`` seconds.
        """
        with self._lock:
            if self._down_since is not None:
                if time.monotonic() - self._down_since \
                        < self.retry_interval:
                    return None
                self._down_since = None
            try:
                return self._roundtrip_locked(message)
            except FrameTooLargeError:
                # A local serialization limit, not a server problem:
                # the connection never saw a byte of it.  Callers
                # decide what to drop; the server stays "up".
                raise
            except (OSError, BatchError):
                self._close_locked()
            try:
                return self._roundtrip_locked(message)
            except FrameTooLargeError:
                # Same local limit on the retry attempt: still not the
                # server's fault, still no degradation.
                raise
            except (OSError, BatchError) as error:
                self._close_locked()
                self._degrade_locked(error)
                return None

    # -- the CacheBackend protocol -------------------------------------
    def get(self, digest: str) -> dict | None:
        """The payload under ``digest``; a miss (also) when degraded
        or when the request cannot fit a frame -- lookups, like
        stores, never fail the batch."""
        try:
            response = self._request({"op": "get", "digest": digest})
        except FrameTooLargeError:
            response = None
        payload = response.get("payload") if response \
            and response.get("ok") else None
        if not isinstance(payload, dict):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def get_many(self, digests) -> dict[str, dict]:
        """Payloads for every cached digest in ``digests``, fetched
        ``batch_size`` digests per round trip (the engine's initial
        cache scan uses this -- one frame instead of one RTT per job).
        Counts one hit or miss per digest; missing and degraded
        lookups are simply absent from the result."""
        digests = list(digests)
        found: dict[str, dict] = {}
        for start in range(0, len(digests), self.batch_size):
            chunk = digests[start:start + self.batch_size]
            try:
                response = self._request({"op": "get_many",
                                          "digests": chunk})
            except FrameTooLargeError:
                response = None  # this chunk becomes misses
            payloads = response.get("payloads") if response \
                and response.get("ok") else None
            if not isinstance(payloads, dict):
                payloads = {}
            for digest in chunk:
                payload = payloads.get(digest)
                if isinstance(payload, dict):
                    found[digest] = payload
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
        return found

    def _stores_disabled(self) -> bool:
        """Whether stores are currently pointless (read-only server).

        Like the dead-server state, read-only is re-probed after
        ``retry_interval`` seconds -- the operator may have restarted
        the server writable, and a long-lived run should pick its
        persistence back up rather than drop stores forever.
        """
        with self._lock:
            if self._readonly_since is None:
                return False
            if time.monotonic() - self._readonly_since \
                    < self.retry_interval:
                return True
            self._readonly_since = None
            return False

    def put(self, digest: str, payload: dict) -> None:
        """Store one payload; silently dropped when degraded/read-only
        (or too large for one frame -- the cache is an optimization)."""
        if self._stores_disabled():
            return
        try:
            response = self._request(
                {"op": "put", "digest": digest, "payload": payload})
        except FrameTooLargeError as error:
            _LOGGER.warning("dropping oversized cache store %s: %s",
                            digest, error)
            return
        if self._accepted(response):
            self.stats.stores += 1

    def put_many(self, entries: dict[str, dict]) -> None:
        """Store a batch, ``batch_size`` entries per protocol frame."""
        if self._stores_disabled() or not entries:
            return
        items = list(entries.items())
        for start in range(0, len(items), self.batch_size):
            chunk = dict(items[start:start + self.batch_size])
            try:
                response = self._request({"op": "put_many",
                                          "entries": chunk})
            except FrameTooLargeError as error:
                _LOGGER.warning(
                    "dropping oversized cache store batch of %d "
                    "entr(ies): %s", len(chunk), error)
                continue
            if self._accepted(response):
                self.stats.stores += len(chunk)
            elif response is None or self._stores_disabled():
                # Degraded, or the server just revealed itself as
                # read-only: drop the remaining chunks too.
                return

    def _accepted(self, response: dict | None) -> bool:
        """Whether a store response means "persisted"; notes read-only
        servers so later stores are skipped client-side (until the
        ``retry_interval`` re-probe)."""
        if response is None:
            return False
        if response.get("ok"):
            return True
        if response.get("readonly"):
            with self._lock:
                if self._readonly_since is None:
                    _LOGGER.warning(
                        "cache server %s is read-only; dropping stores "
                        "for %.1f s", self.endpoint, self.retry_interval)
                self._readonly_since = time.monotonic()
        else:
            _LOGGER.warning("cache server %s rejected a store: %s",
                            self.endpoint, response.get("error"))
        return False

    # -- niceties -------------------------------------------------------
    def ping(self) -> bool:
        """Whether the server answers at all right now."""
        response = self._request({"op": "ping"})
        return bool(response and response.get("ok"))

    def server_stats(self) -> CacheStats | None:
        """The *server-side* counters, or ``None`` while unreachable."""
        response = self._request({"op": "stats"})
        if not response or not response.get("ok"):
            return None
        return CacheStats(hits=int(response.get("hits", 0)),
                          misses=int(response.get("misses", 0)),
                          stores=int(response.get("stores", 0)))
