"""The batch layer's TCP core: framing, endpoints and the frame server.

:class:`FrameServer` is the server :class:`~repro.batch.serving.CompileService`
builds on: bind, one handler thread per connection, the frame loop,
idle timeouts, connection tracking, and the start/shutdown lifecycle.
A service declares its wire schema as an op table of :class:`Op`
entries, which the base enforces at runtime and
``tools/gen_protocol.py`` renders as ``docs/PROTOCOL.md``.

Wire protocol (stdlib-only, deliberately boring): every message is one
*frame* -- a 4-byte big-endian length prefix followed by that many
bytes of UTF-8 JSON encoding a single object.  Requests carry an
``op`` from the server's table; responses carry ``ok`` plus op-specific
fields, or ``ok: false`` with an ``error`` string.  One connection
serves any number of frames back to back.  The server answers
malformed requests with error frames instead of dropping the
connection, and a handler crash is confined to its own response.

Result stores are not served over TCP: processes and hosts share
results through one ``dir:`` store on a shared or mounted path (see
:mod:`repro.batch.cache`).
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass, field

from repro.errors import BatchError

#: Frame header: one 4-byte big-endian unsigned length.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame's JSON body.  Far above any real request
#: or response (a compile result and its listing); its real job is to
#: reject garbage -- a stray non-protocol client would otherwise be
#: read as a multi-gigabyte "frame".
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameTooLargeError(BatchError):
    """A frame we were about to *send* exceeds :data:`MAX_FRAME_BYTES`.

    Raised by :func:`send_frame` before any bytes hit the socket, so
    the connection stays in protocol sync -- which is why a server
    answers it with an error frame on the live connection instead of
    hanging up.
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
    so the result feeds straight back into ``ServeClient``."""
    if ":" in host:
        return f"tcp://[{host}]:{port}"
    return f"tcp://{host}:{port}"


def parse_endpoint(text: str) -> tuple[str, int]:
    """Split a ``tcp://HOST:PORT`` spec into host and port.

    The grammar of the serve endpoint (``ServeClient``): a bracketed
    IPv6 host is allowed, an empty host means ``127.0.0.1``, and the
    port must be in 1..65535.  Any URL decoration beyond host and port
    (a path, query, fragment or user) is rejected loudly.
    """
    from urllib.parse import urlsplit

    expected = "expected tcp://HOST:PORT"
    try:
        parts = urlsplit(text)
        port = parts.port
    except ValueError as error:
        raise BatchError(
            f"invalid endpoint spec {text!r} ({error}); "
            f"{expected}") from error
    if parts.scheme != "tcp" or port is None or parts.path \
            or parts.query or parts.fragment \
            or parts.username is not None:
        raise BatchError(
            f"invalid endpoint spec {text!r}; {expected}")
    if not 1 <= port <= 65535:
        raise BatchError(
            f"invalid endpoint spec {text!r}: port must be in "
            f"1..65535, got {port}")
    return parts.hostname or "127.0.0.1", port


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
            f"protocol frame of {len(body)} bytes exceeds the "
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
            f"protocol frame announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit")
    body = _recv_exact(sock, length)
    if body is None:
        raise BatchError("connection closed mid-frame")
    try:
        message = json.loads(body.decode("utf-8"))
    except ValueError as error:
        raise BatchError(
            f"undecodable protocol frame: {error}") from error
    if not isinstance(message, dict):
        raise BatchError(
            f"protocol frame must be a JSON object, got "
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
    :data:`JSON_TYPES` name.  A ``null`` value counts as absent.
    ``response`` lists the keys an answer may carry beyond the
    ``ok``/``error`` envelope.
    """

    handler: str
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
    :meth:`_after_shutdown` is the one subclass hook.

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
        hosts come bracketed, ready for ``ServeClient``)."""
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
                    # or listing): answer an error frame so the peer sees a failed request on a live
                    # connection, not a dropped one it would misread as
                    # a dead server.
                    try:
                        send_frame(sock, {"ok": False, "error": str(error)})
                    except (BatchError, OSError):
                        return
                except (BatchError, OSError):
                    return
        finally:
            self.track_connection(sock, alive=False)

    def handle_request(self, request: dict) -> dict:
        """Answer one request frame through :attr:`OPS`: the op's
        handler is called as ``handler(request)`` once the request
        fits the op's schema (exposed for protocol tests)."""
        name = request.get("op")
        op = self.OPS.get(name) if isinstance(name, str) else None
        if op is None:
            return {"ok": False, "error": f"unknown op {name!r}"}
        problem = op.check(name, request)
        if problem is not None:
            return {"ok": False, "error": problem}
        return getattr(self, op.handler)(request)

    # -- lifecycle (the controlling thread) ----------------------------
    def _after_shutdown(self) -> None:
        """Hook: the subclass's own teardown, once the listener and
        every connection are closed."""

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._serving.set()
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "FrameServer":
        """Serve on a daemon background thread; returns ``self``."""
        self._serving.set()
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
