"""The serve wire format: framing, endpoint specs and frame limits.

What :class:`~repro.batch.serving.CompileService` and
:class:`~repro.batch.serving.ServeClient` share, and nothing else: the
server itself lives in :mod:`repro.batch.serving`, next to its op
table.

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
import struct

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
