"""One lifecycle contract for every server built on ``FrameServer``.

``CacheServer``, ``JobServer`` and ``CompileService`` share their bind,
frame loop, idle timeout, connection tracking and shutdown, so each
case here runs against all three: idle connections close, late
registrations close, shutdown is prompt and closes live connections,
a handler crash is an error frame, and op-table violations are error
frames on a connection that stays usable.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.batch.cache import InMemoryLRUCache
from repro.batch.cluster import JobServer
from repro.batch.service import CacheServer, recv_frame, send_frame
from repro.batch.serving import CompileService

SERVERS = {
    "cache": lambda **kwargs: CacheServer(InMemoryLRUCache(), **kwargs),
    "job": JobServer,
    "serve": CompileService,
}

#: Per server: (request, expected error text) for a missing required
#: field and for a wrongly typed one.  ``compile`` has no required
#: field; its handler's exactly-one-of check stands in.
BAD_REQUESTS = {
    "cache": [({"op": "get"}, "'get' needs a string 'digest'"),
              ({"op": "put", "digest": "d", "payload": 3},
               "'put' field 'payload' must be an object")],
    "job": [({"op": "fail"}, "'fail' needs a string 'lease'"),
            ({"op": "lease", "wait": "soon"},
             "'lease' field 'wait' must be a number")],
    "serve": [({"op": "compile"}, "exactly one of"),
              ({"op": "compile", "kernel": "fir8", "registers": "four"},
               "'compile' field 'registers' must be an integer")],
}

pytestmark = pytest.mark.parametrize("kind", sorted(SERVERS))


def ask(sock: socket.socket, request: dict) -> dict:
    send_frame(sock, request)
    return recv_frame(sock)


def test_idle_connection_is_closed_after_the_timeout(kind):
    with SERVERS[kind](idle_timeout=0.2) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            assert ask(sock, {"op": "ping"})["ok"] is True
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # idle past the timeout


def test_connection_registering_after_shutdown_is_closed(kind):
    """A handler that lands in the accept/shutdown race window is
    closed on registration, not left serving."""
    server = SERVERS[kind]().start()
    server.shutdown()
    left, right = socket.socketpair()
    with left:
        server.track_connection(right, alive=True)
        left.settimeout(1.0)
        assert left.recv(1) == b""  # right was hard-closed


def test_shutdown_with_a_live_idle_connection_is_prompt(kind):
    server = SERVERS[kind]().start()
    with socket.create_connection(server.address, timeout=5) as sock:
        assert ask(sock, {"op": "ping"})["ok"] is True
        started = time.monotonic()
        server.shutdown()
        assert time.monotonic() - started < 0.2
        sock.settimeout(1.0)
        assert sock.recv(1) == b""  # closed by the shutdown


def test_handler_crash_is_an_error_frame_on_a_live_connection(
        kind, monkeypatch):
    def explode(*args):
        raise RuntimeError("handler exploded")

    with SERVERS[kind]() as server:
        monkeypatch.setattr(server, "_op_ping", explode)
        with socket.create_connection(server.address, timeout=5) as sock:
            answer = ask(sock, {"op": "ping"})
            assert answer == {"ok": False,
                              "error": "RuntimeError: handler exploded"}
            monkeypatch.undo()
            assert ask(sock, {"op": "ping"})["ok"] is True


def test_op_table_violations_answer_errors_on_a_live_connection(kind):
    with SERVERS[kind]() as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            answer = ask(sock, {"op": "frobnicate"})
            assert answer == {"ok": False,
                              "error": "unknown op 'frobnicate'"}
            for request, expected in BAD_REQUESTS[kind]:
                answer = ask(sock, request)
                assert answer["ok"] is False
                assert expected in answer["error"]
            assert ask(sock, {"op": "ping"})["ok"] is True
