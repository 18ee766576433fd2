"""The compile service's connection and lifecycle contract.

The bind, frame loop, idle timeout, connection tracking and shutdown
of ``CompileService``, without any compile on top: idle connections
close, late registrations close, shutdown is prompt, idempotent and
closes live connections, a handler crash is an error frame, op-table
violations are error frames on a connection that stays usable, and a
peer that breaks the framing is hung up on without disturbing anyone
else.  Each case runs against the compile service and against an echo
subclass that swaps in its own op table, so the loop and the op-table
check are held to the same contract whatever ops sit on top.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.batch.service import recv_frame, send_frame
from repro.batch.serving import CompileService, Op
from repro.errors import BatchError


class EchoServer(CompileService):
    """``CompileService`` answering through its own two-op table."""

    OPS = {
        "ping": Op("Liveness probe."),
        "echo": Op("Answer `text` back.",
                   required={"text": "string"},
                   optional={"times": "integer"},
                   response=("text",)),
    }

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True}

    def _op_echo(self, request: dict) -> dict:
        return {"ok": True,
                "text": request["text"] * request.get("times", 1)}


SERVERS = {
    "echo": EchoServer,
    "serve": CompileService,
}

#: Per server: (request, expected error text) for a missing required
#: field and for a wrongly typed one.  ``compile`` has no required field; its
#: handler's exactly-one-of check stands in.
BAD_REQUESTS = {
    "echo": [({"op": "echo"}, "'echo' needs a string 'text'"),
             ({"op": "echo", "text": "a", "times": True},
              "'echo' field 'times' must be an integer")],
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


def test_an_op_answers_through_its_server_s_table(kind):
    """``echo`` is only in the echo server's table."""
    with SERVERS[kind]() as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            answer = ask(sock, {"op": "echo", "text": "ab", "times": 2})
    if kind == "echo":
        assert answer == {"ok": True, "text": "abab"}
    else:
        assert answer == {"ok": False, "error": "unknown op 'echo'"}


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


def test_requests_on_one_connection_are_answered_in_order(kind):
    """Frames sent back to back are answered one by one, in order."""
    with SERVERS[kind]() as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            for request in ({"op": "ping"}, {"op": "frobnicate"},
                            {"op": "ping"}):
                send_frame(sock, request)
            answers = [recv_frame(sock) for _ in range(3)]
    assert [answer["ok"] for answer in answers] == [True, False, True]
    assert answers[1]["error"] == "unknown op 'frobnicate'"


def test_a_non_string_op_is_an_unknown_op(kind):
    with SERVERS[kind]() as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            assert ask(sock, {"op": 3}) == {"ok": False,
                                            "error": "unknown op 3"}
            assert ask(sock, {}) == {"ok": False,
                                     "error": "unknown op None"}


@pytest.mark.parametrize("raw", [
    struct.pack(">I", 2) + b"[]",            # JSON, but not an object
    struct.pack(">I", 5) + b"{oops",         # not JSON
    struct.pack(">I", 0xFFFFFFFF),           # announces an oversized body
], ids=["non-object", "undecodable", "oversized"])
def test_a_protocol_violation_closes_only_that_connection(kind, raw):
    """A peer that stops speaking the protocol is hung up on; the
    server keeps serving everyone else."""
    with SERVERS[kind]() as server:
        with socket.create_connection(server.address, timeout=5) as bad:
            bad.sendall(raw)
            assert bad.recv(1) == b""
        with socket.create_connection(server.address, timeout=5) as sock:
            assert ask(sock, {"op": "ping"})["ok"] is True


def test_endpoint_names_the_bound_address(kind):
    with SERVERS[kind]() as server:
        host, port = server.address
        assert host == "127.0.0.1"
        assert port > 0
        assert server.endpoint == f"tcp://127.0.0.1:{port}"


def test_shutdown_is_idempotent_and_drops_every_connection(kind):
    server = SERVERS[kind]().start()
    with socket.create_connection(server.address, timeout=5) as sock:
        assert ask(sock, {"op": "ping"})["ok"] is True
        assert server.n_connections == 1
        server.shutdown()
        server.shutdown()
        assert server.n_connections == 0


@pytest.mark.parametrize("idle_timeout", [0, -1.0])
def test_a_non_positive_idle_timeout_is_rejected(kind, idle_timeout):
    with pytest.raises(BatchError, match="idle_timeout must be > 0"):
        SERVERS[kind](idle_timeout=idle_timeout)


def test_an_ipv6_host_binds_an_ipv6_listener(kind):
    try:
        server = SERVERS[kind](host="::1")
    except OSError as error:
        pytest.skip(f"no IPv6 loopback here: {error}")
    with server:
        host, port = server.address
        assert host == "::1"
        assert server.endpoint == f"tcp://[::1]:{port}"
        with socket.create_connection(("::1", port), timeout=5) as sock:
            assert ask(sock, {"op": "ping"})["ok"] is True


def test_serve_forever_blocks_its_thread_until_shutdown(kind):
    server = SERVERS[kind]()
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    with socket.create_connection(server.address, timeout=5) as sock:
        assert ask(sock, {"op": "ping"})["ok"] is True
    assert serving.is_alive()
    server.shutdown()
    serving.join(timeout=5.0)
    assert not serving.is_alive()


def test_shutdown_stops_the_dispatcher(kind):
    server = SERVERS[kind]().start()
    assert server._dispatcher.is_alive()
    server.shutdown()
    assert not server._dispatcher.is_alive()
