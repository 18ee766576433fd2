"""Tests of the batch layer's TCP core: the length-prefixed framing,
the ``tcp://HOST:PORT`` endpoint grammar, and the server side of the
framing contract on the compile service."""

from __future__ import annotations

import socket

import pytest

import repro.batch.service as service_module
from repro.batch.service import (
    MAX_FRAME_BYTES,
    FrameTooLargeError,
    format_endpoint,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.batch.serving import CompileService, ServeClient
from repro.errors import BatchError


class TestFraming:
    def test_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, {"op": "ping", "n": 3})
            assert recv_frame(right) == {"op": "ping", "n": 3}
            send_frame(right, {"ok": True})
            assert recv_frame(left) == {"ok": True}

    def test_clean_eof_between_frames_is_none(self):
        left, right = socket.socketpair()
        with right:
            left.close()
            assert recv_frame(right) is None

    def test_eof_mid_frame_raises(self):
        left, right = socket.socketpair()
        with right:
            left.sendall(b"\x00\x00\x00\xff{")  # announces 255 bytes
            left.close()
            with pytest.raises(BatchError, match="mid-frame"):
                recv_frame(right)

    def test_oversized_frame_announcement_rejected(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(BatchError, match="limit"):
                recv_frame(right)

    def test_non_object_frame_rejected(self):
        left, right = socket.socketpair()
        with left, right:
            body = b"[1, 2]"
            left.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(BatchError, match="JSON object"):
                recv_frame(right)

    def test_undecodable_frame_chains_the_decode_error(self):
        """The protocol error must carry the JSON decoder's error as
        its ``__cause__`` -- ``raise ... from`` at the raise site --
        so tracebacks show *why* the frame was undecodable."""
        left, right = socket.socketpair()
        with left, right:
            body = b"{not json"
            left.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(BatchError, match="undecodable") \
                    as caught:
                recv_frame(right)
        assert isinstance(caught.value.__cause__, ValueError)

    def test_an_oversized_send_raises_before_any_byte_is_sent(
            self, monkeypatch):
        """The sending side refuses a frame over the limit up front,
        so the connection stays in protocol sync."""
        monkeypatch.setattr(service_module, "MAX_FRAME_BYTES", 16)
        left, right = socket.socketpair()
        with left, right:
            with pytest.raises(FrameTooLargeError, match="exceeds"):
                send_frame(left, {"payload": "x" * 32})
            send_frame(left, {"ok": 1})
            assert recv_frame(right) == {"ok": 1}


class TestEndpointGrammar:
    @pytest.mark.parametrize("spec, expected", [
        ("tcp://127.0.0.1:8743", ("127.0.0.1", 8743)),
        ("tcp://:8743", ("127.0.0.1", 8743)),
        ("tcp://[::1]:9000", ("::1", 9000)),
        ("tcp://serve-host:1", ("serve-host", 1)),
        ("tcp://serve-host:65535", ("serve-host", 65535)),
    ])
    def test_valid_specs(self, spec, expected):
        assert parse_endpoint(spec) == expected

    @pytest.mark.parametrize("spec", [
        "tcp://hostonly",              # no port
        "tcp://host:0",                # out-of-range port
        "tcp://host:65536",
        "http://host:8743",            # wrong scheme
        "tcp://host:8743/path",
        "tcp://host:8743?timeout=2",   # no options on any endpoint
        "tcp://host:8743#fragment",
        "tcp://user@host:8743",
        "host:8743",
    ])
    def test_invalid_specs_are_rejected(self, spec):
        with pytest.raises(BatchError, match="invalid endpoint spec"):
            parse_endpoint(spec)

    def test_an_unparsable_port_chains_its_cause(self):
        with pytest.raises(BatchError, match="invalid endpoint") \
                as bad_port:
            parse_endpoint("tcp://127.0.0.1:not-a-port")
        assert isinstance(bad_port.value.__cause__, ValueError)

    @pytest.mark.parametrize("host", ["127.0.0.1", "serve-host", "::1"])
    def test_format_endpoint_round_trips(self, host):
        assert parse_endpoint(format_endpoint(host, 8743)) \
            == (host, 8743)

    def test_the_client_checks_the_port_range(self):
        with pytest.raises(BatchError, match="1..65535"):
            ServeClient("tcp://127.0.0.1:0")


class TestServerSideFraming:
    """The compile service's half of the framing contract: a peer that
    stops speaking the protocol gets its connection closed; a response
    that cannot be framed gets an error frame, not a dropped
    connection."""

    @pytest.fixture
    def service(self):
        with CompileService() as running:
            yield running

    def test_oversized_announce_closes_the_connection(self, service):
        with socket.create_connection(service.address, timeout=5) \
                as sock:
            sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # server-side close
        # ...and the service still serves fresh connections:
        with ServeClient(service.endpoint) as client:
            assert client.ping()

    def test_eof_mid_frame_closes_the_connection(self, service):
        with socket.create_connection(service.address, timeout=5) \
                as sock:
            sock.sendall(b"\x00\x00\x00\xff{")  # announces 255 bytes
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(5.0)
            assert sock.recv(1) == b""
        with ServeClient(service.endpoint) as client:
            assert client.ping()

    def test_oversized_response_answers_an_error_frame(
            self, service, monkeypatch):
        """A compile answer (result plus listing) that outgrows a
        frame is answered with an error frame on the live connection;
        the handler keeps serving it."""
        request = {"op": "compile", "kernel": "fir8", "listing": True}
        with socket.create_connection(service.address, timeout=30) \
                as sock:
            with monkeypatch.context() as patch:
                patch.setattr(service_module, "MAX_FRAME_BYTES", 300)
                send_frame(sock, request)
                answer = recv_frame(sock)
                assert answer["ok"] is False
                assert "exceeds the 300-byte limit" in answer["error"]
            # Same connection, framing restored: still being served.
            send_frame(sock, request)
            answer = recv_frame(sock)
            assert answer["ok"] is True
            assert answer["listing"]
