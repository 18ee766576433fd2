"""Tests of the remote cache service: protocol, server, client, and
the end-to-end differential against local backends."""

from __future__ import annotations

import logging
import pickle
import random
import socket
import time

import pytest

from repro.agu.model import AguSpec
from repro.analysis.experiments import (
    StatisticalConfig,
    run_statistical_comparison,
)
from repro.batch.cache import (
    CacheStats,
    InMemoryLRUCache,
    JsonFileCache,
    ShardedDirectoryCache,
    TieredCache,
    open_cache,
)
from repro.batch.engine import BatchCompiler
from repro.batch.jobs import jobs_from_suite
from repro.batch.service import (
    MAX_FRAME_BYTES,
    CacheServer,
    RemoteCache,
    recv_frame,
    send_frame,
)
from repro.errors import BatchError

SPEC = AguSpec(4, 1)


@pytest.fixture
def server():
    with CacheServer(InMemoryLRUCache()) as running:
        yield running


@pytest.fixture
def client(server):
    remote = RemoteCache(*server.address, retry_interval=0.05)
    yield remote
    remote.close()


def free_port() -> int:
    """A port nothing is listening on (for dead-server tests)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


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

    def test_invalid_endpoint_specs_chain_their_causes(self):
        from repro.batch.service import parse_endpoint

        with pytest.raises(BatchError, match="invalid endpoint") \
                as bad_port:
            parse_endpoint("tcp://127.0.0.1:not-a-port")
        assert isinstance(bad_port.value.__cause__, ValueError)
        with pytest.raises(BatchError, match="invalid options") \
                as bad_query:
            parse_endpoint("tcp://127.0.0.1:80?dangling",
                           {"timeout": float})
        assert isinstance(bad_query.value.__cause__, ValueError)
        with pytest.raises(BatchError, match="invalid value") \
                as bad_value:
            parse_endpoint("tcp://127.0.0.1:80?timeout=soon",
                           {"timeout": float})
        assert isinstance(bad_value.value.__cause__, ValueError)


class TestServerSideFraming:
    """The server's half of the framing contract: a peer that stops
    speaking the protocol gets its connection closed; a response that
    cannot be framed gets an error frame, not a dropped connection."""

    def test_oversized_announce_closes_the_connection(self, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # server-side close
        # ...and the server is still serving fresh connections:
        assert RemoteCache(*server.address).ping()

    def test_eof_mid_frame_closes_the_connection(self, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(b"\x00\x00\x00\xff{")  # announces 255 bytes
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(5.0)
            assert sock.recv(1) == b""
        assert RemoteCache(*server.address).ping()

    def test_oversized_get_many_response_answers_an_error_frame(
            self, server, client, monkeypatch):
        """A ``get_many`` whose combined payloads outgrow a frame is
        answered with an error frame on the live connection (the
        client serves it as misses); it must not kill the handler."""
        import repro.batch.service as service_module

        client.put_many({"fat-1": {"v": "x" * 200},
                         "fat-2": {"v": "y" * 200}})
        with socket.create_connection(server.address, timeout=5) as sock:
            with monkeypatch.context() as patch:
                patch.setattr(service_module, "MAX_FRAME_BYTES", 300)
                send_frame(sock, {"op": "get_many",
                                  "digests": ["fat-1", "fat-2"]})
                answer = recv_frame(sock)
                assert answer["ok"] is False
                assert "exceeds" in answer["error"]
            # Same connection, framing restored: still being served.
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["ok"] is True

    def test_client_rides_out_an_idle_close(self):
        """The reconnect-once client survives the server closing its
        idle connection (the close itself is pinned for every server
        in test_frame_servers.py)."""
        with CacheServer(InMemoryLRUCache(), idle_timeout=0.2) as server:
            remote = RemoteCache(*server.address)
            remote.put("k", {"v": 1})
            time.sleep(0.3)  # server closes the idle connection
            assert remote.get("k") == {"v": 1}
            assert remote._down_since is None  # never degraded

    def test_rejects_invalid_idle_timeouts(self):
        for bad in (0, -1.0):
            with pytest.raises(BatchError, match="idle_timeout"):
                CacheServer(InMemoryLRUCache(), idle_timeout=bad)


class TestServerProtocol:
    def test_ping_get_put_stats(self, server, client):
        assert client.ping()
        assert client.get("a" * 64) is None
        client.put("a" * 64, {"x": 1, "nested": {"y": 2}})
        assert client.get("a" * 64) == {"x": 1, "nested": {"y": 2}}
        stats = client.server_stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)

    def test_put_many_batches_into_frames(self, server):
        remote = RemoteCache(*server.address, batch_size=10)
        entries = {f"digest-{i:03d}": {"v": i} for i in range(25)}
        remote.put_many(entries)
        assert remote.stats.stores == 25
        assert server.store.stats.stores == 25
        assert remote.get("digest-024") == {"v": 24}

    def test_get_many_mixed_hits_and_misses(self, server, client):
        client.put_many({"present-1": {"v": 1}, "present-2": {"v": 2}})
        found = client.get_many(["present-1", "absent", "present-2"])
        assert found == {"present-1": {"v": 1}, "present-2": {"v": 2}}
        assert client.stats.hits == 2
        assert client.stats.misses == 1

    def test_get_many_degraded_returns_empty_and_counts_misses(self):
        remote = RemoteCache("127.0.0.1", free_port(),
                             retry_interval=60.0)
        assert remote.get_many(["a", "b", "c"]) == {}
        assert remote.stats.misses == 3

    def test_warm_batch_scan_is_one_round_trip(self, server,
                                               monkeypatch):
        """The engine's initial cache pass uses get_many: a warm 8-job
        batch costs one lookup frame, not one RTT per job."""
        jobs = jobs_from_suite("core8", SPEC, n_iterations=4)
        BatchCompiler(cache=RemoteCache(*server.address)).compile(jobs)
        requests = []
        real_handle = server.handle_request
        monkeypatch.setattr(
            server, "handle_request",
            lambda request: (requests.append(request["op"]),
                             real_handle(request))[1])
        warm = BatchCompiler(
            cache=RemoteCache(*server.address)).compile(jobs)
        assert warm.n_cache_hits == len(jobs)
        assert requests == ["get_many"]

    def test_unknown_op_and_malformed_requests_answer_errors(self,
                                                             server):
        with socket.create_connection(server.address, timeout=5) as sock:
            send_frame(sock, {"op": "frobnicate"})
            assert "unknown op" in recv_frame(sock)["error"]
            send_frame(sock, {"op": "get"})  # missing digest
            assert recv_frame(sock)["ok"] is False
            send_frame(sock, {"op": "put", "digest": "d", "payload": 3})
            assert recv_frame(sock)["ok"] is False
            send_frame(sock, {"op": "put_many", "entries": {"d": []}})
            assert recv_frame(sock)["ok"] is False
            # ...and the connection is still alive afterwards:
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["ok"] is True

    def test_connection_reuse_many_requests_one_socket(self, server,
                                                       client):
        for index in range(50):
            client.put(f"key-{index}", {"v": index})
        assert all(client.get(f"key-{index}") == {"v": index}
                   for index in range(50))

    def test_server_refuses_to_front_a_remote(self, server):
        with pytest.raises(BatchError, match="another remote"):
            CacheServer(RemoteCache(*server.address))

    def test_ephemeral_port_is_reported(self, server):
        host, port = server.address
        assert host == "127.0.0.1"
        assert port > 0
        assert server.endpoint == f"tcp://{host}:{port}"

    @pytest.mark.skipif(not socket.has_ipv6, reason="no IPv6 support")
    def test_ipv6_loopback_end_to_end(self):
        """The client-side [::1] spec has a servable counterpart."""
        try:
            served = CacheServer(InMemoryLRUCache(), host="::1").start()
        except OSError:
            pytest.skip("IPv6 loopback unavailable")
        try:
            assert served.endpoint.startswith("tcp://[::1]:")
            client = open_cache(served.endpoint)
            client.put("k", {"v": 1})
            assert client.get("k") == {"v": 1}
            # The client's own endpoint round-trips through open_cache
            # too (bracketed, not "tcp://::1:PORT").
            assert client.endpoint == served.endpoint
            assert open_cache(client.endpoint).get("k") == {"v": 1}
        finally:
            served.shutdown()


class TestReadonlyServer:
    def test_gets_serve_and_puts_degrade_silently(self):
        store = InMemoryLRUCache()
        store.put("warm", {"v": 1})
        with CacheServer(store, readonly=True) as server:
            remote = RemoteCache(*server.address)
            assert remote.get("warm") == {"v": 1}
            remote.put("new", {"v": 2})
            remote.put_many({"more": {"v": 3}})
            assert remote.stats.stores == 0
            assert store.stats.stores == 1  # only the seed entry
            assert remote.get("new") is None

    def test_put_many_stops_after_the_first_readonly_response(self,
                                                              monkeypatch):
        """One rejected frame is enough: the client must not keep
        serializing and sending the rest of a large batch."""
        with CacheServer(InMemoryLRUCache(), readonly=True) as server:
            requests = []
            real_handle = server.handle_request
            monkeypatch.setattr(
                server, "handle_request",
                lambda request: (requests.append(request["op"]),
                                 real_handle(request))[1])
            remote = RemoteCache(*server.address, batch_size=5)
            remote.put_many({f"k{i}": {"v": i} for i in range(50)})
            assert requests == ["put_many"]  # 1 frame, not 10
            remote.put_many({"later": {"v": 1}})  # now known read-only
            assert requests == ["put_many"]
            assert remote.stats.stores == 0

    def test_readonly_server_never_writes_its_store(self, tmp_path):
        """--readonly must disable every write path, including the
        sharded store's corrupt-entry discard on get."""
        store = ShardedDirectoryCache(tmp_path / "blessed")
        store.put("good" * 16, {"v": 1})
        store.put("evil" * 16, {"v": 2})
        corrupt = store._entry_path("evil" * 16)
        corrupt.write_text("{ not json")
        with CacheServer(store, readonly=True) as server:
            remote = RemoteCache(*server.address)
            assert not store.discard_corrupt
            assert remote.get("good" * 16) == {"v": 1}
            assert remote.get("evil" * 16) is None
        assert corrupt.exists()  # still there: serving wrote nothing
        # The store was borrowed, not owned: self-healing is back on.
        assert store.discard_corrupt
        assert store.get("evil" * 16) is None
        assert not corrupt.exists()

    def test_failed_bind_leaves_the_store_unmutated(self, tmp_path):
        store = ShardedDirectoryCache(tmp_path / "blessed")
        with CacheServer(InMemoryLRUCache()) as occupant:
            with pytest.raises(OSError):
                CacheServer(store, port=occupant.address[1],
                            readonly=True)
        assert store.discard_corrupt

    def test_readonly_is_reprobed_after_retry_interval(self):
        """Read-only must not be sticky for the life of the client: a
        server restarted writable picks the stores back up."""
        store = InMemoryLRUCache()
        server = CacheServer(store, readonly=True).start()
        port = server.address[1]
        remote = RemoteCache("127.0.0.1", port, retry_interval=0.0)
        remote.put("k", {"v": 1})  # rejected; stores disabled
        assert remote.stats.stores == 0
        server.shutdown()
        with CacheServer(store, port=port) as _writable:
            remote.put("k", {"v": 2})  # interval elapsed: probe again
            assert remote.get("k") == {"v": 2}
            assert remote.stats.stores == 1


class TestGracefulDegradation:
    def test_dead_server_degrades_to_miss_and_log(self, caplog):
        remote = RemoteCache("127.0.0.1", free_port(),
                             retry_interval=60.0)
        with caplog.at_level(logging.WARNING, "repro.batch.service"):
            assert remote.get("a" * 64) is None
            remote.put("a" * 64, {"x": 1})
            remote.put_many({"b" * 64: {"x": 2}})
            assert not remote.ping()
            assert remote.server_stats() is None
        assert any("degrading" in record.message
                   for record in caplog.records)
        assert remote.stats.misses == 1
        assert remote.stats.hits == remote.stats.stores == 0

    def test_backoff_probes_again_after_retry_interval(self):
        port = free_port()
        remote = RemoteCache("127.0.0.1", port, retry_interval=0.0)
        assert remote.get("k") is None  # marks the server down
        with CacheServer(InMemoryLRUCache(), port=port) as _server:
            remote.put("k", {"x": 1})  # retry_interval elapsed: probe
            assert remote.get("k") == {"x": 1}

    def test_client_reconnects_after_a_server_restart(self):
        first = CacheServer(InMemoryLRUCache()).start()
        port = first.address[1]
        remote = RemoteCache("127.0.0.1", port, retry_interval=0.0)
        remote.put("k", {"x": 1})
        first.shutdown()
        assert remote.get("k") is None  # down: a miss, not an error
        with CacheServer(InMemoryLRUCache(), port=port) as _second:
            remote.put("k", {"x": 2})
            assert remote.get("k") == {"x": 2}

    def test_oversized_store_is_dropped_without_degrading(
            self, server, client, monkeypatch):
        """A frame too large to send is a local drop, not a transport
        failure: the server must stay 'up' and unrelated requests must
        keep being served immediately."""
        import repro.batch.service as service_module

        client.put("small", {"v": 1})
        with monkeypatch.context() as patch:
            patch.setattr(service_module, "MAX_FRAME_BYTES", 64)
            client.put("big", {"v": "x" * 200})
            client.put_many({"big-2": {"v": "y" * 200}})
        assert client.stats.stores == 1  # only the small one
        assert client._down_since is None  # not degraded
        assert client.get("small") == {"v": 1}
        assert client.get("big") is None

    def test_oversized_store_on_the_retry_attempt_does_not_degrade(
            self, server, client, monkeypatch):
        """The reconnect-and-retry path must treat a frame-too-large
        exactly like the first attempt: a local drop, no degradation
        of the (healthy) server."""
        import repro.batch.service as service_module

        client.put("seed", {"v": 1})
        client._sock.close()  # stale socket: first attempt fails
        with monkeypatch.context() as patch:
            patch.setattr(service_module, "MAX_FRAME_BYTES", 64)
            client.put("big", {"v": "x" * 200})
        assert client._down_since is None
        assert client.stats.stores == 1
        assert client.get("seed") == {"v": 1}

    def test_oversized_lookup_degrades_to_misses(self, server, client,
                                                 monkeypatch):
        """Lookups share the stores' contract: a request frame that
        cannot be sent is served as misses, never as an exception
        into the batch."""
        import repro.batch.service as service_module

        client.put("k", {"v": 1})
        with monkeypatch.context() as patch:
            patch.setattr(service_module, "MAX_FRAME_BYTES", 32)
            assert client.get("x" * 40) is None
            assert client.get_many(["y" * 40, "z" * 40]) == {}
        assert client.get("k") == {"v": 1}

    def test_oversized_response_answers_an_error_frame(
            self, server, client, monkeypatch):
        """When a *response* outgrows a frame, the server answers with
        an error frame on the live connection -- served as a miss --
        instead of dropping it and being misread as dead."""
        import repro.batch.service as service_module

        client.put("fat", {"v": "z" * 400})
        with monkeypatch.context() as patch:
            patch.setattr(service_module, "MAX_FRAME_BYTES", 300)
            assert client.get("fat") is None
            assert client._down_since is None  # not degraded
        assert client.get("fat") == {"v": "z" * 400}

    def test_degradation_mid_batch_never_raises_into_the_engine(self):
        server = CacheServer(InMemoryLRUCache()).start()
        remote = RemoteCache(*server.address, retry_interval=60.0)
        jobs = jobs_from_suite("core8", SPEC, n_iterations=4)
        stream = BatchCompiler(cache=remote).as_completed(jobs)
        next(stream)
        server.shutdown()  # the server dies mid-run
        results = dict(stream)
        assert len(results) == len(jobs) - 1
        report = BatchCompiler(cache=remote).compile(jobs)
        assert report.n_jobs == len(jobs)  # all recompiled, none lost


class TestPickling:
    def test_client_crosses_process_boundaries(self, server, client):
        client.put("k", {"x": 1})
        clone = pickle.loads(pickle.dumps(client))
        assert clone.get("k") == {"x": 1}
        # Fresh per-process connection state and stats:
        assert clone.stats.hits == 1 and clone.stats.stores == 0
        assert client.stats.stores == 1

    def test_rejects_invalid_configuration(self):
        for kwargs in ({}, {"batch_size": 0}, {"timeout": 0},
                       {"timeout": -1.0}, {"retry_interval": -0.1}):
            with pytest.raises(BatchError):
                RemoteCache("localhost", 0 if not kwargs else 80,
                            **kwargs)
        with pytest.raises(BatchError):
            RemoteCache("localhost", 70000)
        # Misconfiguration fails loudly at open time, not mid-batch:
        with pytest.raises(BatchError):
            open_cache("tcp://127.0.0.1:8741?timeout=-1")


class TestEngineIntegration:
    def test_cold_then_warm_through_the_server(self, server, client):
        jobs = jobs_from_suite("core8", SPEC, n_iterations=4)
        cold = BatchCompiler(cache=client).compile(jobs)
        assert cold.n_compiled == len(jobs)
        warm = BatchCompiler(
            cache=RemoteCache(*server.address)).compile(jobs)
        assert warm.n_cache_hits == len(jobs)
        assert warm.n_compiled == 0
        assert [r.total_cost for r in warm.results] \
            == [r.total_cost for r in cold.results]

    def test_remote_matches_local_results(self, client):
        jobs = jobs_from_suite("core8", SPEC, n_iterations=4)
        local = BatchCompiler().compile(jobs)
        remote = BatchCompiler(cache=client).compile(jobs)
        assert [(r.name, r.total_cost, r.k_tilde)
                for r in remote.results] \
            == [(r.name, r.total_cost, r.k_tilde)
                for r in local.results]


#: The quick EXP-S1 grid of the end-to-end differential (4 points).
GRID = StatisticalConfig(n_values=(10, 14), m_values=(1, 2),
                         k_values=(2,), patterns_per_config=4,
                         naive_repeats=2, seed=11)


class TestRemoteDifferential:
    """EXP-S1 through a live server must be bit-identical to the local
    backends, across worker counts, with zero-recompile re-runs."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return run_statistical_comparison(GRID,
                                          cache=InMemoryLRUCache())

    def test_grid_bit_identical_across_backends_and_workers(
            self, tmp_path, baseline):
        local_dir = run_statistical_comparison(
            GRID, cache=ShardedDirectoryCache(tmp_path / "dir"))
        assert local_dir.rows == baseline.rows
        with CacheServer(ShardedDirectoryCache(tmp_path / "served")) \
                as server:
            for workers in (1, 2):
                remote = run_statistical_comparison(
                    GRID, n_workers=workers,
                    cache=open_cache(server.endpoint))
                assert remote.rows == baseline.rows
                assert remote.average_reduction_pct \
                    == baseline.average_reduction_pct
                assert remote.overall_reduction_pct \
                    == baseline.overall_reduction_pct

    def test_second_run_through_live_server_recompiles_nothing(
            self, tmp_path, baseline):
        with CacheServer(ShardedDirectoryCache(tmp_path / "grid")) \
                as server:
            first = run_statistical_comparison(
                GRID, cache=open_cache(server.endpoint))
            assert first.n_points_compiled == len(GRID.grid())
            second = run_statistical_comparison(
                GRID, n_workers=2, cache=open_cache(server.endpoint))
            assert second.n_points_compiled == 0
            assert second.n_points_cached == len(GRID.grid())
            assert second.rows == baseline.rows
        # The backing store is a plain local backend: the same entries
        # serve a direct (server-less) run just as well.
        direct = run_statistical_comparison(
            GRID, cache=ShardedDirectoryCache(tmp_path / "grid"))
        assert direct.n_points_compiled == 0
        assert direct.rows == baseline.rows


class TestStatsInvariants:
    """Property test: every backend's counters agree with a model dict
    (``hits + misses == lookups``, one store per persisted entry)."""

    def exercise(self, cache, seed: int) -> None:
        rng = random.Random(seed)
        keys = [f"digest-{i:02d}" for i in range(12)]
        model: dict[str, dict] = {}
        gets = hits = stores = 0
        for _ in range(120):
            action = rng.random()
            key = rng.choice(keys)
            if action < 0.5:
                gets += 1
                expected = model.get(key)
                assert cache.get(key) == expected
                hits += expected is not None
            elif action < 0.8:
                payload = {"v": rng.randrange(100)}
                cache.put(key, payload)
                model[key] = payload
                stores += 1
            else:
                entries = {rng.choice(keys): {"v": rng.randrange(100)}
                           for _ in range(rng.randrange(1, 4))}
                cache.put_many(entries)
                model.update(entries)
                stores += len(entries)
        assert cache.stats.hits == hits
        assert cache.stats.misses == gets - hits
        assert cache.stats.lookups == gets
        assert cache.stats.stores == stores

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_memory(self, seed):
        self.exercise(InMemoryLRUCache(), seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_json_file(self, tmp_path, seed):
        self.exercise(JsonFileCache(tmp_path / "store.json"), seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sharded_directory(self, tmp_path, seed):
        self.exercise(ShardedDirectoryCache(tmp_path / "store"), seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiered(self, seed):
        self.exercise(TieredCache(InMemoryLRUCache()), seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tiered_without_a_backend(self, seed):
        self.exercise(TieredCache(), seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_remote(self, server, seed):
        self.exercise(RemoteCache(*server.address), seed)

    def test_remote_invariant_holds_while_degraded(self):
        remote = RemoteCache("127.0.0.1", free_port(),
                             retry_interval=60.0)
        for index in range(5):
            assert remote.get(f"k{index}") is None
        remote.put("k", {"v": 1})
        assert remote.stats.lookups == 5
        assert remote.stats.hits + remote.stats.misses == 5
        assert remote.stats.stores == 0
