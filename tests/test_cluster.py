"""Tests of the distributed execution service (`repro.batch.cluster`)
and the engine's executor seam.

The contract under test: `BatchCompiler` behaves identically whatever
executes its cache misses -- inline, a local process pool, or a fleet
of workers leasing jobs from a `JobServer` -- including the failure
semantics (`BatchError` naming the job, completed work persisted
before the error propagates, resumable caches) and survival of worker
death mid-job (lease requeue, bit-identical results).
"""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from _cluster_harness import (
    GateJob,
    VirtualClock,
    gate_events,
    reset_gate,
    scripted_cluster,
)
from _cluster_jobs import (
    CrashingJob,
    HugeResultJob,
    SlowOnceJob,
    TinyJob,
    TinyResult,
    thread_fleet,
)

import repro
from repro.agu.model import AguSpec
from repro.analysis.experiments import (
    quick_statistical_config,
    run_statistical_comparison,
)
from repro.batch.cache import ShardedDirectoryCache
from repro.batch.cluster import (
    ClusterExecutor,
    JobServer,
    Worker,
    cluster_executor_from_spec,
    decode_payload,
    encode_payload,
    parse_endpoint,
)
from repro.batch.digest import job_digest
from repro.batch.engine import (
    BatchCompiler,
    InlineExecutor,
    LocalPoolExecutor,
    open_executor,
)
from repro.batch.jobs import jobs_from_suite
from repro.errors import BatchError

SPEC = AguSpec(4, 1)


def suite_jobs(count: int = 6):
    return jobs_from_suite("full", SPEC, n_iterations=4)[:count]


def spawn_worker(endpoint: str, *extra: str) -> subprocess.Popen:
    """A real ``repro-agu worker`` subprocess that can unpickle both
    `repro.batch` jobs and this suite's `_cluster_jobs` helpers."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    tests_dir = str(Path(__file__).resolve().parent)
    extra_path = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([src, tests_dir] + extra_path)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli.main", "worker", endpoint,
         "--poll", "0.2", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)


def unused_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestSpecParsing:
    def test_open_executor_inline(self):
        assert isinstance(open_executor("inline"), InlineExecutor)

    def test_open_executor_local_pool(self):
        executor = open_executor("local:3")
        assert isinstance(executor, LocalPoolExecutor)
        assert executor.n_workers == 3

    def test_open_executor_local_defaults_to_cpu_count(self):
        executor = open_executor("local")
        assert executor.n_workers == (os.cpu_count() or 1)

    def test_open_executor_tcp(self):
        executor = open_executor("tcp://127.0.0.1:8742?timeout=7")
        assert isinstance(executor, ClusterExecutor)
        assert (executor.host, executor.port) == ("127.0.0.1", 8742)
        assert executor.timeout == 7.0

    def test_instances_pass_through(self):
        executor = InlineExecutor()
        assert open_executor(executor) is executor

    @pytest.mark.parametrize("spec", [
        "pool", "local:x", "local:0", "redis://h:1", "tcp://nope",
        "tcp://h:1/path", "tcp://127.0.0.1:1?bogus=1",
        "tcp://127.0.0.1:1?timeout=x",
    ])
    def test_bad_specs_fail_loudly(self, spec):
        with pytest.raises(BatchError):
            open_executor(spec)

    def test_parse_endpoint_options(self):
        host, port, options = parse_endpoint(
            "tcp://[::1]:9000?timeout=2.5", {"timeout": float})
        assert (host, port) == ("::1", 9000)
        assert options == {"timeout": 2.5}

    def test_parse_endpoint_is_the_shared_grammar(self):
        """Cache specs and executor specs parse through one function
        (see repro.batch.service.parse_endpoint)."""
        import repro.batch.service as service

        assert parse_endpoint is service.parse_endpoint
        with pytest.raises(BatchError, match="unknown option"):
            parse_endpoint("tcp://h:1?bogus=1", {"timeout": float})

    def test_cluster_executor_validates_port_and_timeout(self):
        with pytest.raises(BatchError):
            ClusterExecutor("h", 0)
        with pytest.raises(BatchError):
            ClusterExecutor("h", 80, timeout=0)

    def test_compiler_rejects_workers_plus_executor(self):
        with pytest.raises(BatchError):
            BatchCompiler(n_workers=2, executor="inline")

    def test_compiler_accepts_spec_strings(self):
        report = BatchCompiler(executor="inline").compile(suite_jobs(2))
        assert report.n_jobs == 2


class TestPayloadCodec:
    def test_round_trip(self):
        job = TinyJob(name="codec", value=21)
        assert decode_payload(encode_payload(job)) == job


class TestProtocol:
    """Direct `handle_worker_request` coverage (no sockets)."""

    def test_ping_and_unknown_op(self):
        server = JobServer()
        try:
            assert server.handle_worker_request(
                {"op": "ping"}, owner=object())["ok"]
            response = server.handle_worker_request(
                {"op": "nope"}, owner=object())
            assert not response["ok"] and "unknown op" in response["error"]
        finally:
            server.shutdown()

    def test_lease_idle_complete_flow(self):
        server = JobServer()
        try:
            owner = object()
            assert server.handle_worker_request(
                {"op": "lease", "wait": 0}, owner)["idle"]
            job = TinyJob(name="flow", value=3)
            batch = server.create_batch([encode_payload(job)])
            leased = server.handle_worker_request(
                {"op": "lease", "wait": 0}, owner)
            assert leased["index"] == 0
            assert decode_payload(leased["job"]) == job
            result = decode_payload(leased["job"]).execute()
            done = server.handle_worker_request(
                {"op": "complete", "lease": leased["lease"],
                 "result": encode_payload(result)}, owner)
            assert done == {"ok": True}
            event = batch.events.get(timeout=1.0)
            assert event["event"] == "result" and event["index"] == 0
            assert batch.events.get(timeout=1.0)["event"] == "done"
            assert server.stats.completed == 1
        finally:
            server.shutdown()

    def test_stale_lease_is_acknowledged_but_ignored(self):
        server = JobServer()
        try:
            response = server.handle_worker_request(
                {"op": "complete", "lease": "l999", "result":
                 encode_payload(TinyResult("x", "d", 1))}, object())
            assert response == {"ok": True, "stale": True}
        finally:
            server.shutdown()

    def test_malformed_ops_answer_errors(self):
        server = JobServer()
        try:
            for bad in ({"op": "lease", "wait": -1},
                        {"op": "complete", "lease": 3, "result": "x"},
                        {"op": "fail"}):
                assert not server.handle_worker_request(bad, object())["ok"]
        finally:
            server.shutdown()

    def test_status_counts_queue_and_workers(self):
        with thread_fleet(n_workers=2) as server:
            deadline = time.monotonic() + 5.0
            while server.n_connected_workers < 2 \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            status = server.handle_worker_request(
                {"op": "status"}, object())
            assert status["ok"] and status["workers"] == 2
            assert status["queued"] == 0 and status["batches"] == 0

    def test_rejects_invalid_server_parameters(self):
        with pytest.raises(BatchError):
            JobServer(lease_timeout=0)
        with pytest.raises(BatchError):
            JobServer(max_attempts=0)
        with pytest.raises(BatchError):
            JobServer(idle_timeout=0)

    def test_fleet_keeps_working_while_silent_peers_are_dropped(self):
        """A connection that never speaks is dropped after
        idle_timeout, while healthy workers poll well inside it and
        keep executing batches (the idle close and a prompt shutdown
        are pinned for every server in test_frame_servers.py)."""
        with thread_fleet(n_workers=1, idle_timeout=0.2) as server:
            with socket.create_connection(server.address,
                                          timeout=5) as sock:
                sock.settimeout(5.0)
                assert sock.recv(1) == b""  # server-side close
            report = BatchCompiler(
                executor=ClusterExecutor(*server.address)).compile(
                [TinyJob("idle-check", 1)])
            assert report.n_jobs == 1


class TestClusterExecution:
    """End-to-end through the engine, thread-fleet topology."""

    def test_suite_matches_inline_bit_for_bit(self):
        jobs = suite_jobs(6)
        inline = BatchCompiler().compile(jobs)
        with thread_fleet(n_workers=2) as server:
            clustered = BatchCompiler(
                executor=ClusterExecutor(*server.address)).compile(jobs)
            assert server.stats.completed == len(jobs)
        assert [(r.name, r.digest, r.total_cost, r.k_tilde,
                 r.overhead_per_iteration)
                for r in clustered.results] \
            == [(r.name, r.digest, r.total_cost, r.k_tilde,
                 r.overhead_per_iteration)
                for r in inline.results]

    def test_streaming_persists_every_point(self, tmp_path):
        jobs = suite_jobs(5)
        store = ShardedDirectoryCache(tmp_path / "store")
        with thread_fleet(n_workers=2) as server:
            compiler = BatchCompiler(
                cache=store, executor=ClusterExecutor(*server.address))
            delivered = dict(compiler.as_completed(jobs))
        assert sorted(delivered) == list(range(len(jobs)))
        assert len(store) == len(jobs)
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(jobs)
        assert resumed.n_cache_hits == len(jobs)

    def test_duplicate_digests_compute_once(self):
        job = TinyJob(name="dup", value=5)
        twin = TinyJob(name="dup-twin", value=5)
        with thread_fleet(n_workers=2) as server:
            compiler = BatchCompiler(
                executor=ClusterExecutor(*server.address))
            results = [result for _, result
                       in compiler.as_completed([job, twin])]
            assert server.stats.completed == 1
        assert {result.name for result in results} \
            == {"dup", "dup-twin"}
        assert sum(result.from_cache for result in results) == 1

    def test_heartbeats_keep_slow_jobs_alive(self, tmp_path):
        """A job slower than the client's frame timeout must not trip
        the went-silent detection: heartbeats flow while it runs."""
        marker = tmp_path / "never-used"
        marker.write_text("skip the sleep? no: sleep every time")
        slow = SlowOnceJob(name="slowish", marker=str(tmp_path / "m"),
                           seconds=1.2)
        with thread_fleet(n_workers=1, heartbeat=0.1) as server:
            executor = ClusterExecutor(*server.address, timeout=0.6)
            report = BatchCompiler(executor=executor).compile([slow])
        assert report.results[0].value == 7

    def test_dead_server_fails_the_batch_loudly(self):
        executor = ClusterExecutor("127.0.0.1", unused_port(),
                                   timeout=0.5)
        with pytest.raises(BatchError, match="cannot reach job server"):
            BatchCompiler(executor=executor).compile(suite_jobs(2))

    def test_server_shutdown_mid_batch_fails_loudly(self, tmp_path):
        server = JobServer()
        server.start()
        executor = ClusterExecutor(*server.address, timeout=0.5)
        stream = BatchCompiler(executor=executor).as_completed(
            [TinyJob(name="stranded")])
        server.shutdown()
        with pytest.raises(BatchError):
            list(stream)

    def test_abandoned_stream_cancels_queued_jobs(self, tmp_path):
        """Breaking out of as_completed cancels the batch: queued jobs
        drop server-side and the server stays serviceable."""
        store = ShardedDirectoryCache(tmp_path / "store")
        slow_jobs = [SlowOnceJob(name=f"s{i}",
                                 marker=str(tmp_path / f"m{i}"),
                                 seconds=0.3, value=i)
                     for i in range(6)]
        with thread_fleet(n_workers=1) as server:
            compiler = BatchCompiler(
                cache=store, executor=ClusterExecutor(*server.address))
            for _index, _result in compiler.as_completed(slow_jobs):
                break  # abandon after the first delivery
            assert server.stats.dropped >= 1
            # The server still serves new batches afterwards.
            report = BatchCompiler(
                executor=ClusterExecutor(*server.address)).compile(
                    [TinyJob(name="after", value=1)])
            assert report.results[0].value == 2
        # Everything delivered or drained was persisted.
        assert len(store) >= 1


class TestClusterFailureSemantics:
    """The engine's failure contract, served by remote workers."""

    def test_crash_names_job_and_digest_and_resumes(self, tmp_path):
        survivors = suite_jobs(4)
        jobs = [*survivors, CrashingJob(name="poison")]
        store = ShardedDirectoryCache(tmp_path / "store")
        with thread_fleet(n_workers=2) as server:
            compiler = BatchCompiler(
                cache=store, executor=ClusterExecutor(*server.address))
            with pytest.raises(BatchError) as caught:
                for _ in compiler.as_completed(jobs):
                    pass
            assert server.stats.failed == 1
        assert caught.value.job_name == "poison"
        assert caught.value.digest == job_digest(CrashingJob("poison"))
        assert "injected crash" in str(caught.value)
        assert "RuntimeError" in str(caught.value)
        # Completed survivors persisted; the re-run resumes.
        assert len(store) >= 1
        fresh = BatchCompiler().compile(survivors)
        resumed = BatchCompiler(
            cache=ShardedDirectoryCache(store.root)).compile(survivors)
        assert resumed.n_cache_hits == len(store)
        assert [(r.name, r.total_cost) for r in resumed.results] \
            == [(r.name, r.total_cost) for r in fresh.results]

    def test_compile_path_names_the_failing_job(self):
        with thread_fleet(n_workers=2) as server:
            with pytest.raises(BatchError) as caught:
                BatchCompiler(
                    executor=ClusterExecutor(*server.address)).compile(
                        [*suite_jobs(2), CrashingJob(name="poison")])
        assert caught.value.job_name == "poison"
        assert caught.value.digest is not None

    def test_job_failures_are_never_requeued(self):
        """A deterministic crash reaches the client once; the server
        does not burn further leases on it."""
        with thread_fleet(n_workers=2) as server:
            with pytest.raises(BatchError):
                BatchCompiler(
                    executor=ClusterExecutor(*server.address)).compile(
                        [CrashingJob(name="poison")])
            assert server.stats.failed == 1
            assert server.stats.requeued == 0

    def test_oversized_result_fails_the_job_not_the_worker(
            self, monkeypatch):
        """A result that cannot fit one protocol frame is reported as
        that job's failure; the worker survives to serve the next
        batch instead of cascading the fleet down."""
        import repro.batch.service as service

        monkeypatch.setattr(service, "MAX_FRAME_BYTES", 4096)
        with thread_fleet(n_workers=1) as server:
            executor = ClusterExecutor(*server.address)
            with pytest.raises(BatchError) as caught:
                BatchCompiler(executor=executor).compile(
                    [HugeResultJob(name="blob")])
            assert caught.value.job_name == "blob"
            assert "result too large" in str(caught.value)
            report = BatchCompiler(executor=executor).compile(
                [TinyJob(name="next", value=9)])
            assert report.results[0].value == 18
            assert server.stats.failed == 1
            assert server.stats.completed == 1

    def test_zero_worker_submit_warns_instead_of_silence(self, caplog):
        """Submitting to an empty fleet logs a loud hint (the batch
        legitimately waits for workers to join)."""
        import logging

        with JobServer() as server:
            with caplog.at_level(logging.WARNING,
                                 logger="repro.batch.cluster"):
                stream = ClusterExecutor(*server.address).run(
                    [TinyJob(name="waiting")])
            assert "no connected workers" in caplog.text
            assert stream.shutdown() == {}
            assert server.stats.dropped == 1


class TestLeaseRecovery:
    def test_expired_lease_is_requeued_and_completed(self):
        """A worker that leases a job and goes silent loses it to the
        reaper; the job completes on a live worker.  Deterministic:
        the stall is a virtual-clock advance, not a sleep."""
        with scripted_cluster(lease_timeout=0.2) as cluster:
            silent, live = cluster.worker(), cluster.worker()
            batch = cluster.submit([TinyJob(name="lost", value=4)])
            leased = silent.lease()
            assert leased["index"] == 0
            cluster.clock.advance(0.25)  # the stall fault
            assert cluster.server.reap_expired_leases() == 1
            assert cluster.server.stats.requeued == 1
            # A live worker now gets the requeued job...
            released = live.lease()
            assert released["index"] == 0
            result = decode_payload(released["job"]).execute()
            assert live.complete(released, result) == {"ok": True}
            # ...and the silent worker's late completion is stale.
            assert silent.complete(leased, result) \
                == {"ok": True, "stale": True}
            events = cluster.drain_events(batch)
            assert [event["event"] for event in events] \
                == ["result", "done"]
            assert cluster.server.stats.completed == 1
            assert cluster.server.stats.stale == 1

    def test_gives_up_after_max_attempts(self):
        """A job that loses every worker it touches eventually fails
        the batch instead of looping forever.  The fault is a worker
        SIGKILL (connection loss) injected via the harness."""
        with scripted_cluster(lease_timeout=60.0,
                              max_attempts=2) as cluster:
            batch = cluster.submit([TinyJob(name="doomed")])
            for _attempt in range(2):
                doomed = cluster.worker()
                assert doomed.lease() is not None
                doomed.kill()  # SIGKILL: leases requeue on disconnect
            events = cluster.drain_events(batch)
            assert [event["event"] for event in events] \
                == ["failed", "aborted"]
            assert events[0]["error_type"] == "WorkerLost"
            assert cluster.server.stats.requeued == 1

    def test_duplicate_completion_is_first_wins(self):
        """Two completions on one lease: the first is accepted, the
        duplicate is acknowledged stale, and the client sees exactly
        one result event."""
        with scripted_cluster() as cluster:
            worker = cluster.worker()
            batch = cluster.submit([TinyJob(name="twice", value=3)])
            leased = worker.lease()
            result = decode_payload(leased["job"]).execute()
            assert worker.complete(leased, result) == {"ok": True}
            assert worker.complete(leased, result) \
                == {"ok": True, "stale": True}
            events = cluster.drain_events(batch)
            assert [event["event"] for event in events] \
                == ["result", "done"]
            assert cluster.server.stats.completed == 1
            assert cluster.server.stats.stale == 1

    def test_worker_killed_mid_job_requeues_and_completes(
            self, tmp_path):
        """The headline recovery scenario: SIGKILL a worker process
        mid-job; the lease requeues on connection loss and the job
        completes on another worker, bit-identical to a clean run."""
        marker = tmp_path / "leased-once"
        jobs = [SlowOnceJob(name="victim", marker=str(marker),
                            seconds=60.0, value=11),
                *[TinyJob(name=f"t{i}", value=i) for i in range(3)]]
        store = ShardedDirectoryCache(tmp_path / "store")
        with JobServer(lease_timeout=120.0) as server:
            first = spawn_worker(server.endpoint)
            try:
                report_box: list = []
                runner = threading.Thread(
                    target=lambda: report_box.append(
                        BatchCompiler(
                            cache=store,
                            executor=ClusterExecutor(
                                *server.address)).compile(jobs)),
                    daemon=True)
                runner.start()
                # Wait until the victim job is running on the first
                # worker (it wrote its marker), then kill that worker.
                deadline = time.monotonic() + 30.0
                while not marker.exists() \
                        and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert marker.exists(), "victim job never started"
                first.kill()
                first.wait(timeout=10.0)
                # A replacement worker finishes the batch (the victim
                # job runs fast the second time).
                second = spawn_worker(server.endpoint, "--max-jobs",
                                      str(len(jobs)))
                try:
                    runner.join(timeout=60.0)
                    assert not runner.is_alive(), "batch never finished"
                finally:
                    second.terminate()
                    second.wait(timeout=10.0)
            finally:
                first.kill()
            assert server.stats.requeued >= 1
        report = report_box[0]
        assert report.result("victim").value == 11
        assert [report.result(f"t{i}").value for i in range(3)] \
            == [0, 2, 4]
        # The summary matches a single-host run bit-for-bit.
        inline = BatchCompiler().compile(
            [SlowOnceJob(name="victim", marker=str(marker),
                         seconds=60.0, value=11),
             *[TinyJob(name=f"t{i}", value=i) for i in range(3)]])
        assert [(r.name, r.digest, r.value) for r in report.results] \
            == [(r.name, r.digest, r.value) for r in inline.results]


class TestSchedulingPolicies:
    """The one schedule: largest size hint first under the static
    lease timeout, deterministically under a virtual clock."""

    def test_no_size_hints_keeps_submission_order(self):
        """A batch without size hints is served first come first
        served (names alone do not reorder anything)."""
        with scripted_cluster() as cluster:
            cluster.submit([TinyJob(name=f"j{i}", value=i)
                            for i in range(3)],
                           hints=[{"name": f"j{i}"} for i in range(3)])
            worker = cluster.worker()
            assert [worker.lease()["index"] for _ in range(3)] \
                == [0, 1, 2]

    def test_size_order_leases_largest_hinted_first(self):
        """Hinted jobs go largest-first; unhinted jobs keep submission
        order after every hinted one."""
        with scripted_cluster() as cluster:
            hints = [{"name": "j0", "size": 1.0},
                     {"name": "j1", "size": 5.0},
                     {"name": "j2", "size": 3.0},
                     {"name": "j3"}]
            cluster.submit([TinyJob(name=f"j{i}", value=i)
                            for i in range(4)], hints=hints)
            worker = cluster.worker()
            assert [worker.lease()["index"] for _ in range(4)] \
                == [1, 2, 0, 3]

    def test_size_order_survives_malformed_hints(self):
        """Hints are advisory: garbage falls back to submission order
        instead of failing the batch."""
        with scripted_cluster() as cluster:
            cluster.submit([TinyJob(name=f"j{i}", value=i)
                            for i in range(2)],
                           hints=[{"size": "huge"}, "nonsense"])
            worker = cluster.worker()
            assert [worker.lease()["index"] for _ in range(2)] \
                == [0, 1]

    def test_fast_jobs_never_shrink_the_lease_timeout(self):
        """Five 0.1 s jobs, then a healthy sixth that stays leased
        across four 1.5 s reaper sweeps: under the static default
        timeout nothing is reaped and the job completes.  (A timeout
        derived from the fast jobs' p95 -- 1 s -- reaped it three
        times and failed the batch with ``WorkerLost``.)"""
        sink = io.StringIO()
        with scripted_cluster(trace=sink) as cluster:
            worker = cluster.worker()
            batch = cluster.submit([TinyJob(name=f"j{i}", value=i)
                                    for i in range(6)])
            for _ in range(5):
                assert worker.run_one(seconds=0.1) is not None
            leased = worker.lease()
            assert leased["index"] == 5
            for _ in range(4):
                cluster.clock.advance(1.5)
                assert cluster.server.reap_expired_leases() == 0
            result = decode_payload(leased["job"]).execute()
            assert worker.complete(leased, result, seconds=6.0) \
                == {"ok": True}
            events = cluster.drain_events(batch)
            assert [event["event"] for event in events] \
                == ["result"] * 6 + ["done"]
            assert cluster.server.stats.requeued == 0
            assert cluster.server.stats.completed == 6
        kinds = [json.loads(line).get("kind")
                 for line in sink.getvalue().splitlines()]
        assert "heartbeat" in kinds
        assert "expire" not in kinds and "requeue" not in kinds

    def test_status_reports_the_static_lease_timeout(self):
        """Observed durations never change the lease timeout in
        force, and ``status`` carries no speculation counter."""
        with scripted_cluster(lease_timeout=7.5) as cluster:
            worker = cluster.worker()
            cluster.submit([TinyJob(name=f"j{i}", value=i)
                            for i in range(6)])
            for _ in range(6):
                assert worker.run_one(seconds=0.01) is not None
            status = worker.request({"op": "status"})
            assert status["lease_timeout"] == 7.5
            assert status["completed"] == 6
            assert "speculated" not in status

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"),
                                     float("nan")])
    def test_unusable_seconds_keep_the_trace_valid_json(self, bad):
        """A worker reporting ``seconds`` as Infinity, a negative
        number, or NaN must not put a non-JSON literal into the trace:
        ``complete`` falls back to the lease age and ``fail`` omits
        the field."""
        def reject_constant(name):
            raise ValueError(f"non-JSON constant {name} in trace")

        sink = io.StringIO()
        with scripted_cluster(trace=sink) as cluster:
            worker = cluster.worker()
            cluster.submit([TinyJob(name=f"j{i}", value=i)
                            for i in range(2)])
            leased = worker.lease()
            cluster.clock.advance(0.25)
            assert worker.complete(
                leased, decode_payload(leased["job"]).execute(),
                seconds=bad) == {"ok": True}
            leased = worker.lease()
            assert worker.fail(leased, seconds=bad) == {"ok": True}
        finishes = []
        for line in sink.getvalue().splitlines():
            record = json.loads(line, parse_constant=reject_constant)
            if record.get("kind") == "finish":
                finishes.append(record)
        assert [record.get("seconds") for record in finishes] \
            == [0.25, None]


class TestStatisticalGridAcrossExecutors:
    """EXP-S1 bit-identity: inline vs local pool vs cluster."""

    CONFIG = quick_statistical_config()

    def summary_key(self, summary):
        return (summary.rows, summary.average_reduction_pct,
                summary.overall_reduction_pct)

    def test_summary_bit_identical_across_executors(self, tmp_path):
        inline = run_statistical_comparison(self.CONFIG)
        pooled = run_statistical_comparison(self.CONFIG, n_workers=2)
        with thread_fleet(n_workers=2) as server:
            clustered = run_statistical_comparison(
                self.CONFIG,
                executor=ClusterExecutor(*server.address))
            store = ShardedDirectoryCache(tmp_path / "grid")
            warmed = run_statistical_comparison(
                self.CONFIG, cache=store,
                executor=ClusterExecutor(*server.address))
            cached = run_statistical_comparison(
                self.CONFIG, cache=ShardedDirectoryCache(store.root),
                executor=ClusterExecutor(*server.address))
        assert self.summary_key(inline) == self.summary_key(pooled)
        assert self.summary_key(inline) == self.summary_key(clustered)
        assert self.summary_key(inline) == self.summary_key(warmed)
        assert self.summary_key(inline) == self.summary_key(cached)
        assert cached.n_points_compiled == 0
        assert cached.n_points_cached == len(inline.rows)

    def test_summary_bit_identical_after_worker_kill(self, tmp_path):
        """Kill one of two subprocess workers mid-run: the summary
        still matches the inline run bit-for-bit."""
        config = quick_statistical_config()
        inline = run_statistical_comparison(config)
        with JobServer(lease_timeout=120.0) as server:
            victim = spawn_worker(server.endpoint)
            survivor = spawn_worker(server.endpoint)
            killed = threading.Event()

            def kill_after_first(done, total, result):
                if done >= 1 and not killed.is_set():
                    killed.set()
                    victim.kill()

            try:
                clustered = run_statistical_comparison(
                    config,
                    executor=ClusterExecutor(*server.address),
                    progress=kill_after_first)
            finally:
                victim.kill()
                victim.wait(timeout=10.0)
                survivor.terminate()
                survivor.wait(timeout=10.0)
        assert killed.is_set()
        assert clustered.rows == inline.rows
        assert clustered.average_reduction_pct \
            == inline.average_reduction_pct
        assert clustered.overall_reduction_pct \
            == inline.overall_reduction_pct


class TestWorkerLoop:
    def test_max_jobs_and_return_count(self):
        with JobServer() as server:
            server.create_batch([encode_payload(TinyJob(name="a")),
                                 encode_payload(TinyJob(name="b",
                                                        value=2))])
            worker = Worker(*server.address, poll=0.05, max_jobs=2)
            assert worker.run() == 2
            assert server.stats.completed == 2

    def test_idle_exit(self):
        """The idle clock runs on the worker's injected clock: each
        idle poll advances virtual time by the whole budget, so the
        loop exits on its second poll with no real waiting."""
        clock = VirtualClock()

        def on_event(kind: str, detail: str) -> None:
            if kind == "idle":
                clock.advance(30.0)

        with JobServer() as server:
            worker = Worker(*server.address, poll=0.01, idle_exit=30.0,
                            on_event=on_event, clock=clock)
            assert worker.run() == 0

    def test_stop_is_graceful(self):
        """stop() exits the loop after the in-flight job: the worker
        is held inside execute() on a gate (no sleeps), stopped, then
        released."""
        reset_gate("stop-gate")
        entered, release = gate_events("stop-gate")
        try:
            with JobServer() as server:
                server.create_batch([encode_payload(
                    GateJob(name="held", gate="stop-gate"))])
                worker = Worker(*server.address, poll=0.05)
                thread = threading.Thread(target=worker.run,
                                          daemon=True)
                thread.start()
                assert entered.wait(timeout=10.0), \
                    "worker never started the job"
                worker.stop()  # requested while the job is in flight
                release.set()
                thread.join(timeout=10.0)
                assert not thread.is_alive()
                # The in-flight job still completed before the exit.
                assert server.stats.completed == 1
                assert worker.jobs_executed == 1
        finally:
            reset_gate("stop-gate")

    def test_stale_outcome_does_not_consume_max_jobs(self):
        """Regression: a worker racing a concurrent lease expiry used
        to count its stale outcome toward ``--max-jobs`` (and so could
        exit early, stranding the batch).  Only accepted outcomes
        consume slots; the stale one lands in ``jobs_stale``."""
        reset_gate("maxjobs-gate")
        entered, release = gate_events("maxjobs-gate")
        clock = VirtualClock()
        job = GateJob(name="g", gate="maxjobs-gate", value=7)
        try:
            with JobServer(clock=clock, auto_reap=False,
                           lease_timeout=0.2) as server:
                server.create_batch([encode_payload(job)])
                worker = Worker(*server.address, poll=0.0, max_jobs=2)
                thread = threading.Thread(target=worker.run,
                                          daemon=True)
                thread.start()
                assert entered.wait(timeout=10.0), \
                    "worker never started the job"
                # The lease expires mid-execution (virtual stall) and
                # a rival completes the job first.
                clock.advance(0.25)
                assert server.reap_expired_leases() == 1
                rival = object()
                released = server.handle_worker_request(
                    {"op": "lease", "wait": 0}, rival)
                result = TinyResult(name="g", digest=job_digest(job),
                                    value=7)
                assert server.handle_worker_request(
                    {"op": "complete", "lease": released["lease"],
                     "result": encode_payload(result)},
                    rival) == {"ok": True}
                # Queue follow-up work *before* releasing the gate so
                # the worker never blocks on an empty queue under the
                # virtual clock.
                server.create_batch(
                    [encode_payload(TinyJob(name="second", value=1)),
                     encode_payload(TinyJob(name="third", value=2))])
                release.set()
                thread.join(timeout=10.0)
                assert not thread.is_alive(), "worker never exited"
                # The stale outcome did not burn a slot: both real
                # jobs were still executed by this worker.
                assert worker.jobs_executed == 2
                assert worker.jobs_stale == 1
                assert server.stats.stale == 1
                assert server.stats.completed == 3
        finally:
            reset_gate("maxjobs-gate")

    def test_stale_outcome_does_not_reset_the_idle_clock(self):
        """Regression companion: only accepted outcomes reset the
        ``--idle-exit`` clock.  A worker whose single outcome was
        stale exits on its standing idle budget -- one post-stale
        idle advance suffices -- instead of earning a fresh one."""
        reset_gate("idle-gate")
        entered, release = gate_events("idle-gate")
        clock = VirtualClock()
        advances: list[float] = []
        grant = threading.Event()  # test -> worker: advance next idle
        job = GateJob(name="g", gate="idle-gate", value=7)

        def on_event(kind: str, detail: str) -> None:
            if kind == "idle" and grant.is_set():
                grant.clear()
                advances.append(clock.advance(60.0))

        try:
            with JobServer(clock=clock, auto_reap=False,
                           lease_timeout=0.2) as server:
                worker = Worker(*server.address, poll=0.0,
                                idle_exit=50.0, on_event=on_event,
                                clock=clock)
                grant.set()  # idle poll #1 starts the idle clock
                thread = threading.Thread(target=worker.run,
                                          daemon=True)
                thread.start()
                deadline = time.monotonic() + 10.0
                while not advances and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert advances, "worker never reported idle"
                server.create_batch([encode_payload(job)])
                assert entered.wait(timeout=10.0), \
                    "worker never started the job"
                clock.advance(0.25)  # the lease expires mid-execution
                assert server.reap_expired_leases() == 1
                rival = object()
                released = server.handle_worker_request(
                    {"op": "lease", "wait": 0}, rival)
                result = TinyResult(name="g", digest=job_digest(job),
                                    value=7)
                server.handle_worker_request(
                    {"op": "complete", "lease": released["lease"],
                     "result": encode_payload(result)}, rival)
                release.set()  # the worker's outcome arrives stale
                deadline = time.monotonic() + 10.0
                while worker.jobs_stale < 1 \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert worker.jobs_stale == 1
                # One more idle advance pushes the *original* idle
                # clock past the budget; had the stale outcome reset
                # it, this single advance could not trigger the exit.
                grant.set()
                thread.join(timeout=10.0)
                assert not thread.is_alive(), "worker never exited"
                assert len(advances) == 2
                assert worker.jobs_executed == 0
        finally:
            reset_gate("idle-gate")

    def test_connect_retry_gives_up_loudly(self):
        worker = Worker("127.0.0.1", unused_port(), poll=0.05,
                        connect_retry=0.2)
        with pytest.raises(BatchError, match="cannot reach job server"):
            worker.run()

    def test_validates_parameters(self):
        with pytest.raises(BatchError):
            Worker("h", 0)
        with pytest.raises(BatchError):
            Worker("h", 80, poll=5.0, timeout=5.0)


class TestWorkerCli:
    def test_worker_cli_lifecycle_over_a_subprocess(self):
        """`repro-agu worker` as deployed: serves a job, logs it, and
        SIGTERM exits gracefully with a summary line."""
        with JobServer() as server:
            server.create_batch(
                [encode_payload(TinyJob(name="cli-job", value=3))])
            process = spawn_worker(server.endpoint)
            try:
                deadline = time.monotonic() + 30.0
                while server.stats.completed < 1 \
                        and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert server.stats.completed == 1
            finally:
                process.send_signal(signal.SIGTERM)
                out, _err = process.communicate(timeout=30)
        assert process.returncode == 0
        assert "[executed] cli-job" in out
        assert "worker stopped; 1 job(s) executed" in out

    def test_executor_and_workers_flags_are_exclusive(self, capsys):
        from repro.cli.main import main

        assert main(["stats", "--quick", "--executor", "inline",
                     "-j", "2"]) == 1
        err = capsys.readouterr().err
        assert "mutually exclusive" in err

    def test_stats_cli_through_executor_spec(self, capsys):
        """`--executor local:2` drives the same code path as a cluster
        spec, end to end through the CLI."""
        from repro.cli.main import main

        assert main(["stats", "--n", "10", "--m", "1", "--k", "2",
                     "--patterns", "2", "--repeats", "2",
                     "--executor", "local:2"]) == 0
        out = capsys.readouterr().out
        assert "1 grid point(s): 1 compiled" in out
        assert "on local:2" in out
