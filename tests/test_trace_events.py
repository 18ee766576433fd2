"""Trace invariants: property tests over random scripted schedules
plus unit coverage of the :mod:`repro.batch.trace` reader/analyzer.

The properties pin the contracts the analyzer's interval model relies
on -- every ``lease`` gets exactly one terminal (``finish`` /
``expire`` / ``requeue``), per-worker utilization lands in [0, 1], the
critical path never exceeds the makespan, and a trace round-trips
through its JSONL encoding -- across randomized schedules with
injected faults (expired leases, killed workers, duplicate
completions) executed on the deterministic scripted cluster.
"""

from __future__ import annotations

import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from _cluster_harness import VirtualClock, scripted_cluster
from _cluster_jobs import TinyJob

from repro.batch.trace import (
    EVENT_KINDS,
    LEASE_TERMINAL_KINDS,
    NULL_TRACER,
    TRACE_SCHEMA,
    Trace,
    TraceError,
    Tracer,
    analyze_trace,
    job_label,
    open_tracer,
    percentile,
    read_trace,
)

# ----------------------------------------------------------------------
# Random fault schedules on the scripted cluster
# ----------------------------------------------------------------------
#: Per-job faults the schedule strategy can inject.  ``ok`` is a clean
#: completion; ``duplicate`` reports the same lease twice; ``expire``
#: lets the lease time out (stalled worker) before a re-lease
#: completes it; ``kill`` drops the leasing worker (SIGKILL) so the
#: job requeues.
FAULTS = ("ok", "duplicate", "expire", "kill")

#: One job = (fault, duration ticks); a tick is 10 virtual ms.
schedules = st.lists(
    st.tuples(st.sampled_from(FAULTS), st.integers(1, 40)),
    min_size=1, max_size=6)

#: The static lease timeout the scripted runs use (virtual seconds).
LEASE_TIMEOUT = 5.0


def run_schedule(schedule, n_workers):
    """Execute ``schedule`` on a scripted cluster; returns the raw
    JSONL trace text.  Jobs run one at a time (the schedule is a
    script, not a race), with the virtual clock advanced by each job's
    duration and by fault-specific amounts."""
    sink = io.StringIO()
    with scripted_cluster(lease_timeout=LEASE_TIMEOUT, max_attempts=20,
                          trace=sink) as cluster:
        workers = [cluster.worker() for _ in range(n_workers)]
        jobs = [TinyJob(name=f"j{i}") for i in range(len(schedule))]
        cluster.submit(jobs)
        for i, (fault, ticks) in enumerate(schedule):
            seconds = ticks * 0.01
            worker = workers[i % n_workers]
            if fault == "kill":
                victim = cluster.worker()
                leased = victim.lease()
                assert leased is not None
                cluster.clock.advance(seconds)
                victim.kill()  # SIGKILL: the lease requeues
                leased = worker.lease()
            elif fault == "expire":
                leased = worker.lease()
                assert leased is not None
                cluster.clock.advance(LEASE_TIMEOUT + seconds)
                assert cluster.server.reap_expired_leases() == 1
                worker = workers[(i + 1) % n_workers]
                leased = worker.lease()
            else:
                leased = worker.lease()
            assert leased is not None
            cluster.clock.advance(seconds)
            reply = worker.complete(leased, "result", seconds=seconds)
            assert reply.get("stale") is not True
            if fault == "duplicate":
                stale = worker.complete(leased, "result",
                                        seconds=seconds)
                assert stale.get("stale") is True
    return sink.getvalue()


class TestTraceProperties:
    """Hypothesis properties over randomized fault schedules."""

    @given(schedule=schedules, n_workers=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_every_lease_gets_exactly_one_terminal(
            self, schedule, n_workers):
        """Lease-lifecycle invariant: each ``lease`` event is closed
        by exactly one ``finish`` / ``expire`` / ``requeue``."""
        text = run_schedule(schedule, n_workers)
        trace = read_trace(io.StringIO(text))
        leases = [e["lease"] for e in trace.events
                  if e["kind"] == "lease"]
        terminals = [e["lease"] for e in trace.events
                     if e["kind"] in LEASE_TERMINAL_KINDS]
        assert sorted(leases) == sorted(terminals)
        # And each terminal comes at or after its lease.
        start_t = {e["lease"]: e["t"] for e in trace.events
                   if e["kind"] == "lease"}
        for event in trace.events:
            if event["kind"] in LEASE_TERMINAL_KINDS:
                assert event["t"] >= start_t[event["lease"]]

    @given(schedule=schedules, n_workers=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_fault_accounting_matches_the_schedule(
            self, schedule, n_workers):
        """The analyzer's churn counters equal the injected faults."""
        report = analyze_trace(
            read_trace(io.StringIO(run_schedule(schedule, n_workers))))
        n_expire = sum(1 for fault, _ in schedule if fault == "expire")
        n_kill = sum(1 for fault, _ in schedule if fault == "kill")
        n_dup = sum(1 for fault, _ in schedule
                    if fault == "duplicate")
        assert report.n_jobs == len(schedule)
        assert report.n_completed == len(schedule)
        assert report.n_failed == 0
        assert report.n_expired == n_expire
        assert report.n_requeued == n_expire + n_kill
        assert report.n_stale == n_dup

    @given(schedule=schedules, n_workers=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_utilization_and_critical_path_bounds(
            self, schedule, n_workers):
        """Utilization lands in [0, 1]; critical path <= makespan."""
        report = analyze_trace(
            read_trace(io.StringIO(run_schedule(schedule, n_workers))))
        assert report.workers
        for worker in report.workers.values():
            assert 0.0 <= worker.utilization <= 1.0
            assert worker.busy_seconds <= worker.span_seconds + 1e-9
        assert 0.0 <= report.critical_path_seconds \
            <= report.makespan + 1e-9
        assert report.makespan >= 0.0

    @given(schedule=schedules, n_workers=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_makespan_is_within_the_event_span(self, schedule,
                                               n_workers):
        """The makespan is the batch window: it never exceeds the
        first-to-last-event span, which also covers fleet start-up
        and shutdown."""
        trace = read_trace(io.StringIO(run_schedule(schedule, n_workers)))
        times = [event["t"] for event in trace.events]
        report = analyze_trace(trace)
        assert report.makespan <= max(times) - min(times) + 1e-9

    @given(schedule=schedules, n_workers=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_trace_round_trips_through_jsonl(
            self, schedule, n_workers):
        """Re-serializing header + events yields the same trace."""
        text = run_schedule(schedule, n_workers)
        first = read_trace(io.StringIO(text))
        lines = [json.dumps(first.header, separators=(",", ":"),
                            sort_keys=True)]
        lines += [json.dumps(e, separators=(",", ":"), sort_keys=True)
                  for e in first.events]
        second = read_trace(io.StringIO("\n".join(lines) + "\n"))
        assert second.header == first.header
        assert second.events == first.events
        assert all(e["kind"] in EVENT_KINDS for e in second.events)


# ----------------------------------------------------------------------
# Reader validation
# ----------------------------------------------------------------------
def header_line(**overrides) -> str:
    """A valid JSONL trace header line (fields overridable)."""
    header = {"schema": TRACE_SCHEMA, "source": "test", "wall": 0.0,
              "monotonic": 0.0, "pid": 1}
    header.update(overrides)
    return json.dumps(header)


class TestReadTraceValidation:
    """Malformed traces are rejected loudly, valid ones parse."""

    def test_empty_trace_is_an_error(self):
        """No header line at all is a :class:`TraceError`."""
        with pytest.raises(TraceError, match="empty"):
            read_trace(io.StringIO(""))
        with pytest.raises(TraceError, match="empty"):
            read_trace(io.StringIO("\n   \n"))

    def test_wrong_schema_is_rejected(self):
        """A header speaking another schema version is refused."""
        with pytest.raises(TraceError, match="schema"):
            read_trace(io.StringIO(header_line(schema="other/9")))

    def test_non_json_line_is_rejected_with_its_line_number(self):
        """Broken JSON names the offending line."""
        text = header_line() + "\n{not json}\n"
        with pytest.raises(TraceError, match="line 2"):
            read_trace(io.StringIO(text))

    def test_non_object_line_is_rejected(self):
        """A JSON array is not a trace record."""
        text = header_line() + "\n[1, 2]\n"
        with pytest.raises(TraceError, match="not a JSON object"):
            read_trace(io.StringIO(text))

    def test_unknown_event_kind_is_rejected(self):
        """Schema drift (a new kind) fails at read time."""
        text = header_line() + "\n" \
            + json.dumps({"t": 0.0, "kind": "teleport"}) + "\n"
        with pytest.raises(TraceError, match="unknown event kind"):
            read_trace(io.StringIO(text))

    @pytest.mark.parametrize("t", [-1.0, "soon", None, float("nan"),
                                   float("inf")])
    def test_bad_timestamps_are_rejected(self, t):
        """Events need a finite non-negative numeric ``t``."""
        text = header_line() + "\n" \
            + json.dumps({"t": t, "kind": "heartbeat"}) + "\n"
        with pytest.raises(TraceError, match="'t'"):
            read_trace(io.StringIO(text))

    def test_valid_trace_parses_with_unknown_fields_carried(self):
        """Unknown *fields* (not kinds) pass through untouched."""
        event = {"t": 1.25, "kind": "heartbeat", "custom": [1, 2]}
        text = header_line() + "\n" + json.dumps(event) + "\n"
        trace = read_trace(io.StringIO(text))
        assert trace.source == "test"
        assert trace.events == [event]

    def test_reader_accepts_paths_and_line_iterables(self, tmp_path):
        """The reader takes a path, a StringIO, or any line iterable."""
        lines = [header_line(),
                 json.dumps({"t": 0.5, "kind": "heartbeat"})]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        from_path = read_trace(path)
        from_lines = read_trace(lines)
        assert from_path.events == from_lines.events


# ----------------------------------------------------------------------
# Tracer / open_tracer
# ----------------------------------------------------------------------
class TestTracer:
    """The JSONL writer side of the round-trip contract."""

    def test_header_is_written_eagerly_and_events_are_relative(self):
        """The header lands at construction; event ``t`` counts from
        the tracer's monotonic origin, not from zero."""
        clock = VirtualClock(start=100.0)
        sink = io.StringIO()
        tracer = Tracer(sink, source="unit", clock=clock)
        clock.advance(1.5)
        tracer.emit("heartbeat", queued=3)
        trace = read_trace(io.StringIO(sink.getvalue()))
        assert trace.header["schema"] == TRACE_SCHEMA
        assert trace.header["source"] == "unit"
        assert trace.header["monotonic"] == 100.0
        assert trace.events == [
            {"t": 1.5, "kind": "heartbeat", "queued": 3}]

    def test_path_sink_is_opened_appended_and_closed(self, tmp_path):
        """A path sink appends (two tracers share one artifact) and
        ``close`` is idempotent."""
        path = tmp_path / "deep" / "trace.jsonl"
        with Tracer(path, source="one") as tracer:
            tracer.emit("worker_join", worker="w1")
        tracer.close()  # idempotent after the context exit
        with Tracer(path, source="two") as tracer:
            tracer.emit("worker_leave", worker="w1")
        lines = [json.loads(line) for line
                 in path.read_text(encoding="utf-8").splitlines()]
        assert [r.get("schema", r.get("kind")) for r in lines] == [
            TRACE_SCHEMA, "worker_join", TRACE_SCHEMA, "worker_leave"]

    def test_null_tracer_is_disabled_and_inert(self):
        """The null tracer reports disabled and swallows everything."""
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("heartbeat", anything="goes")
        NULL_TRACER.close()
        with NULL_TRACER as tracer:
            assert tracer is NULL_TRACER

    def test_open_tracer_dispatch(self, tmp_path):
        """``None`` -> null; ``emit``-ables pass through; paths open."""
        assert open_tracer(None, source="x") is NULL_TRACER
        shared = Tracer(io.StringIO(), source="shared")
        assert open_tracer(shared, source="y") is shared
        opened = open_tracer(tmp_path / "t.jsonl", source="z")
        assert opened.enabled is True
        opened.close()
        assert read_trace(tmp_path / "t.jsonl").source == "z"


# ----------------------------------------------------------------------
# Analyzer helpers and rendering
# ----------------------------------------------------------------------
class TestPercentile:
    """The nearest-rank estimator shared with the server policies."""

    def test_nearest_rank_values(self):
        """Nearest-rank picks actual samples, never interpolates."""
        assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.0
        assert percentile([4.0, 1.0, 3.0, 2.0], 100.0) == 4.0
        assert percentile([7.0], 95.0) == 7.0
        assert percentile(list(map(float, range(1, 11))), 95.0) == 10.0
        assert percentile([5.0, 6.0], 0.0) == 5.0

    def test_empty_sequence_raises(self):
        """An empty sample set has no percentile."""
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)


class TestAnalyzeAndRender:
    """Deterministic analyzer output on synthetic and scripted traces."""

    def test_job_label_forms(self):
        """Labels degrade gracefully without a batch or a name."""
        assert job_label("b1", 3, "grid-n20") == "b1[3] grid-n20"
        assert job_label("b1", 3) == "b1[3]"
        assert job_label(None, 2) == "[2]"

    def test_empty_event_stream_yields_a_zero_report(self):
        """A header-only trace analyzes to an all-zero report that
        still renders."""
        trace = read_trace(io.StringIO(header_line() + "\n"))
        report = analyze_trace(trace)
        assert report.makespan == 0.0
        assert report.n_jobs == 0
        assert report.workers == {}
        assert "trace report" in report.render()
        assert "no worker activity" in report.render_timeline()

    def test_makespan_spans_the_batch_not_the_fleet(self):
        """Fleet start-up before the first ``enqueue`` and shutdown
        after the last ``finish`` lie outside the makespan."""
        events = [
            {"t": 0.0, "kind": "worker_join", "worker": "w1"},
            {"t": 0.5, "kind": "enqueue", "batch": "b1", "index": 0},
            {"t": 0.6, "kind": "lease", "batch": "b1", "index": 0,
             "lease": "l1", "worker": "w1"},
            {"t": 0.8, "kind": "finish", "batch": "b1", "index": 0,
             "lease": "l1", "worker": "w1", "outcome": "ok"},
            {"t": 1.7, "kind": "heartbeat", "queued": 0},
            {"t": 1.8, "kind": "worker_leave", "worker": "w1"},
        ]
        report = analyze_trace(
            Trace(header={"schema": TRACE_SCHEMA, "source": "t"},
                  events=events))
        assert (report.t0, report.t1) == (0.0, 1.8)
        assert report.makespan == pytest.approx(0.3)
        assert report.critical_path_seconds == pytest.approx(0.2)

    def test_counters_for_cache_hits_and_drops(self):
        """``cache_hit`` / ``drop`` / ``speculate`` events count."""
        events = [
            {"t": 0.0, "kind": "cache_hit", "index": 0},
            {"t": 0.1, "kind": "cache_hit", "index": 1},
            {"t": 0.2, "kind": "drop", "batch": "b1", "index": 2},
            {"t": 0.3, "kind": "speculate", "batch": "b1", "index": 3},
        ]
        report = analyze_trace(
            Trace(header={"schema": TRACE_SCHEMA, "source": "engine"},
                  events=events))
        assert report.n_cache_hits == 2
        assert report.n_dropped == 1
        assert report.n_speculated == 1

    def test_straggler_detection_against_the_median(self):
        """A job >2x the median of >=3 completions is flagged."""
        events = []
        for i, seconds in enumerate([0.1, 0.1, 0.1, 0.9]):
            t0 = i * 1.0
            events.append({"t": t0, "kind": "enqueue",
                           "batch": "b1", "index": i, "name": f"j{i}"})
            events.append({"t": t0, "kind": "lease", "batch": "b1",
                           "index": i, "lease": f"l{i}",
                           "worker": "w1"})
            events.append({"t": t0 + seconds, "kind": "finish",
                           "batch": "b1", "index": i,
                           "lease": f"l{i}", "worker": "w1",
                           "outcome": "ok", "seconds": seconds})
        report = analyze_trace(
            Trace(header={"schema": TRACE_SCHEMA, "source": "t"},
                  events=events))
        assert report.median_seconds == pytest.approx(0.1)
        assert len(report.stragglers) == 1
        label, worker, seconds, ratio = report.stragglers[0]
        assert label == "b1[3] j3"
        assert worker == "w1"
        assert seconds == pytest.approx(0.9)
        assert ratio == pytest.approx(9.0)
        assert "stragglers" in report.render()

    def test_scripted_run_renders_report_json_and_timeline(self):
        """End-to-end: a two-worker scripted run produces a report
        whose text, JSON, and timeline forms all carry the lanes."""
        text = run_schedule(
            [("ok", 10), ("ok", 20), ("duplicate", 5), ("ok", 15)],
            n_workers=2)
        report = analyze_trace(read_trace(io.StringIO(text)))
        assert set(report.workers) == {"w1", "w2"}
        rendered = report.render()
        assert "per-worker utilization" in rendered
        assert "critical path" in rendered
        payload = report.to_json()
        assert payload["schema"] == "repro.batch.trace-report/1"
        assert payload["jobs"]["completed"] == 4
        assert payload["jobs"]["stale_results"] == 1
        assert set(payload["workers"]) == {"w1", "w2"}
        json.dumps(payload)  # JSON-able end to end
        timeline = report.render_timeline(width=32)
        assert "w1" in timeline and "w2" in timeline
        assert "#" in timeline
