"""Engine traces: exact event counts, properties over random job mixes
run through a real :class:`~repro.batch.engine.BatchCompiler`, and unit
coverage of the :mod:`repro.batch.trace` writer, reader and analyzer.

The contract: every computed job leaves one ``enqueue`` and one
``finish``, every slot that did not execute leaves one ``cache_hit``,
so :func:`~repro.batch.trace.analyze_trace` counts what the batch's
:class:`~repro.batch.engine.BatchReport` counts; and a trace
round-trips through its JSONL encoding.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.agu.model import AguSpec
from repro.batch.cache import InMemoryLRUCache
from repro.batch.engine import BatchCompiler
from repro.batch.jobs import BatchJob, JobResult
from repro.batch.trace import (
    EVENT_KINDS,
    NULL_TRACER,
    REPORT_SCHEMA,
    TRACE_SCHEMA,
    Trace,
    TraceError,
    Tracer,
    analyze_trace,
    open_tracer,
    read_trace,
)
from repro.errors import BatchError
from repro.ir.builder import pattern_from_offsets

SPEC = AguSpec(2, 1)

#: Small distinct patterns; a job mix draws from them, so duplicates
#: (same digest under another name) are common.
OFFSETS = ([1, 0, 2, -1, 1, 0, -2], [0, 3, 1, 4], [2, 2, -1, 0, 5],
           [0, 1, 2, 3, 4, 5])


def pattern_job(name: str, which: int) -> BatchJob:
    """A cheap compile job over one of :data:`OFFSETS`."""
    return BatchJob(name=name, spec=SPEC,
                    pattern=pattern_from_offsets(OFFSETS[which]),
                    run_simulation=False)


@dataclass(frozen=True)
class PoisonJob:
    """A job whose execution raises."""

    name: str
    digest: str | None = field(default=None, init=False, repr=False,
                               compare=False)

    result_type = JobResult

    def cache_key(self) -> dict:
        return {"v": 0, "poison": self.name}

    def execute(self):
        raise RuntimeError(f"poisoned {self.name}")


def traced_batch(jobs, warm=()):
    """Compile ``warm`` untraced, then ``jobs`` traced on the same
    cache; returns ``(report, trace text)``."""
    cache = InMemoryLRUCache()
    BatchCompiler(cache=cache).compile(list(warm))
    sink = io.StringIO()
    report = BatchCompiler(cache=cache, trace=sink).compile(jobs)
    return report, sink.getvalue()


def kinds(text: str) -> list[str]:
    return [event["kind"]
            for event in read_trace(io.StringIO(text)).events]


# ----------------------------------------------------------------------
# Exact counts from a real engine
# ----------------------------------------------------------------------
class TestEngineTrace:
    """What ``BatchCompiler(trace=...)`` writes, event by event."""

    def test_cold_batch_with_a_duplicate_and_a_warm_job(self):
        """Two distinct cold jobs, a duplicate of one of them, and a
        pre-warmed job: 2 enqueue + 2 finish, and 2 cache hits (the
        duplicate and the warm job)."""
        warm = pattern_job("warm", 3)
        jobs = [pattern_job("a", 0), pattern_job("b", 1),
                pattern_job("a-again", 0), pattern_job("warm-too", 3)]
        report, text = traced_batch(jobs, warm=[warm])
        seen = kinds(text)
        assert seen.count("enqueue") == 2
        assert seen.count("finish") == 2
        assert seen.count("cache_hit") == 2
        assert len(seen) == 6
        assert (report.n_compiled, report.n_cache_hits) == (2, 2)
        analyzed = analyze_trace(read_trace(io.StringIO(text)))
        assert analyzed.n_jobs == report.n_compiled
        assert analyzed.n_completed == report.n_compiled
        assert analyzed.n_failed == 0
        assert analyzed.n_cache_hits == report.n_cache_hits
        assert analyzed.source == "engine"

    def test_events_name_their_jobs(self):
        report, text = traced_batch([pattern_job("only", 2)])
        events = read_trace(io.StringIO(text)).events
        assert [(e["kind"], e["name"]) for e in events] == [
            ("enqueue", "only"), ("finish", "only")]
        assert events[1]["outcome"] == "ok"
        assert events[0]["digest"] == report.results[0].digest

    def test_a_poison_job_finishes_failed_and_is_counted(self):
        sink = io.StringIO()
        with pytest.raises(BatchError, match="poison"):
            BatchCompiler(trace=sink).compile(
                [pattern_job("good", 0), PoisonJob("poison")])
        events = read_trace(io.StringIO(sink.getvalue())).events
        failed = [e for e in events
                  if e["kind"] == "finish" and e["outcome"] == "failed"]
        assert [e["name"] for e in failed] == ["poison"]
        report = analyze_trace(read_trace(io.StringIO(sink.getvalue())))
        assert report.n_failed == 1
        assert report.n_jobs == 2
        assert report.n_completed == 1

    def test_report_json_carries_the_new_schema(self):
        _report, text = traced_batch(
            [pattern_job("a", 0), pattern_job("b", 0)])
        payload = analyze_trace(read_trace(io.StringIO(text))).to_json()
        assert payload["schema"] == REPORT_SCHEMA \
            == "repro.batch.trace-report/2"
        assert payload["jobs"] == {"enqueued": 1, "completed": 1,
                                   "failed": 0, "cache_hits": 1}
        assert payload["makespan_seconds"] >= 0.0
        json.dumps(payload)  # JSON-able end to end


# ----------------------------------------------------------------------
# Properties over random job mixes
# ----------------------------------------------------------------------
#: One job mix: per slot, which pattern it compiles and whether that
#: pattern was compiled before the traced batch (a warm cache entry).
job_mixes = st.lists(
    st.tuples(st.integers(0, len(OFFSETS) - 1), st.booleans()),
    min_size=1, max_size=8)


def run_mix(mix):
    jobs = [pattern_job(f"j{slot}", which)
            for slot, (which, _warm) in enumerate(mix)]
    warm = [pattern_job(f"w{which}", which)
            for which, is_warm in mix if is_warm]
    return traced_batch(jobs, warm=warm)


class TestTraceProperties:
    """Hypothesis properties over random engine batches."""

    @given(mix=job_mixes)
    @settings(max_examples=30, deadline=None)
    def test_counts_match_the_batch_report(self, mix):
        """One ``enqueue``/``finish`` per distinct cold pattern, one
        ``cache_hit`` per other slot -- what the report counts."""
        report, text = run_mix(mix)
        analyzed = analyze_trace(read_trace(io.StringIO(text)))
        cold = {which for which, _ in mix} \
            - {which for which, warm in mix if warm}
        assert analyzed.n_jobs == analyzed.n_completed == len(cold) \
            == report.n_compiled
        assert analyzed.n_cache_hits == report.n_cache_hits \
            == len(mix) - len(cold)

    @given(mix=job_mixes)
    @settings(max_examples=30, deadline=None)
    def test_makespan_is_within_the_event_span(self, mix):
        _report, text = run_mix(mix)
        trace = read_trace(io.StringIO(text))
        times = [event["t"] for event in trace.events]
        report = analyze_trace(trace)
        assert 0.0 <= report.makespan <= max(times) - min(times) + 1e-9

    @given(mix=job_mixes)
    @settings(max_examples=30, deadline=None)
    def test_trace_round_trips_through_jsonl(self, mix):
        """Re-serializing header + events yields the same trace."""
        _report, text = run_mix(mix)
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
#: The kinds a scheduler trace of the retired job fleet carried; an
#: old fleet trace must be rejected, not half-read.
RETIRED_KINDS = ("lease", "start", "requeue", "expire", "speculate",
                 "stale_result", "drop", "heartbeat", "worker_join",
                 "worker_leave")


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

    @pytest.mark.parametrize("kind", ["teleport", *RETIRED_KINDS])
    def test_unknown_event_kind_is_rejected(self, kind):
        """Schema drift (a new kind, or any kind the retired job
        scheduler wrote) fails at read time."""
        text = header_line() + "\n" \
            + json.dumps({"t": 0.0, "kind": kind}) + "\n"
        with pytest.raises(TraceError, match="unknown event kind"):
            read_trace(io.StringIO(text))

    @pytest.mark.parametrize("t", [-1.0, "soon", None, float("nan"),
                                   float("inf")])
    def test_bad_timestamps_are_rejected(self, t):
        """Events need a finite non-negative numeric ``t``."""
        text = header_line() + "\n" \
            + json.dumps({"t": t, "kind": "enqueue"}) + "\n"
        with pytest.raises(TraceError, match="'t'"):
            read_trace(io.StringIO(text))

    def test_valid_trace_parses_with_unknown_fields_carried(self):
        """Unknown *fields* (not kinds) pass through untouched."""
        event = {"t": 1.25, "kind": "cache_hit", "custom": [1, 2]}
        text = header_line() + "\n" + json.dumps(event) + "\n"
        trace = read_trace(io.StringIO(text))
        assert trace.source == "test"
        assert trace.events == [event]

    def test_reader_accepts_paths_and_line_iterables(self, tmp_path):
        """The reader takes a path, a StringIO, or any line iterable."""
        lines = [header_line(),
                 json.dumps({"t": 0.5, "kind": "enqueue"})]
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
        ticks = iter([100.0, 101.5])
        sink = io.StringIO()
        tracer = Tracer(sink, source="unit", clock=lambda: next(ticks))
        tracer.emit("enqueue", index=3)
        trace = read_trace(io.StringIO(sink.getvalue()))
        assert trace.header["schema"] == TRACE_SCHEMA
        assert trace.header["source"] == "unit"
        assert trace.header["monotonic"] == 100.0
        assert trace.events == [
            {"t": 1.5, "kind": "enqueue", "index": 3}]

    def test_path_sink_is_truncated_per_run_and_closed(self, tmp_path):
        """A path sink belongs to one run: a second tracer on the same
        path replaces the first one's file, leaving exactly one header
        and its own events; ``close`` is idempotent."""
        path = tmp_path / "deep" / "trace.jsonl"
        with Tracer(path, source="one") as tracer:
            tracer.emit("enqueue", index=0)
        tracer.close()  # idempotent after the context exit
        with Tracer(path, source="two") as tracer:
            tracer.emit("cache_hit", index=1)
        lines = [json.loads(line) for line
                 in path.read_text(encoding="utf-8").splitlines()]
        assert [r.get("schema", r.get("kind")) for r in lines] == [
            TRACE_SCHEMA, "cache_hit"]
        assert read_trace(path).source == "two"

    def test_null_tracer_is_disabled_and_inert(self):
        """The null tracer reports disabled and swallows everything."""
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("enqueue", anything="goes")
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


@pytest.fixture
def opened_tracers(monkeypatch):
    """Every :class:`Tracer` constructed during the test, in order."""
    from repro.batch import trace as trace_module

    opened = []

    class Recording(trace_module.Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(trace_module, "Tracer", Recording)
    return opened


class TestTraceOwnership:
    """Who closes a trace file: whoever opened it."""

    def test_run_experiment_closes_the_file_it_opened(self, tmp_path,
                                                      opened_tracers):
        from repro.analysis import experiments

        experiments.run_experiment("arraylayout",
                                   trace=tmp_path / "run.jsonl")
        assert len(opened_tracers) == 1
        assert opened_tracers[0]._stream.closed
        assert analyze_trace(read_trace(tmp_path / "run.jsonl")).n_jobs

    def test_a_failing_run_still_closes_the_file_it_opened(
            self, tmp_path, opened_tracers):
        from repro.analysis.experiments import run_experiment

        def interrupt(done, total, result):
            raise RuntimeError("stop after the first point")

        with pytest.raises(RuntimeError, match="first point"):
            run_experiment("arraylayout", progress=interrupt,
                           trace=tmp_path / "run.jsonl")
        assert len(opened_tracers) == 1
        assert opened_tracers[0]._stream.closed
        assert analyze_trace(read_trace(tmp_path / "run.jsonl")).n_jobs

    def test_batch_cli_closes_the_file_it_opened(self, tmp_path,
                                                 opened_tracers, capsys):
        from repro.cli.main import main

        path = tmp_path / "batch.jsonl"
        assert main(["batch", "--kernels", "fir8,fir8", "--no-sim",
                     "--iterations", "2", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert len(opened_tracers) == 1
        assert opened_tracers[0]._stream.closed
        report = analyze_trace(read_trace(path))
        assert (report.n_jobs, report.n_cache_hits) == (1, 1)

    def test_a_tracer_passed_in_stays_open(self):
        from repro.analysis.experiments import run_experiment

        sink = io.StringIO()
        tracer = Tracer(sink, source="caller")
        run_experiment("arraylayout", trace=tracer)
        tracer.emit("cache_hit", index=0)  # still writable
        assert not sink.closed
        assert kinds(sink.getvalue())[-1] == "cache_hit"


class TestAnalyzer:
    """Deterministic analyzer output on synthetic traces."""

    def test_empty_event_stream_yields_a_zero_report(self):
        """A header-only trace analyzes to an all-zero report that
        still renders."""
        trace = read_trace(io.StringIO(header_line() + "\n"))
        report = analyze_trace(trace)
        assert report.makespan == 0.0
        assert (report.n_jobs, report.n_completed, report.n_failed,
                report.n_cache_hits) == (0, 0, 0, 0)
        assert "trace report" in report.render()

    def test_makespan_spans_the_events(self):
        events = [
            {"t": 0.5, "kind": "cache_hit", "index": 0},
            {"t": 0.6, "kind": "enqueue", "index": 0},
            {"t": 0.9, "kind": "finish", "index": 0, "outcome": "ok"},
        ]
        report = analyze_trace(
            Trace(header={"schema": TRACE_SCHEMA, "source": "engine"},
                  events=events))
        assert report.makespan == pytest.approx(0.4)

    def test_counters_and_render(self):
        """Every kind counts; a truncated trace (an ``enqueue`` with
        no ``finish``) counts as enqueued only."""
        events = [
            {"t": 0.0, "kind": "cache_hit", "index": 0},
            {"t": 0.1, "kind": "cache_hit", "index": 1},
            {"t": 0.2, "kind": "enqueue", "index": 0},
            {"t": 0.2, "kind": "enqueue", "index": 1},
            {"t": 0.3, "kind": "enqueue", "index": 2},
            {"t": 0.4, "kind": "finish", "index": 0, "outcome": "ok"},
            {"t": 0.5, "kind": "finish", "index": 1,
             "outcome": "failed"},
        ]
        report = analyze_trace(
            Trace(header={"schema": TRACE_SCHEMA, "source": "engine",
                          "wall": 12.5},
                  events=events))
        assert (report.n_jobs, report.n_completed, report.n_failed,
                report.n_cache_hits) == (3, 1, 1, 2)
        assert report.wall == 12.5
        rendered = report.render()
        assert "3 enqueued, 1 completed, 1 failed, 2 cache hit(s)" \
            in rendered
