"""Structured execution traces for the batch and cluster layers.

The cluster distributes paper experiments bit-identically but, until
this module, could not answer "where did the wall-clock go".  Three
pieces close that gap, following the trace-collect -> analyze -> act
model:

* :class:`Tracer` -- a thread-safe JSONL event writer.  A trace file
  starts with one schema-versioned *header* line carrying a wall-clock
  anchor and the monotonic-clock origin, followed by one compact JSON
  *event* per line whose ``t`` is seconds since that origin (monotonic,
  so durations are immune to wall-clock steps).  Writes are a single
  ``write()`` call per event (atomic for line-sized appends on POSIX)
  so concurrent emitters never interleave partial lines.  The disabled
  form (:data:`NULL_TRACER`) makes every emit a no-op attribute check,
  so instrumented code costs nothing when tracing is off.
* :func:`read_trace` -- load and validate a trace back into a
  :class:`Trace` (the JSONL round-trip contract the property tests
  pin).
* :func:`analyze_trace` -- lower a trace to a :class:`TraceReport`:
  per-worker utilization with idle-gap attribution, straggler
  detection, the self-timed critical path, cache-hit and
  requeue/speculation accounting, rendered as text, timeline, or JSON.

Event vocabulary (producers annotate; unknown *fields* are carried
through, unknown *kinds* are rejected at read time so schema drift is
loud): ``enqueue``, ``lease``, ``start``, ``finish``, ``requeue``,
``expire``, ``speculate``, ``stale_result``, ``cache_hit``, ``drop``,
``heartbeat``, ``worker_join``, ``worker_leave``.  (``speculate`` is
no longer emitted; it stays readable so traces recorded while the job
server still speculated keep analyzing.)  The lease-lifecycle
invariant -- every ``lease`` gets exactly one terminal ``finish`` /
``expire`` / ``requeue`` -- is what the analyzer's interval model and
the property tests in ``tests/test_trace_events.py`` rely on.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.errors import BatchError

#: Schema tag written into every trace header; bump on layout breaks.
TRACE_SCHEMA = "repro.batch.trace/1"

#: Every event kind a schema-1 trace may contain.
EVENT_KINDS = frozenset({
    "enqueue", "lease", "start", "finish", "requeue", "expire",
    "speculate", "stale_result", "cache_hit", "drop", "heartbeat",
    "worker_join", "worker_leave",
})

#: Kinds that terminate a lease (exactly one per ``lease`` event).
LEASE_TERMINAL_KINDS = frozenset({"finish", "expire", "requeue"})

#: Kinds that settle a job for good: its accepted outcome, a drop, or
#: an engine-side cache hit.  The makespan ends at the last of them.
JOB_TERMINAL_KINDS = frozenset({"finish", "drop", "cache_hit"})


class TraceError(BatchError):
    """A trace file is malformed or does not speak :data:`TRACE_SCHEMA`."""


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100).

    The analyzer's estimator for the median execution time that
    straggler detection compares against.  Raises :class:`ValueError` on an empty sequence.
    """
    if not values:
        raise ValueError("percentile() of an empty sequence")
    ordered = sorted(values)
    rank = max(1, math.ceil((pct / 100.0) * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Tracer:
    """Append schema-versioned JSONL trace events to a stream.

    Parameters
    ----------
    sink:
        A path (opened for append, line-buffered intent) or any
        ``.write()``-able text stream (tests pass ``io.StringIO``).
    source:
        Which subsystem is emitting (``job-server`` / ``engine`` /
        ``worker``); recorded in the header.
    clock:
        Monotonic-clock callable; injectable so virtual-clock tests
        produce deterministic timestamps.
    meta:
        Free-form JSON-able annotations for the header.

    The header line is written eagerly at construction, so even an
    empty run leaves a valid, attributable trace artifact.
    """

    #: Instrumented code may branch on this to skip building event
    #: fields entirely; the null tracer reports ``False``.
    enabled = True

    def __init__(self, sink: Any, *, source: str = "unknown",
                 clock: Callable[[], float] = time.monotonic,
                 meta: dict | None = None):
        self._clock = clock
        self._lock = threading.Lock()
        self._owns_sink = isinstance(sink, (str, Path))
        if self._owns_sink:
            path = Path(sink)
            if path.parent and not path.parent.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(path, "a", encoding="utf-8")
        else:
            self._stream = sink
        self._origin = clock()
        header = {
            "schema": TRACE_SCHEMA,
            "source": source,
            "wall": time.time(),
            "monotonic": self._origin,
            "pid": os.getpid(),
        }
        if meta:
            header["meta"] = meta
        self._write_line(header)

    def _write_line(self, record: dict) -> None:
        text = json.dumps(record, separators=(",", ":"),
                          sort_keys=True) + "\n"
        with self._lock:
            self._stream.write(text)
            flush = getattr(self._stream, "flush", None)
            if flush is not None:
                flush()

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one event; ``t`` is seconds since the header origin."""
        record = {"t": round(self._clock() - self._origin, 9),
                  "kind": kind}
        record.update(fields)
        self._write_line(record)

    def close(self) -> None:
        """Close the sink if this tracer opened it (idempotent)."""
        with self._lock:
            if self._owns_sink and self._stream is not None:
                self._stream.close()
                self._owns_sink = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False

    def emit(self, kind: str, **fields: Any) -> None:
        """Discard the event."""

    def close(self) -> None:
        """Nothing to close."""

    def __enter__(self) -> "_NullTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


#: The shared disabled tracer instrumented code defaults to.
NULL_TRACER = _NullTracer()


def open_tracer(spec: Any, *, source: str,
                clock: Callable[[], float] = time.monotonic,
                meta: dict | None = None) -> Tracer | _NullTracer:
    """Build a :class:`Tracer` from a configuration value.

    ``None`` (tracing off) returns :data:`NULL_TRACER`; an existing
    :class:`Tracer` (or anything with an ``emit``) passes through so
    layers can share one sink; a path or stream opens a new tracer.
    """
    if spec is None:
        return NULL_TRACER
    if hasattr(spec, "emit"):
        return spec
    return Tracer(spec, source=source, clock=clock, meta=meta)


@dataclass
class Trace:
    """One parsed trace: its header line and its event lines."""

    #: The schema-versioned header record.
    header: dict
    #: Every event record, in file order.
    events: list[dict]

    @property
    def source(self) -> str:
        """The emitting subsystem named in the header."""
        return str(self.header.get("source", "unknown"))


def _iter_lines(source: Any) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as stream:
            yield from stream
        return
    if isinstance(source, io.StringIO):
        yield from source.getvalue().splitlines()
        return
    yield from source


def read_trace(source: Any) -> Trace:
    """Parse and validate a JSONL trace from a path, stream, or lines.

    Validation is the round-trip contract: the header must carry
    :data:`TRACE_SCHEMA`, every event needs a known ``kind`` and a
    non-negative numeric ``t``.  Raises :class:`TraceError` otherwise.
    """
    header: dict | None = None
    events: list[dict] = []
    for lineno, line in enumerate(_iter_lines(source), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise TraceError(
                f"trace line {lineno} is not JSON: {error}") from error
        if not isinstance(record, dict):
            raise TraceError(
                f"trace line {lineno} is not a JSON object")
        if header is None:
            schema = record.get("schema")
            if schema != TRACE_SCHEMA:
                raise TraceError(
                    f"trace header speaks schema {schema!r}; this "
                    f"reader speaks {TRACE_SCHEMA!r}")
            header = record
            continue
        kind = record.get("kind")
        if kind not in EVENT_KINDS:
            raise TraceError(
                f"trace line {lineno}: unknown event kind {kind!r}")
        t = record.get("t")
        if not isinstance(t, (int, float)) or t < 0 or not \
                math.isfinite(t):
            raise TraceError(
                f"trace line {lineno}: event needs a finite "
                f"non-negative 't', got {t!r}")
        events.append(record)
    if header is None:
        raise TraceError("trace is empty (no header line)")
    return Trace(header=header, events=events)


def job_label(batch: Any, index: Any, name: Any = None) -> str:
    """Human-readable identity of one job, e.g. ``b1[3] grid-n20``."""
    base = f"{batch}[{index}]" if batch is not None else f"[{index}]"
    return f"{base} {name}" if name else base


@dataclass
class _Attempt:
    """One lease lifetime reconstructed from the event stream."""

    lease_id: str
    job: tuple
    worker: str | None
    start_t: float
    end_t: float | None = None
    terminal: str | None = None
    outcome: str | None = None
    seconds: float | None = None


@dataclass
class WorkerReport:
    """Utilization and idle-gap attribution of one worker lane."""

    #: The worker's identity (server-assigned id or wire name).
    name: str
    #: Seconds inside merged lease intervals.
    busy_seconds: float = 0.0
    #: Seconds from the lane's first to last observed activity.
    span_seconds: float = 0.0
    #: ``busy / span`` clamped to [0, 1] (1.0 for a zero-width span).
    utilization: float = 0.0
    #: Lease attempts observed on this lane.
    n_attempts: int = 0
    #: Results the server accepted from this lane.
    n_completed: int = 0
    #: Idle seconds while the ready queue was empty (no work existed).
    idle_no_work_seconds: float = 0.0
    #: Idle seconds while work was queued (scheduling/transit gap).
    idle_starved_seconds: float = 0.0


@dataclass
class TraceReport:
    """The analyzed form of one trace (see :func:`analyze_trace`)."""

    #: The emitting subsystem (header ``source``).
    source: str
    #: Wall-clock anchor of the trace origin (header ``wall``).
    wall: float
    #: First and last event timestamps (trace-relative seconds).
    t0: float = 0.0
    t1: float = 0.0
    #: The batch window: first ``enqueue`` to last job-terminal event
    #: (:data:`JOB_TERMINAL_KINDS`), falling back to ``t0`` / ``t1``
    #: when the trace has none.  Fleet start-up and shutdown lie
    #: outside it.
    batch_t0: float = 0.0
    batch_t1: float = 0.0
    #: Jobs enqueued / accepted-complete / accepted-failed.
    n_jobs: int = 0
    n_completed: int = 0
    n_failed: int = 0
    #: Scheduling churn counters.
    n_requeued: int = 0
    n_expired: int = 0
    n_speculated: int = 0
    n_stale: int = 0
    n_dropped: int = 0
    n_cache_hits: int = 0
    #: Median accepted execution seconds (0.0 with no completions).
    median_seconds: float = 0.0
    #: Per-worker lanes keyed by worker name.
    workers: dict[str, WorkerReport] = field(default_factory=dict)
    #: Stragglers: ``(label, worker, seconds, ratio_to_median)``.
    stragglers: list[tuple[str, str, float, float]] = \
        field(default_factory=list)
    #: Critical-path seconds and its job labels, last-finisher first.
    critical_path_seconds: float = 0.0
    critical_path_jobs: list[str] = field(default_factory=list)
    #: Internal: completed attempts for the timeline renderer.
    _attempts: list[_Attempt] = field(default_factory=list, repr=False)

    @property
    def makespan(self) -> float:
        """Seconds from the first ``enqueue`` to the last job-terminal
        event (the batch window)."""
        return max(0.0, self.batch_t1 - self.batch_t0)

    def to_json(self) -> dict:
        """The report as a JSON-able dict (schema-tagged)."""
        return {
            "schema": "repro.batch.trace-report/1",
            "source": self.source,
            "wall": self.wall,
            "makespan_seconds": round(self.makespan, 6),
            "jobs": {
                "enqueued": self.n_jobs,
                "completed": self.n_completed,
                "failed": self.n_failed,
                "requeued": self.n_requeued,
                "expired": self.n_expired,
                "speculated": self.n_speculated,
                "stale_results": self.n_stale,
                "dropped": self.n_dropped,
                "cache_hits": self.n_cache_hits,
            },
            "median_exec_seconds": round(self.median_seconds, 6),
            "workers": {
                name: {
                    "utilization": round(w.utilization, 4),
                    "busy_seconds": round(w.busy_seconds, 6),
                    "span_seconds": round(w.span_seconds, 6),
                    "attempts": w.n_attempts,
                    "completed": w.n_completed,
                    "idle_no_work_seconds":
                        round(w.idle_no_work_seconds, 6),
                    "idle_starved_seconds":
                        round(w.idle_starved_seconds, 6),
                } for name, w in sorted(self.workers.items())
            },
            "stragglers": [
                {"job": label, "worker": worker,
                 "seconds": round(seconds, 6),
                 "ratio_to_median": round(ratio, 3)}
                for label, worker, seconds, ratio in self.stragglers
            ],
            "critical_path": {
                "seconds": round(self.critical_path_seconds, 6),
                "jobs": list(self.critical_path_jobs),
            },
        }

    def render(self, *, top: int = 5) -> str:
        """The report as a human-readable text block."""
        lines = [f"trace report ({TRACE_SCHEMA}, source {self.source})"]
        lines.append(
            f"  span {self.makespan:9.3f} s   jobs: {self.n_jobs} "
            f"enqueued, {self.n_completed} completed, "
            f"{self.n_failed} failed")
        lines.append(
            f"  churn: {self.n_requeued} requeued "
            f"({self.n_expired} expired), {self.n_speculated} "
            f"speculated, {self.n_stale} stale result(s), "
            f"{self.n_dropped} dropped, {self.n_cache_hits} "
            f"cache hit(s)")
        pct = (100.0 * self.critical_path_seconds / self.makespan
               if self.makespan > 0 else 0.0)
        lines.append(
            f"  critical path {self.critical_path_seconds:9.3f} s "
            f"over {len(self.critical_path_jobs)} job(s) "
            f"({pct:.0f}% of span)")
        for label in self.critical_path_jobs[:top]:
            lines.append(f"    {label}")
        if len(self.critical_path_jobs) > top:
            lines.append(
                f"    ... {len(self.critical_path_jobs) - top} more")
        if self.workers:
            lines.append("  per-worker utilization")
            for name, w in sorted(self.workers.items()):
                lines.append(
                    f"    {name:<8} util {100 * w.utilization:5.1f}%  "
                    f"busy {w.busy_seconds:8.3f} s / "
                    f"{w.span_seconds:8.3f} s  "
                    f"jobs {w.n_completed}/{w.n_attempts}  "
                    f"idle {w.idle_no_work_seconds:.3f} s no-work + "
                    f"{w.idle_starved_seconds:.3f} s starved")
        if self.stragglers:
            lines.append(
                f"  stragglers (vs median {self.median_seconds:.3f} s)")
            for label, worker, seconds, ratio in self.stragglers[:top]:
                lines.append(
                    f"    {label}  {seconds:.3f} s on {worker} "
                    f"({ratio:.1f}x median)")
        else:
            lines.append("  stragglers: none")
        return "\n".join(lines)

    def render_timeline(self, *, width: int = 64) -> str:
        """ASCII per-worker lanes over the trace span.

        ``#`` marks time inside a lease, ``.`` idle time inside the
        lane's span, space outside it; one column spans
        ``makespan / width`` seconds from the batch window's start.
        """
        if not self.workers or self.makespan <= 0:
            return "timeline: no worker activity recorded"
        scale = self.makespan / width
        lines = [f"timeline ({self.makespan:.3f} s, one column = "
                 f"{scale * 1000:.1f} ms)"]
        for name in sorted(self.workers):
            lane = [" "] * width
            spans = [a for a in self._attempts
                     if a.worker == name and a.end_t is not None]
            if spans:
                lo = min(a.start_t for a in spans)
                hi = max(a.end_t for a in spans)
                for col in range(width):
                    t = self.batch_t0 + (col + 0.5) * scale
                    if lo <= t <= hi:
                        lane[col] = "."
            for a in spans:
                first = int((a.start_t - self.batch_t0) / scale)
                last = int((a.end_t - self.batch_t0) / scale)
                for col in range(max(0, first),
                                 min(width - 1, last) + 1):
                    lane[col] = "#"
            lines.append(f"  {name:<8} |{''.join(lane)}|")
        return "\n".join(lines)


def _merged_intervals(
        spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0],
                          max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def analyze_trace(trace: Trace, *,
                  straggler_factor: float = 2.0) -> TraceReport:
    """Lower a parsed trace to a :class:`TraceReport`.

    The analysis is tolerant of truncated traces (a lease with no
    terminal yet simply contributes no interval) and of engine-side
    traces that carry no worker attribution (the worker and
    critical-path sections come back empty).

    Critical path: starting from the last accepted completion, each
    hop follows the chain "this job ran on worker *w* right after the
    previous job on *w* finished, and was already enqueued by then" --
    i.e. the job was waiting on the *worker*, not on its own arrival.
    The chain's intervals are disjoint on one timeline and each runs
    from a lease (after its job's ``enqueue``) to a ``finish``, inside
    the batch window, so its length is provably <= the makespan (a
    property test pins this).
    """
    report = TraceReport(
        source=trace.source,
        wall=float(trace.header.get("wall", 0.0)))
    events = trace.events
    if not events:
        return report
    report.t0 = min(e["t"] for e in events)
    report.t1 = max(e["t"] for e in events)
    report.batch_t0 = min((e["t"] for e in events
                           if e["kind"] == "enqueue"), default=report.t0)
    report.batch_t1 = max((e["t"] for e in events
                           if e["kind"] in JOB_TERMINAL_KINDS),
                          default=report.t1)

    enqueue_t: dict[tuple, float] = {}
    names: dict[tuple, Any] = {}
    open_attempts: dict[str, _Attempt] = {}
    attempts: list[_Attempt] = []
    depth_deltas: list[tuple[float, int]] = []

    def job_key(event: dict) -> tuple:
        return (event.get("batch"), event.get("index"))

    for event in events:
        kind = event["kind"]
        t = float(event["t"])
        key = job_key(event)
        if kind == "enqueue":
            report.n_jobs += 1
            enqueue_t.setdefault(key, t)
            if event.get("name") is not None:
                names[key] = event["name"]
            depth_deltas.append((t, +1))
        elif kind in ("lease", "start"):
            lease_id = str(event.get("lease", f"anon{len(attempts)}"))
            worker = event.get("worker")
            attempt = _Attempt(
                lease_id=lease_id, job=key,
                worker=str(worker) if worker is not None else None,
                start_t=t)
            open_attempts[lease_id] = attempt
            attempts.append(attempt)
            if kind == "lease":
                depth_deltas.append((t, -1))
        elif kind in LEASE_TERMINAL_KINDS:
            lease_id = str(event.get("lease", ""))
            attempt = open_attempts.pop(lease_id, None)
            if attempt is None:
                # An engine-side finish (no lease lifecycle): count
                # the outcome, but there is no interval to close.
                attempt = _Attempt(lease_id=lease_id, job=key,
                                   worker=None, start_t=t)
                attempts.append(attempt)
            attempt.end_t = t
            attempt.terminal = kind
            attempt.outcome = event.get("outcome")
            seconds = event.get("seconds")
            if isinstance(seconds, (int, float)) and seconds >= 0:
                attempt.seconds = float(seconds)
            if kind == "finish":
                if event.get("outcome") == "failed":
                    report.n_failed += 1
                else:
                    report.n_completed += 1
            else:
                if kind == "expire":
                    report.n_expired += 1
                report.n_requeued += 1
                if event.get("requeued", True):
                    depth_deltas.append((t, +1))
        elif kind == "speculate":
            report.n_speculated += 1
            depth_deltas.append((t, +1))
        elif kind == "stale_result":
            report.n_stale += 1
        elif kind == "drop":
            report.n_dropped += 1
        elif kind == "cache_hit":
            report.n_cache_hits += 1

    # -- per-worker lanes ----------------------------------------------
    closed = [a for a in attempts
              if a.worker is not None and a.end_t is not None]
    report._attempts = closed
    by_worker: dict[str, list[_Attempt]] = {}
    for attempt in closed:
        by_worker.setdefault(attempt.worker, []).append(attempt)

    depth_deltas.sort(key=lambda pair: pair[0])
    depth_times = [t for t, _ in depth_deltas]
    depth_sums: list[int] = []
    running = 0
    for _, delta in depth_deltas:
        running += delta
        depth_sums.append(running)

    def queued_at(t: float) -> int:
        pos = bisect_right(depth_times, t)
        return depth_sums[pos - 1] if pos else 0

    for name, lane in by_worker.items():
        worker = WorkerReport(name=name)
        worker.n_attempts = len(lane)
        worker.n_completed = sum(
            1 for a in lane
            if a.terminal == "finish" and a.outcome != "failed")
        merged = _merged_intervals(
            [(a.start_t, a.end_t) for a in lane])
        worker.busy_seconds = sum(end - start for start, end in merged)
        span_start = merged[0][0]
        span_end = merged[-1][1]
        worker.span_seconds = span_end - span_start
        worker.utilization = (
            min(1.0, worker.busy_seconds / worker.span_seconds)
            if worker.span_seconds > 0 else 1.0)
        previous_end = span_start
        for start, end in merged:
            gap = start - previous_end
            if gap > 0:
                midpoint = previous_end + gap / 2
                if queued_at(midpoint) > 0:
                    worker.idle_starved_seconds += gap
                else:
                    worker.idle_no_work_seconds += gap
            previous_end = end
        report.workers[name] = worker

    # -- stragglers ----------------------------------------------------
    def exec_seconds(attempt: _Attempt) -> float:
        if attempt.seconds is not None:
            return attempt.seconds
        return attempt.end_t - attempt.start_t

    completions = [a for a in closed
                   if a.terminal == "finish" and a.outcome != "failed"]
    durations = [exec_seconds(a) for a in completions]
    if durations:
        report.median_seconds = percentile(durations, 50.0)
    if len(durations) >= 3 and report.median_seconds > 0:
        for attempt in completions:
            seconds = exec_seconds(attempt)
            ratio = seconds / report.median_seconds
            if ratio > straggler_factor:
                report.stragglers.append((
                    job_label(attempt.job[0], attempt.job[1],
                              names.get(attempt.job)),
                    attempt.worker, seconds, ratio))
        report.stragglers.sort(key=lambda item: -item[2])

    # -- critical path -------------------------------------------------
    if completions:
        lanes_sorted = {
            worker: sorted(
                (a for a in lane if a.end_t is not None),
                key=lambda a: a.end_t)
            for worker, lane in by_worker.items()}
        current = max(completions, key=lambda a: a.end_t)
        chain: list[_Attempt] = []
        while current is not None and current not in chain:
            chain.append(current)
            lane = lanes_sorted[current.worker]
            predecessor = None
            for candidate in reversed(lane):
                if candidate.end_t <= current.start_t:
                    predecessor = candidate
                    break
            arrived = enqueue_t.get(current.job, report.t0)
            if predecessor is not None \
                    and predecessor.end_t >= arrived:
                current = predecessor
            else:
                current = None
        report.critical_path_seconds = sum(
            a.end_t - a.start_t for a in chain)
        report.critical_path_jobs = [
            job_label(a.job[0], a.job[1], names.get(a.job))
            for a in chain]
    return report
