"""Structured execution traces of the batch engine.

A :class:`~repro.batch.engine.BatchCompiler` given ``trace=`` records
what happened to every job of its batches, following the
trace-collect -> analyze model:

* :class:`Tracer` -- a thread-safe JSONL event writer.  A trace file
  starts with one schema-versioned *header* line carrying a wall-clock
  anchor and the monotonic-clock origin, followed by one compact JSON
  *event* per line whose ``t`` is seconds since that origin (monotonic,
  so durations are immune to wall-clock steps).  A path sink belongs
  to one run: it is truncated when the tracer opens it, so re-running
  with the same path leaves one readable trace, not two spliced ones.
  The disabled form (:data:`NULL_TRACER`) makes every emit a no-op
  attribute check, so instrumented code costs nothing when tracing is
  off.
* :func:`read_trace` -- load and validate a trace back into a
  :class:`Trace` (the JSONL round-trip contract the property tests
  pin).
* :func:`analyze_trace` -- lower a trace to a :class:`TraceReport`:
  the batch's makespan and its enqueued / completed / failed /
  cache-hit counts, rendered as text or JSON.

Event vocabulary (unknown *fields* are carried through, unknown
*kinds* are rejected at read time so schema drift is loud): the engine
emits ``enqueue`` when a cache miss is handed to the executor,
``finish`` when it completes (``outcome`` is ``"ok"`` or
``"failed"``), and ``cache_hit`` for every slot that did not execute:
served from the cache, or a duplicate of a job computed in the same
batch.  The counts therefore match the batch's
:class:`~repro.batch.engine.BatchReport`: ``enqueue`` per compiled
job, ``cache_hit`` per cache hit.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.errors import BatchError

#: Schema tag written into every trace header; bump on layout breaks.
TRACE_SCHEMA = "repro.batch.trace/1"

#: Schema tag of :meth:`TraceReport.to_json`; bump when its shape
#: changes.
REPORT_SCHEMA = "repro.batch.trace-report/2"

#: Every event kind a trace may contain: the engine's three.
EVENT_KINDS = frozenset({"enqueue", "finish", "cache_hit"})


class TraceError(BatchError):
    """A trace file is malformed or does not speak :data:`TRACE_SCHEMA`."""


class Tracer:
    """Write schema-versioned JSONL trace events to a stream.

    Parameters
    ----------
    sink:
        A path (created or truncated: one run owns one file) or any
        ``.write()``-able text stream (tests pass ``io.StringIO``).
    source:
        Which subsystem is emitting (``engine``); recorded in the
        header.
    clock:
        Monotonic-clock callable; injectable so virtual-clock tests
        produce deterministic timestamps.

    The header line is written eagerly at construction, so even an
    empty run leaves a valid, attributable trace artifact.
    """

    #: Instrumented code may branch on this to skip building event
    #: fields entirely; the null tracer reports ``False``.
    enabled = True

    def __init__(self, sink: Any, *, source: str = "unknown",
                 clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._owns_sink = isinstance(sink, (str, Path))
        if self._owns_sink:
            path = Path(sink)
            if path.parent and not path.parent.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(path, "w", encoding="utf-8")
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


def open_tracer(spec: Any, *, source: str) -> Tracer | _NullTracer:
    """Build a :class:`Tracer` from a configuration value.

    ``None`` (tracing off) returns :data:`NULL_TRACER`; an existing
    :class:`Tracer` (or anything with an ``emit``) passes through so
    callers can share one sink; a path or stream opens a new tracer.
    """
    if spec is None:
        return NULL_TRACER
    if hasattr(spec, "emit"):
        return spec
    return Tracer(spec, source=source)


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


@dataclass
class TraceReport:
    """The analyzed form of one trace (see :func:`analyze_trace`)."""

    #: The emitting subsystem (header ``source``).
    source: str
    #: Wall-clock anchor of the trace origin (header ``wall``).
    wall: float
    #: Seconds from the first event to the last.
    makespan: float = 0.0
    #: Jobs handed to the executor.
    n_jobs: int = 0
    #: Executed jobs that finished ok / failed.
    n_completed: int = 0
    n_failed: int = 0
    #: Slots served without executing.
    n_cache_hits: int = 0

    def to_json(self) -> dict:
        """The report as a JSON-able dict (schema-tagged)."""
        return {
            "schema": REPORT_SCHEMA,
            "source": self.source,
            "wall": self.wall,
            "makespan_seconds": round(self.makespan, 6),
            "jobs": {
                "enqueued": self.n_jobs,
                "completed": self.n_completed,
                "failed": self.n_failed,
                "cache_hits": self.n_cache_hits,
            },
        }

    def render(self) -> str:
        """The report as a human-readable text block."""
        return "\n".join([
            f"trace report ({TRACE_SCHEMA}, source {self.source})",
            f"  span {self.makespan:9.3f} s   jobs: {self.n_jobs} "
            f"enqueued, {self.n_completed} completed, "
            f"{self.n_failed} failed, {self.n_cache_hits} cache "
            f"hit(s)"])


def analyze_trace(trace: Trace) -> TraceReport:
    """Lower a parsed trace to a :class:`TraceReport`.

    Tolerates truncated traces: an ``enqueue`` with no ``finish`` yet
    counts as enqueued and nothing else.
    """
    report = TraceReport(
        source=trace.source,
        wall=float(trace.header.get("wall", 0.0)))
    events = trace.events
    if not events:
        return report
    times = [event["t"] for event in events]
    report.makespan = max(times) - min(times)
    for event in events:
        kind = event["kind"]
        if kind == "enqueue":
            report.n_jobs += 1
        elif kind == "cache_hit":
            report.n_cache_hits += 1
        elif event.get("outcome") == "failed":
            report.n_failed += 1
        else:
            report.n_completed += 1
    return report
