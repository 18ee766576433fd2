"""Deterministic cluster test harness: virtual time, scripted workers,
injectable faults.

The real fleet tests (``thread_fleet`` in ``_cluster_jobs``) exercise
TCP framing and thread interleavings, but anything involving lease
expiry or idle timers used to need real ``sleep`` calls.
This module removes the clock from the equation:

* :class:`VirtualClock` -- an injectable monotonic clock
  (``JobServer``/``Worker``/``Tracer`` all take ``clock=``) that only
  moves when a test calls :meth:`~VirtualClock.advance`.
* :func:`scripted_cluster` -- a :class:`~repro.batch.cluster.JobServer`
  with ``auto_reap=False`` under a virtual clock, driven entirely
  through :class:`ScriptedWorker` objects that speak the worker
  protocol via ``handle_worker_request`` (no sockets, no threads, no
  real time).  Reaper sweeps run exactly when the test calls
  ``server.reap_expired_leases()``.
* Fault injection: a stalled worker is simply one that never reports
  (advance the clock past the lease timeout instead); a killed worker
  is :meth:`ScriptedWorker.kill`; a slow network or slow job is a
  clock advance between lease and report; a duplicate completion is
  two ``complete`` calls on one lease.
* :class:`GateJob` -- for tests that do need a *real*
  :class:`~repro.batch.cluster.Worker` thread (stop/idle semantics):
  execution blocks on an in-process gate the test releases, replacing
  "sleep long enough" with an explicit, bounded rendezvous.

Deterministic tests must lease with ``wait=0``: a blocking lease wait
is real time even under a virtual clock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from _cluster_jobs import TinyResult

from repro.batch.cluster import JobServer, decode_payload, encode_payload
from repro.batch.digest import job_digest


class VirtualClock:
    """A monotonic clock that moves only when told to (thread-safe)."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        """The current virtual time (the ``clock=`` contract)."""
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new now."""
        if seconds < 0:
            raise ValueError(f"cannot rewind a monotonic clock "
                             f"({seconds})")
        with self._lock:
            self._now += float(seconds)
            return self._now


class ScriptedWorker:
    """One scripted fleet member: drives the worker protocol directly.

    The instance itself is the connection-identity ``owner`` token, so
    lease ownership, ``register_worker``, and ``release_worker``
    behave exactly as for a real connection.
    """

    def __init__(self, server: JobServer):
        self._server = server

    def request(self, message: dict) -> dict:
        """Send one raw protocol frame as this worker."""
        return self._server.handle_worker_request(message, self)

    def lease(self) -> dict | None:
        """Lease the next job (``wait=0``); ``None`` when idle."""
        response = self.request({"op": "lease", "wait": 0})
        assert response["ok"], response
        return None if response.get("idle") else response

    def complete(self, leased: dict, result: object,
                 seconds: float | None = None) -> dict:
        """Report ``result`` for a lease; returns the server's reply
        (``{"ok": True}``, or ``stale: True`` when superseded)."""
        message = {"op": "complete", "lease": leased["lease"],
                   "result": encode_payload(result)}
        if seconds is not None:
            message["seconds"] = seconds
        return self.request(message)

    def fail(self, leased: dict, error: str = "injected failure",
             error_type: str = "RuntimeError",
             seconds: float | None = None) -> dict:
        """Report a job failure for a lease."""
        message = {"op": "fail", "lease": leased["lease"],
                   "error": error, "error_type": error_type}
        if seconds is not None:
            message["seconds"] = seconds
        return self.request(message)

    def run_one(self, seconds: float | None = None) -> dict | None:
        """Lease, execute, and report one job; ``None`` when idle."""
        leased = self.lease()
        if leased is None:
            return None
        job = decode_payload(leased["job"])
        try:
            result = job.execute()
        # The scripted fleet mirrors the real worker loop: execution
        # errors become fail reports, never harness crashes.
        except Exception as error:  # noqa: BLE001 - test harness
            self.fail(leased, error=str(error),
                      error_type=type(error).__name__, seconds=seconds)
            return leased
        self.complete(leased, result, seconds=seconds)
        return leased

    def kill(self) -> None:
        """Simulate SIGKILL / connection loss: every lease this worker
        holds is requeued, exactly like a dropped TCP connection."""
        self._server.release_worker(self)


@dataclass
class ScriptedCluster:
    """A socket-less :class:`JobServer` under test control."""

    server: JobServer
    clock: VirtualClock

    def worker(self) -> ScriptedWorker:
        """A new scripted fleet member."""
        return ScriptedWorker(self.server)

    def submit(self, jobs, hints: list | None = None):
        """Submit picklable jobs; returns the server-side batch."""
        return self.server.create_batch(
            [encode_payload(job) for job in jobs], hints=hints)

    @staticmethod
    def drain_events(batch) -> list[dict]:
        """Every event currently queued for the submitting client."""
        events = []
        while not batch.events.empty():
            events.append(batch.events.get_nowait())
        return events


@contextmanager
def scripted_cluster(**server_kwargs):
    """A deterministic cluster: virtual clock, no reaper thread, no
    listener traffic.  Keyword arguments pass through to
    :class:`JobServer` (tests typically set ``lease_timeout``,
    ``max_attempts`` or ``trace``); ``clock``/``auto_reap`` are fixed
    by the harness.
    """
    clock = VirtualClock()
    server = JobServer(port=0, clock=clock, auto_reap=False,
                       **server_kwargs)
    try:
        yield ScriptedCluster(server=server, clock=clock)
    finally:
        server.shutdown()


# ----------------------------------------------------------------------
# Gated execution for real-Worker-thread tests
# ----------------------------------------------------------------------
#: name -> (entered, release) rendezvous events of live GateJobs.
_GATES: dict[str, tuple[threading.Event, threading.Event]] = {}
_GATES_LOCK = threading.Lock()


def gate_events(name: str) -> tuple[threading.Event, threading.Event]:
    """The ``(entered, release)`` events of the named gate (created on
    first use; shared between the test and the executing thread)."""
    with _GATES_LOCK:
        if name not in _GATES:
            _GATES[name] = (threading.Event(), threading.Event())
        return _GATES[name]


def reset_gate(name: str) -> None:
    """Forget a gate (test teardown hygiene)."""
    with _GATES_LOCK:
        _GATES.pop(name, None)


@dataclass(frozen=True)
class GateJob:
    """A job that parks mid-execution until its gate opens.

    Only meaningful for in-process worker threads (the events cannot
    cross a process boundary); gives tests a bounded, sleep-free way
    to hold a real :class:`~repro.batch.cluster.Worker` inside
    ``execute_any`` while they act.
    """

    name: str
    gate: str
    value: int = 5

    result_type = TinyResult

    def cache_key(self) -> dict:
        """Engine cache identity (the gate name stays in: each gate is
        its own unit of work)."""
        return {"v": 0, "cluster-gate": self.gate, "value": self.value}

    def execute(self) -> TinyResult:
        """Signal entry, wait (bounded) for the release, then finish."""
        entered, release = gate_events(self.gate)
        entered.set()
        release.wait(timeout=30.0)
        return TinyResult(name=self.name, digest=job_digest(self),
                          value=self.value)
