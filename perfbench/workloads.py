"""The benchmark's four workloads and their correctness gates.

Each workload runs *rounds*: a fixed unit of work (a library pass, an
EXP-S1 grid, 100 serve requests, a warm sweep pass) whose inputs derive
only from the run's seed and the round index.  A round's timed part
excludes input generation and output checks.  Untraced runs time
rounds for the whole run; traced runs time half the run untraced, then
install the spans of :mod:`tracing` and time the other half, so the
tracing overhead is measured within one run.

Set-up is timed in fresh interpreters (``run.py --probe``), or for
``serve`` by starting the real CLI server, three times per run.  Every
round and set-up is paired with a calibration slice measured just
before it, which scales its times to the reference host speed.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, perf_counter_ns

from repro.agu.model import AguSpec
from repro.analysis.experiments import (
    StatisticalConfig,
    run_statistical_comparison,
)
from repro.batch.cache import InMemoryLRUCache, open_cache
from repro.batch.engine import BatchCompiler, InlineExecutor, execute_job
from repro.batch.jobs import BatchJob, job_matrix, jobs_from_kernels
from repro.batch.serving import ServeClient
from repro.core.pipeline import compile_kernel
from repro.errors import ReproError
from repro.graph.access_graph import cached_access_graph
from repro.workloads.kernels import KERNELS, get_kernel
from repro.workloads.random_patterns import (
    RandomPatternConfig,
    generate_pattern,
)

import catalogue
import tracing

#: kernel -> (K~ at M=1, best-pair cost at K=2, M=1): the golden table
#: of the kernel-regression tests, copied so the benchmark checks its
#: outputs against values it does not compute.
GOLDEN: dict[str, tuple[int | None, int]] = {
    "autocorr4": (2, 0), "biquad_cascade2": (7, 4), "complex_mac": (6, 8),
    "convolution8": (13, 3), "correlation5": (5, 3), "delay_line": (2, 0),
    "dot_product": (2, 0), "downsample2": (None, 1), "energy": (1, 0),
    "fft_butterfly": (2, 0), "fir16": (15, 3), "fir4_decimate2": (4, 3),
    "fir8": (8, 3), "fir8_symmetric": (8, 8), "goertzel": (3, 1),
    "iir_biquad_df1": (5, 2), "iir_biquad_df2": (4, 4), "lattice2": (4, 3),
    "lms_update": (2, 0), "matvec_row4": (4, 3), "moving_average4": (5, 1),
    "paper_example": (3, 2), "saxpy": (2, 0), "vector_add": (3, 2),
    "vector_scale": (2, 0), "wavelet_lift": (None, 1),
}

SETUP_REPEATS = 3


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


@dataclass
class Round:
    """One timed round."""

    elapsed: float
    ops: int
    latencies_ms: list[float]
    failed: int = 0
    #: Per-layer values (traced rounds only).
    layers: dict = field(default_factory=dict)
    #: Workload-specific measurements.  Rounds with equal ``extra
    #: ["key"]`` do identical work, so their counts must be equal.
    extra: dict = field(default_factory=dict)
    #: Seconds of the calibration slice measured before the round.
    calibration: float = 0.0

    @property
    def speed(self) -> float:
        """How much faster than the reference host this round ran
        (see :func:`calibration_slice`)."""
        return REFERENCE_SLICE_S / self.calibration


@dataclass
class Report:
    """Everything one run measured."""

    rounds: list[Round] = field(default_factory=list)
    traced: list[Round] = field(default_factory=list)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Per-layer values measured outside traced rounds.
    layers: dict = field(default_factory=dict)
    #: Failed correctness gates, one message each.
    failures: list[str] = field(default_factory=list)


def _payload(result) -> dict:
    """A result payload without its timing field."""
    record = result.payload()
    del record["wall_seconds"]
    return record


def _specs() -> list[AguSpec]:
    return [AguSpec(k, m) for k, m in catalogue.LIBRARY_SPECS]


def _library_jobs(n_iterations: int | None = None) -> list[BatchJob]:
    specs = _specs()
    return job_matrix(jobs_from_kernels(sorted(KERNELS), specs[0],
                                        n_iterations=n_iterations), specs)


def _src_env(root: Path) -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + extra
                                             if extra else "")
    return env


#: What the calibration slice takes on the reference host.  Times are
#: reported at that speed: multiplied by the reference time over the
#: slice time measured next to them, and rates divided by it.
REFERENCE_SLICE_S = 0.007


def _calibration_unit() -> int:
    table: dict[str, int] = {}
    pairs = []
    for number in range(1500):
        key = f"k{number % 97}"
        table[key] = table.get(key, 0) + number * 3 % 11
        pairs.append((key, number))
    pairs.sort(key=lambda pair: pair[1] % 13)
    return len(table) + len(pairs)


def calibration_slice() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    It uses no code of the program under test, so it measures the
    host only.  The shared host's speed drifts by tens of percent
    within minutes; a time scaled by the slice measured just before it
    drifts far less.
    """
    started = perf_counter()
    for _ in range(10):
        _calibration_unit()
    return perf_counter() - started


def host_speed() -> float:
    """The host's speed right now, relative to the reference host."""
    return REFERENCE_SLICE_S / calibration_slice()


def rounds_for(run_round, seconds: float) -> list[Round]:
    """Run rounds until ``seconds`` of timed work (at least two rounds;
    wall time is capped so a slow machine still ends the run).  A
    calibration slice runs before a round at most every 0.1 s."""
    rounds: list[Round] = []
    spent = 0.0
    started = perf_counter()
    calibrated_at = -math.inf
    calibration = 0.0
    while spent < seconds or len(rounds) < 2:
        if perf_counter() - calibrated_at >= 0.1:
            calibration = calibration_slice()
            calibrated_at = perf_counter()
        outcome = run_round(len(rounds))
        outcome.calibration = calibration
        rounds.append(outcome)
        spent += outcome.elapsed
        if perf_counter() - started > 2 * seconds + 10:
            break
    return rounds


class Workload:
    """A workload run from the benchmark process."""

    name = ""

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed = seed
        self.root = root
        self.work = work

    def run(self, seconds: float, traced: bool) -> Report:
        """Set up, measure, check; see the module docstring."""
        raise NotImplementedError


class InProcess(Workload):
    """A workload whose rounds run in the benchmark process."""

    #: Whether rounds clear the access-graph memo first (a fresh
    #: ``repro-agu`` process starts with an empty one).
    clear_memo = True
    recorder: tracing.Recorder | None = None

    def probe(self, work: Path) -> None:
        """The set-up a user pays, run in a fresh interpreter."""
        self.prepare(work)

    def prepare(self, work: Path) -> None:
        """Build the round inputs (and any on-disk state under
        ``work``)."""
        raise NotImplementedError

    def run_round(self, index: int) -> Round:
        """One timed round plus its checks."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Gates that need the whole run; returns failure messages."""
        return []

    def run(self, seconds: float, traced: bool) -> Report:
        report = Report()
        repeats = 1 if traced else SETUP_REPEATS
        report.setup_s, kept = self._time_probes(repeats)
        self.prepare(kept)
        if traced:
            report.rounds = rounds_for(self.run_round, seconds / 2)
            self.recorder = tracing.Recorder()
            tracing.install(self.recorder)
            report.traced = rounds_for(self.run_round, seconds / 2)
        else:
            report.rounds = rounds_for(self.run_round, seconds)
        report.failures = self.finish()
        report.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        return report

    def _time_probes(self, repeats: int) -> tuple[float, Path]:
        """Median wall time of ``repeats`` probe processes, at the
        reference host speed; keeps the last probe's work directory."""
        times = []
        for repeat in range(repeats):
            work = self.work / f"probe-{repeat}"
            work.mkdir(parents=True)
            speed = host_speed()
            started = perf_counter()
            probe = subprocess.run(
                [sys.executable, str(self.root / "perfbench" / "run.py"),
                 "--probe", self.name, "--seed", str(self.seed),
                 "--work", str(work)],
                cwd=self.root, capture_output=True, text=True,
                timeout=120)
            times.append((perf_counter() - started) * speed)
            if probe.returncode != 0:
                raise BenchmarkError(
                    f"{self.name} set-up failed: {probe.stderr[-2000:]}")
            if repeat < repeats - 1:
                shutil.rmtree(work)
        return statistics.median(times), work

    def timed(self, work):
        """Run ``work()`` as a round's timed part; returns ``(value,
        seconds, layers)`` with layers only when tracing."""
        if self.clear_memo:
            cached_access_graph.cache_clear()
        if self.recorder is not None:
            self.recorder.take()
        started = perf_counter()
        value = work()
        elapsed = perf_counter() - started
        layers: dict = {}
        if self.recorder is not None:
            layers = tracing.round_layers(self.recorder.take())
            info = cached_access_graph.cache_info()
            layers["access_graph.memo_hits"] = info.hits
            layers["access_graph.memo_misses"] = info.misses
        return value, elapsed, layers


class Library(InProcess):
    """Cold compile of the whole kernel library (see the catalogue)."""

    name = "library"

    def prepare(self, work: Path) -> None:
        self.jobs = _library_jobs()
        random.Random(self.seed).shuffle(self.jobs)
        self.reference: dict[str, dict] = {}

    def run_round(self, index: int) -> Round:
        report, elapsed, layers = self.timed(
            lambda: BatchCompiler(cache=InMemoryLRUCache(),
                                  executor=InlineExecutor()).compile(
                                      self.jobs))
        failed = sum(not self._correct(result) for result in report.results)
        return Round(elapsed, len(report.results),
                     [1000 * result.wall_seconds
                      for result in report.results], failed, layers)

    def _correct(self, result) -> bool:
        kernel = result.name.split("@")[0]
        k_tilde, tight_cost = GOLDEN[kernel]
        if not (result.simulated and result.audit_ok
                and not result.from_cache):
            return False
        if result.modify_range == 1 and result.k_tilde != k_tilde:
            return False
        if (result.n_registers, result.modify_range) == (2, 1) \
                and result.total_cost != tight_cost:
            return False
        payload = _payload(result)
        return self.reference.setdefault(result.digest, payload) == payload


class Grid(InProcess):
    """The EXP-S1 statistical grid (see the catalogue)."""

    name = "grid"

    def prepare(self, work: Path) -> None:
        self.config = StatisticalConfig(
            patterns_per_config=catalogue.GRID_PATTERNS_PER_CONFIG)
        self.reference: dict[int, tuple] = {}

    @staticmethod
    def _outcome(summary) -> tuple:
        return (summary.rows, summary.average_reduction_pct,
                summary.overall_reduction_pct)

    def _grid(self, grid_seed: int, progress=None):
        return run_statistical_comparison(
            replace(self.config, seed=grid_seed), progress=progress)

    def run_round(self, index: int) -> Round:
        grid_seed = self.seed * catalogue.GRID_SEED_STRIDE + index
        points: list[float] = []
        summary, elapsed, layers = self.timed(
            lambda: self._grid(grid_seed, lambda done, total, result:
                               points.append(1000 * result.wall_seconds)))
        outcome = self._outcome(summary)
        same = self.reference.setdefault(grid_seed, outcome) == outcome
        return Round(elapsed, len(summary.rows), points,
                     0 if same else len(summary.rows), layers,
                     {"key": grid_seed})

    def finish(self) -> list[str]:
        failures = []
        first = self.seed * catalogue.GRID_SEED_STRIDE
        if self._outcome(self._grid(first)) != self.reference[first]:
            failures.append(f"grid summary for seed {first} changed when "
                            f"run again")
        if len(set(self.reference.values())) < len(self.reference):
            failures.append(f"grid summaries coincide for different "
                            f"seeds among {sorted(self.reference)}")
        return failures


class BatchWarm(InProcess):
    """A cache-hot re-run of a sweep (see the catalogue)."""

    name = "batch-warm"
    clear_memo = False

    def _jobs(self) -> list[BatchJob]:
        jobs = [job for iterations in catalogue.WARM_ITERATIONS
                for job in _library_jobs(iterations)]
        random.Random(self.seed).shuffle(jobs)
        return jobs

    def probe(self, work: Path) -> None:
        report = BatchCompiler(cache=open_cache(f"dir:{work / 'store'}"),
                               executor=InlineExecutor()).compile(
                                   self._jobs())
        if report.n_compiled != len(report.results):
            raise BenchmarkError("the store was not empty before the fill")

    def prepare(self, work: Path) -> None:
        self.jobs = self._jobs()
        self.store = f"dir:{work / 'store'}"
        self.reference: tuple = ()

    def run_round(self, index: int) -> Round:
        report, elapsed, layers = self.timed(
            lambda: BatchCompiler(cache=open_cache(self.store),
                                  executor=InlineExecutor()).compile(
                                      self.jobs))
        # Hits rebuild the stored results, wall_seconds included, so
        # every pass must return exactly the first pass's results.
        self.reference = self.reference or report.results
        failed = sum(not (result.from_cache and result.audit_ok)
                     or result != expected
                     for result, expected in zip(report.results,
                                                 self.reference))
        return Round(elapsed, len(report.results), [1000 * elapsed],
                     failed, layers)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One serve request with the answer it must get."""

    warm: bool
    arguments: dict
    expected: dict
    listing: str | None = None


def render_kernel(pattern, trips: int) -> str:
    """Frontend source for a random access pattern: one loop of
    ``trips`` iterations whose body makes the pattern's accesses."""
    start = max(0, max(-access.index.offset for access in pattern))

    def subscript(offset: int) -> str:
        return f"i{offset:+d}" if offset else "i"

    body = " ".join(f"{access.array}[{subscript(access.index.offset)}];"
                    for access in pattern)
    return f"for (i = {start}; i < {start + trips}; i++) {{ {body} }}"


def _expect(job: BatchJob) -> dict:
    return _payload(execute_job(job))


class Server:
    """A ``repro-agu serve`` process started through the CLI (or
    through the tracing launcher), ready once it answers a ping."""

    def __init__(self, root: Path, work: Path, tag: str, traced: bool):
        self.spans = work / f"spans-{tag}.json" if traced else None
        if traced:
            command = [sys.executable,
                       str(root / "perfbench" / "serve_launcher.py"),
                       str(self.spans)]
        else:
            command = [sys.executable, "-m", "repro.cli.main"]
        command += ["serve", "--port", "0"]
        self.log_path = work / f"server-{tag}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=root, env=_src_env(root), stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        try:
            endpoint = self._banner(deadline=perf_counter() + 60)
            self.client = ServeClient(endpoint, timeout=60.0,
                                      pool_size=catalogue.SERVE_CONNECTIONS)
            if not self.client.ping():
                raise BenchmarkError(f"no ping answer from {endpoint}")
        except BaseException:
            self.stop()
            raise

    def _banner(self, deadline: float) -> str:
        stream = self.process.stdout
        while perf_counter() < deadline:
            ready, _, _ = select.select([stream], [], [],
                                        max(0.0, deadline - perf_counter()))
            if not ready:
                break
            line = stream.readline()
            if not line:
                break
            for word in line.split():
                if word.startswith("tcp://"):
                    return word.rstrip("),")
        raise BenchmarkError(
            f"serve printed no tcp:// banner; see {self.log_path}")

    def stop(self) -> int:
        """SIGTERM, then wait for the process to end; returns its exit
        code."""
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        return self.process.returncode


class Serve(Workload):
    """Closed-loop traffic against an out-of-process server."""

    name = "serve"

    def __init__(self, seed: int, root: Path, work: Path):
        super().__init__(seed, root, work)
        specs = _specs()
        self.warm_jobs = [
            BatchJob(name=name, spec=spec, source=get_kernel(name).source)
            for name in sorted(KERNELS) for spec in specs]
        self.warm_expected: list[dict] = []
        self.library_keys = {
            (KERNELS[job.name].kernel().pattern, job.spec.modify_range)
            for job in self.warm_jobs}
        self.seen: set = set()

    @staticmethod
    def _arguments(job: BatchJob, library: bool) -> dict:
        arguments = {"name": job.name,
                     "registers": job.spec.n_registers,
                     "modify_range": job.spec.modify_range}
        if library:
            arguments["kernel"] = job.name
        else:
            arguments["source"] = job.source
        return arguments

    def _start(self, tag: str, traced: bool) -> Server:
        """Start a server and prime its warm set (every library job
        once, checked)."""
        server = Server(self.root, self.work, tag, traced)
        try:
            for job, expected in zip(self.warm_jobs, self.warm_expected):
                answer = server.client.compile(
                    **self._arguments(job, library=True))
                if _payload(answer.result) != expected:
                    raise BenchmarkError(
                        f"priming answer for {job.name} is wrong")
        except BaseException:
            server.stop()
            raise
        self.seen = set(self.library_keys)
        return server

    def requests(self, index: int) -> list[Request]:
        """Round ``index``'s requests, in a seeded order.

        Every round has the same make-up, so rounds and seeds cost
        alike: the warm requests walk the library jobs in turn, and
        the cold kernels cycle their size N and spec while their
        offsets come from ``(seed, index)``.
        """
        rng = random.Random(self.seed * 1_000_003 + index)
        requests = []
        first = index * catalogue.SERVE_WARM_PER_ROUND
        for offset in range(catalogue.SERVE_WARM_PER_ROUND):
            slot = (first + offset) % len(self.warm_jobs)
            job = self.warm_jobs[slot]
            requests.append(Request(True, self._arguments(job, True),
                                    self.warm_expected[slot]))
        low, high = catalogue.SERVE_COLD_ACCESSES
        cold = 0
        while cold < catalogue.SERVE_COLD_PER_ROUND:
            pattern = generate_pattern(
                RandomPatternConfig(low + cold % (high - low + 1),
                                    offset_span=8,
                                    n_arrays=1 + cold // 4 % 2), rng)
            spec = AguSpec(*catalogue.LIBRARY_SPECS[cold % 4])
            key = (pattern, spec.modify_range)
            if key in self.seen:
                continue
            self.seen.add(key)
            job = BatchJob(name=f"cold-{index}-{cold}", spec=spec,
                           source=render_kernel(
                               pattern, catalogue.SERVE_COLD_TRIPS))
            request = Request(False, self._arguments(job, False),
                              _expect(job))
            if cold < catalogue.SERVE_LISTING_PER_ROUND:
                request.arguments["listing"] = True
                request.listing = compile_kernel(
                    job.kernel(), job.spec, run_simulation=False).listing
            requests.append(request)
            cold += 1
        rng.shuffle(requests)
        return requests

    @staticmethod
    def _correct(request: Request, answer) -> bool:
        if isinstance(answer, Exception):
            return False
        return (_payload(answer.result) == request.expected
                and answer.cached == request.warm
                and answer.listing == request.listing)

    def run_round(self, server: Server, index: int,
                  with_stats: bool) -> Round:
        """Send one round over the closed-loop connections."""
        requests = self.requests(index)
        answers: list = [None] * len(requests)
        latencies = [math.inf] * len(requests)
        cursor = iter(range(len(requests)))
        lock = threading.Lock()

        def drive() -> None:
            while True:
                with lock:
                    slot = next(cursor, None)
                if slot is None:
                    return
                started = perf_counter_ns()
                try:
                    answers[slot] = server.client.compile(
                        **requests[slot].arguments)
                except ReproError as error:
                    answers[slot] = error
                    continue
                latencies[slot] = (perf_counter_ns() - started) / 1e6

        before = server.client.server_stats() if with_stats else None
        helpers = [threading.Thread(target=drive)
                   for _ in range(catalogue.SERVE_CONNECTIONS - 1)]
        start = perf_counter_ns()
        for helper in helpers:
            helper.start()
        drive()
        for helper in helpers:
            helper.join()
        end = perf_counter_ns()
        outcome = Round((end - start) / 1e9, len(requests), latencies)
        outcome.failed = sum(not self._correct(request, answer)
                             for request, answer in zip(requests, answers))
        outcome.extra = {
            "key": index, "window": (start, end),
            "warm_ms": [latency for request, latency
                        in zip(requests, latencies) if request.warm],
            "cold_ms": [latency for request, latency
                        in zip(requests, latencies) if not request.warm]}
        if with_stats:
            outcome.extra["stats"] = (before,
                                      server.client.server_stats())
        return outcome

    def _phase(self, server: Server, seconds: float,
               with_stats: bool) -> list[Round]:
        return rounds_for(
            lambda index: self.run_round(server, index, with_stats),
            seconds)

    def run(self, seconds: float, traced: bool) -> Report:
        self.warm_expected = [_expect(job) for job in self.warm_jobs]
        report = Report()
        servers: list[Server] = []

        def start(tag: str, traced_server: bool = False) -> float:
            speed = host_speed()
            started = perf_counter()
            servers.append(self._start(tag, traced_server))
            return (perf_counter() - started) * speed

        def stop() -> Server:
            server = servers.pop()
            code = server.stop()
            if code != 0:
                report.failures.append(f"serve exited with code {code}")
            return server

        try:
            if traced:
                start("untraced")
                report.layers["serve.ping_ms"] = self._ping_ms(servers[0])
                report.rounds = self._phase(servers[0], seconds / 2, False)
                stop()
                for kind in ("warm", "cold"):
                    report.layers[f"serve.{kind}_p50_ms"] = \
                        statistics.median(
                            latency * outcome.speed
                            for outcome in report.rounds
                            for latency in outcome.extra[f"{kind}_ms"])
                start("traced", traced_server=True)
                report.traced = self._phase(servers[0], seconds / 2, True)
                report.failures += self._server_layers(stop(),
                                                       report.traced)
            else:
                times = []
                for repeat in range(SETUP_REPEATS):
                    if servers:
                        stop()
                    times.append(start(f"setup-{repeat}"))
                report.setup_s = statistics.median(times)
                report.rounds = self._phase(servers[0], seconds, False)
                stop()
        finally:
            for server in servers:
                server.stop()
        report.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return report

    @staticmethod
    def _ping_ms(server: Server, count: int = 200) -> float:
        """Median ping round trip, at the reference host speed."""
        speed = host_speed()
        times = []
        for _ in range(count):
            started = perf_counter_ns()
            if not server.client.ping():
                raise BenchmarkError("ping failed")
            times.append((perf_counter_ns() - started) / 1e6)
        return statistics.median(times) * speed

    def _server_layers(self, server: Server, rounds: list[Round]
                       ) -> list[str]:
        """Cut the stopped server's spans into the client's rounds and
        add the stats-op counters of each round."""
        with open(server.spans, encoding="utf-8") as stream:
            spans = json.load(stream)
        failures = []
        for index, outcome in enumerate(rounds):
            layers = tracing.round_layers(spans, *outcome.extra["window"])
            before, after = outcome.extra["stats"]
            delta = {key: after[key] - before[key]
                     for key in ("requests", "served_warm",
                                 "busy_rejections", "batches")}
            queued = delta["requests"] - delta["served_warm"] \
                - delta["busy_rejections"]
            layers.update({
                "serve.served_warm": delta["served_warm"],
                "serve.busy_rejections": delta["busy_rejections"],
                "serve.batches": delta["batches"],
                "serve.batch_size_mean": queued / max(1, delta["batches"]),
                "serve.parse_per_request":
                    layers["parse.calls"] / max(1, delta["requests"]),
                "access_graph.memo_hits":
                    after["memo"]["hits"] - before["memo"]["hits"],
                "access_graph.memo_misses":
                    after["memo"]["misses"] - before["memo"]["misses"],
            })
            matched = layers.pop("serve.cold_requests_matched", 0)
            if matched != catalogue.SERVE_COLD_PER_ROUND:
                failures.append(
                    f"round {index}: {matched} cold requests matched to "
                    f"an engine batch, expected "
                    f"{catalogue.SERVE_COLD_PER_ROUND}")
            outcome.layers = layers
        return failures


WORKLOADS = {workload.name: workload
             for workload in (Library, Grid, Serve, BatchWarm)}
