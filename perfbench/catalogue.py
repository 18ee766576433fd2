"""What the benchmark measures, and why: workloads and metrics.

This module is the benchmark's documentation in data form.
``BENCHMARK.json`` at the repository root lists the same workloads and
metric names; ``python3 perfbench/run.py --list`` prints this catalogue
and fails if the two disagree.

Every per-layer metric names the layer module it times, the end-to-end
metric it should move, and the workload where that layer dominates, so
a later change that claims a gain on one layer can say which e2e number
to look at.

Times and rates are reported at the reference host speed: right before
each round and each set-up, a run measures a fixed piece of interpreter
work (``calibration_slice`` in ``workloads.py``) and scales what it
times next by how fast that ran against ``REFERENCE_SLICE_S``.  The
shared host running the benchmark speeds up and slows down by tens of
percent within minutes; unscaled, that drift swamped every change worth
measuring.  The measured throughput and the median scale are printed
on the line before the result.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Library sweep specs: K=2 makes best-pair merging fire on most
#: kernels, K=4 mostly does not; M=1/M=2 change the access graphs.
LIBRARY_SPECS = ((2, 1), (2, 2), (4, 1), (4, 2))

#: ``n_iterations`` axis of the batch-warm sweep (``None`` = declared).
WARM_ITERATIONS = (4, 16, 64, None)

#: EXP-S1 grid size per round (the paper grid at 10 patterns/config).
GRID_PATTERNS_PER_CONFIG = 10
#: Round r of a grid run uses grid seed ``seed * GRID_SEED_STRIDE + r``:
#: one seed's 45 points are too few for a steady p99 (a few hard
#: branch-and-bound instances set it) or a steady throughput.  The
#: identical-summary gate re-runs round 0's grid after measuring.
GRID_SEED_STRIDE = 10_000

#: The serve traffic mix: each round is exactly this many requests, in
#: a seeded order, sent over :data:`SERVE_CONNECTIONS` closed-loop
#: connections (a client sends its next request only after the reply).
SERVE_ROUND_REQUESTS = 100
SERVE_WARM_PER_ROUND = 70      # library kernels, answered warm
SERVE_COLD_PER_ROUND = 30      # generated kernels, never seen before
SERVE_LISTING_PER_ROUND = 10   # of the cold ones, ask listing=true
SERVE_CONNECTIONS = 2
#: Cold kernels: ``generate_pattern`` with N cycling over this range,
#: 1-2 arrays, offsets in [-8, 8] drawn from the seed, rendered as a
#: loop of this many trips; their specs cycle LIBRARY_SPECS.
SERVE_COLD_ACCESSES = (6, 16)
SERVE_COLD_TRIPS = 64


@dataclass(frozen=True)
class Workload:
    """One named workload: what a round does and why it is here."""

    name: str
    op: str
    why: str
    round: str


WORKLOADS = (
    Workload(
        "library", "job",
        "26-kernel library x K{2,4} x M{1,2}, cold compile with "
        "simulation: parse + simulate dominate and K=2 merges; the "
        "compile-layer workload",
        "BatchCompiler (inline, fresh in-memory cache) compiles 104 "
        "jobs with declared trip counts and simulation on; the "
        "access-graph memo is cleared first, as in a fresh process; job "
        "order is shuffled by the seed"),
    Workload(
        "grid", "grid point",
        "EXP-S1 grid on random patterns, no parse and no simulate: path "
        "cover and merging do the work, separating solver gains from "
        "frontend gains",
        "run_statistical_comparison on the default N/M/K axes at "
        f"{GRID_PATTERNS_PER_CONFIG} patterns per config, inline; round "
        f"r uses grid seed seed*{GRID_SEED_STRIDE} + r; memo cleared "
        "first"),
    Workload(
        "serve", "request",
        "out-of-process repro-agu serve, closed loop of 2 connections, "
        "70% warm library / 30% cold generated kernels: the user-facing "
        "front door",
        f"{SERVE_ROUND_REQUESTS} requests ({SERVE_WARM_PER_ROUND} warm "
        f"library kernels, {SERVE_COLD_PER_ROUND} cold generated "
        f"kernels, {SERVE_LISTING_PER_ROUND} of them listing=true) in a "
        "seeded order; warm requests walk the 104 library jobs in turn; "
        "cold kernels come from generate_pattern seeded by (seed, round) "
        "and are rendered to frontend source"),
    Workload(
        "batch-warm", "pass",
        "416-job sweep re-run against a filled dir: store, every job a "
        "hit: digest + cache scan only, the bypasses-compile twin of "
        "library",
        "BatchCompiler over a fresh ShardedDirectoryCache handle re-runs "
        "library x 4 specs x n_iterations {4,16,64,declared}; the store "
        "was filled during set-up"),
)


@dataclass(frozen=True)
class Metric:
    """One reported metric.  ``bound`` is set for end-to-end metrics
    only; per-layer metrics carry the layer they time and the e2e
    metric (on a workload) they should move."""

    name: str
    unit: str
    better: str
    description: str
    bound: float | None = None
    layer: str = ""
    moves: str = ""
    #: Counts repeat exactly between runs of one seed unless marked.
    timing_dependent: bool = False


END_TO_END = (
    Metric("p50_ms", "ms", "lower",
           "median latency of one op (library: a job's compile, "
           "JobResult.wall_seconds; grid: a grid point; serve: a request "
           "round trip; batch-warm: a whole pass, since a pass of hits "
           "is one cache scan)", bound=0.25),
    Metric("p99_ms", "ms", "lower",
           "99th-percentile latency of one op, same ops as "
           "p50_ms; a failed request counts as infinitely slow",
           bound=0.25),
    Metric("ops_per_s", "1/s", "higher",
           "median over rounds of ops completed per second (jobs/s on "
           "library and batch-warm, points/s on grid, requests/s on "
           "serve)", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory: the benchmark process, or for serve "
           "the largest server process it started", bound=0.1),
    Metric("setup_s", "s", "lower",
           "median over 3 set-ups of the time from process start to "
           "ready for the first round: interpreter start and imports; "
           "for serve the CLI banner, first ping and warm-set priming; "
           "for batch-warm the dir: store fill", bound=0.25),
)

_LIB = "ops_per_s on library"
_GRID = "ops_per_s on grid"
_COLD = "p99_ms and serve.cold_p50_ms on serve"
_HOT = "p50_ms and serve.warm_p50_ms on serve"
_WARM = "ops_per_s on batch-warm"

PER_LAYER = (
    Metric("parse.self_ms", "ms", "lower",
           "frontend parse time per round", layer="repro.ir",
           moves=f"{_LIB}; {_COLD}; ~0 on grid"),
    Metric("parse.calls", "count", "lower",
           "kernel parses per round", layer="repro.ir",
           moves=f"{_LIB}; {_COLD}"),
    Metric("access_graph.self_ms", "ms", "lower",
           "access-graph construction (memo misses) and lookups per "
           "round", layer="repro.graph", moves=f"{_GRID}; {_LIB}"),
    Metric("access_graph.memo_hits", "count", "higher",
           "cached_access_graph memo hits per round (cache_info)",
           layer="repro.graph", moves=f"{_GRID}; {_LIB}"),
    Metric("access_graph.memo_misses", "count", "lower",
           "cached_access_graph memo misses per round (cache_info)",
           layer="repro.graph", moves=f"{_GRID}; {_LIB}"),
    Metric("access_graph.memo_hit_ratio", "ratio", "higher",
           "memo hits / lookups per round", layer="repro.graph",
           moves=f"{_GRID}; {_LIB}"),
    Metric("pathcover.self_ms", "ms", "lower",
           "phase-1 zero-cost path cover time per round (exact, greedy "
           "and intra fallback)", layer="repro.pathcover", moves=_GRID),
    Metric("pathcover.exact_calls", "count", "lower",
           "exact branch-and-bound cover calls per round",
           layer="repro.pathcover", moves=_GRID),
    Metric("pathcover.greedy_calls", "count", "lower",
           "greedy cover calls (above the exact-search limit) per round",
           layer="repro.pathcover", moves=_GRID),
    Metric("pathcover.intra_calls", "count", "lower",
           "minimum intra-iteration cover fallbacks per round",
           layer="repro.pathcover", moves=_GRID),
    Metric("merge.self_ms", "ms", "lower",
           "best-pair merging (phase 2) time per round",
           layer="repro.merging", moves=f"{_GRID}; {_LIB} (K=2 jobs)"),
    Metric("merge.steps", "count", "lower",
           "best-pair merge steps per round", layer="repro.merging",
           moves=f"{_GRID}; {_LIB} (K=2 jobs)"),
    Metric("naive_merge.self_ms", "ms", "lower",
           "naive (random-order) merging time per round",
           layer="repro.merging", moves=_GRID),
    Metric("codegen.self_ms", "ms", "lower",
           "AGU code generation time per round", layer="repro.agu",
           moves=f"{_LIB}; {_COLD}"),
    Metric("codegen.instructions", "count", "lower",
           "prologue + body instructions generated per round",
           layer="repro.agu", moves=f"{_LIB}; {_COLD}"),
    Metric("listing.self_ms", "ms", "lower",
           "program listing rendering time per round", layer="repro.agu",
           moves=f"{_LIB}; {_COLD}"),
    Metric("simulate.self_ms", "ms", "lower",
           "verifying simulation time per round", layer="repro.agu",
           moves=f"{_LIB}; {_COLD}"),
    Metric("simulate.accesses_verified", "count", "lower",
           "addresses the simulator checked per round", layer="repro.agu",
           moves=f"{_LIB}; {_COLD}"),
    Metric("digest.self_ms", "ms", "lower",
           "job content-digest time per round", layer="repro.batch.digest",
           moves=f"{_WARM}; {_HOT}"),
    Metric("digest.calls", "count", "lower",
           "job digests computed per round", layer="repro.batch.digest",
           moves=f"{_WARM}; {_HOT}"),
    Metric("cache.get_ms", "ms", "lower",
           "result-cache lookup time (get and get_many) per round",
           layer="repro.batch.cache",
           moves=f"{_WARM}; {_HOT}"),
    Metric("cache.put_ms", "ms", "lower",
           "result-cache store time (put and put_many) per round",
           layer="repro.batch.cache",
           moves=f"{_WARM}; {_HOT}"),
    Metric("cache.hits", "count", "higher",
           "result-cache hits per round", layer="repro.batch.cache",
           moves=f"{_WARM}; {_HOT}"),
    Metric("cache.misses", "count", "lower",
           "result-cache misses per round", layer="repro.batch.cache",
           moves=f"{_WARM}; {_HOT}"),
    Metric("cache.stores", "count", "lower",
           "result-cache entries stored per round",
           layer="repro.batch.cache",
           moves=f"{_WARM}; {_HOT}"),
    Metric("engine.execute_ms", "ms", "lower",
           "wall time inside executed jobs per round (inclusive)",
           layer="repro.batch.engine", moves=f"{_LIB}; {_WARM}"),
    Metric("engine.overhead_ms", "ms", "lower",
           "BatchCompiler.compile/as_completed time outside scan, "
           "execute and persist, per round", layer="repro.batch.engine",
           moves=f"{_LIB}; {_WARM}"),
    Metric("serve.handle_ms", "ms", "lower",
           "median server-side handle_request span of a compile "
           "request", layer="repro.batch.serving",
           moves="p50_ms and p99_ms on serve"),
    Metric("serve.ping_ms", "ms", "lower",
           "median ping round trip: the front-door and framing floor",
           layer="repro.batch.serving", moves="p50_ms on serve"),
    Metric("serve.engine_batch_ms", "ms", "lower",
           "median engine batch (BatchCompiler.compile on the "
           "dispatcher)", layer="repro.batch.serving",
           moves=f"{_COLD}"),
    Metric("serve.dispatch_wait_ms", "ms", "lower",
           "median cold handle span minus the engine batch that "
           "resolved it: queue wait, batch window, parse and encode",
           layer="repro.batch.serving",
           moves=f"{_COLD}"),
    Metric("serve.batches", "count", "lower",
           "micro-batches per round (stats op)",
           layer="repro.batch.serving", moves=_COLD,
           timing_dependent=True),
    Metric("serve.batch_size_mean", "count", "higher",
           "requests per micro-batch (stats op)",
           layer="repro.batch.serving", moves=_COLD,
           timing_dependent=True),
    Metric("serve.served_warm", "count", "higher",
           "requests answered from the warm path per round (stats op)",
           layer="repro.batch.serving", moves=f"{_HOT}"),
    Metric("serve.busy_rejections", "count", "lower",
           "busy rejections per round (stats op)",
           layer="repro.batch.serving", moves="p99_ms on serve"),
    Metric("serve.parse_per_request", "ratio", "lower",
           "server-side parses per compile request",
           layer="repro.batch.serving",
           moves=f"{_HOT}; {_COLD}"),
    Metric("serve.warm_p50_ms", "ms", "lower",
           "median round trip of warm requests, untraced",
           layer="repro.batch.serving", moves="p50_ms on serve"),
    Metric("serve.cold_p50_ms", "ms", "lower",
           "median round trip of cold requests, untraced",
           layer="repro.batch.serving", moves="p99_ms on serve"),
    Metric("trace.round_ms", "ms", "lower",
           "median traced round time (the bound on summed self times)",
           layer="perfbench", moves="all workloads"),
    Metric("trace.self_sum_ms", "ms", "lower",
           "median per round of every *.self_ms, cache.get_ms, "
           "cache.put_ms and engine.overhead_ms summed; never above "
           "trace.round_ms", layer="perfbench", moves="all workloads"),
    Metric("trace.overhead_pct", "%", "lower",
           "tracing overhead: untraced over traced ops_per_s, minus 1, "
           "in the same run", layer="perfbench", moves="all workloads",
           timing_dependent=True),
)

#: The per-layer metrics whose sum must fit in a traced round.
SELF_TIME_METRICS = tuple(
    metric.name for metric in PER_LAYER
    if metric.name.endswith(".self_ms")) + (
        "cache.get_ms", "cache.put_ms", "engine.overhead_ms")


def manifest_lists() -> dict:
    """The workload and metric lists ``BENCHMARK.json`` must carry."""
    return {
        "workloads": [workload.name for workload in WORKLOADS],
        "end_to_end": [(m.name, m.unit, m.better, m.bound)
                       for m in END_TO_END],
        "per_layer": [(m.name, m.unit, m.better) for m in PER_LAYER],
    }


def render() -> str:
    """Every workload and metric, by name, with its unit."""
    lines = ["workloads:"]
    for workload in WORKLOADS:
        lines.append(f"  {workload.name} (op = {workload.op})")
        lines.append(f"    round: {workload.round}")
        lines.append(f"    why:   {workload.why}")
    lines.append("end-to-end metrics (--trace 0; times and rates at the "
                 "reference host speed):")
    for metric in END_TO_END:
        lines.append(f"  {metric.name} [{metric.unit}] {metric.better} "
                     f"is better, bound {metric.bound:.0%}: "
                     f"{metric.description}")
    lines.append("per-layer metrics (--trace 1):")
    for metric in PER_LAYER:
        flag = " (timing-dependent)" if metric.timing_dependent else ""
        lines.append(f"  {metric.name} [{metric.unit}] {metric.layer}"
                     f"{flag}: {metric.description}; moves "
                     f"{metric.moves}")
    return "\n".join(lines)
