"""The experiments of the paper's Results section, plus ablations.

Experiment ids follow DESIGN.md:

* **EXP-S1** (:func:`run_statistical_comparison`) -- the paper's
  statistical analysis: best-pair merging vs naive arbitrary merging
  over random patterns and a grid of ``N``, ``M``, ``K``; the paper
  reports "about 40 %" average cost reduction.
* **EXP-S2** (:func:`marginalize`) -- the same data marginalized per
  parameter, showing where the heuristic helps most.
* **EXP-K1** (:func:`run_kernel_comparison`) -- optimized addressing vs
  a regular-C-compiler baseline on DSP kernels, both simulated; the
  paper cites up to 30 % code-size / 60 % speed potential from [1].
* **EXP-A1** (:func:`run_path_cover_ablation`) -- exact ``K~`` vs the
  greedy cover vs the matching lower bound.
* **EXP-A2** (:func:`run_cost_model_ablation`) -- merging under the
  literal intra-iteration ``C(P)`` vs the steady-state model.
* **EXP-A3** (:func:`run_merging_ablation`) -- best-pair vs naive vs
  the exhaustive optimum on small instances.

Every experiment is seeded and returns a frozen summary dataclass that
:func:`repro.analysis.reports.save_report` can archive.

Every experiment executes through the batch engine
(:class:`~repro.batch.engine.BatchCompiler`): EXP-K1 as per-kernel
compilation jobs, and every other experiment (EXP-S1, EXP-S3,
EXP-A1..A3, EXP-O1, EXP-X1..X3) as the registered
:class:`~repro.batch.jobs.ExperimentPointJob` points of
:mod:`repro.analysis.points`, via :func:`run_experiment`.  Every
registered ``run_*`` entry point therefore takes ``n_workers=``
(process-pool fan-out), ``cache=`` (persistent, resumable point
results), ``progress=`` (per-point streaming callback), and
``executor=`` (an explicit execution backend -- ``"tcp://host:port"``
runs the points on a multi-host worker fleet; see
:func:`~repro.batch.engine.open_executor`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.agu.model import AguSpec
from repro.analysis.stats import mean, percent_reduction
from repro.core.config import AllocatorConfig
from repro.errors import ExperimentError
from repro.merging.cost import CostModel
from repro.workloads.kernels import KERNELS


# ======================================================================
# EXP-S1 / EXP-S2: the paper's statistical analysis
# ======================================================================
@dataclass(frozen=True)
class StatisticalConfig:
    """Parameter grid of the statistical comparison (EXP-S1).

    Seeding scheme: grid point ``g`` draws its random patterns from
    ``seed + PATTERN_SEED_STRIDE * g`` and its naive-baseline merge
    orders from the independent stream ``naive_base +
    NAIVE_SEED_STRIDE * (g + 1)`` advanced by ``NAIVE_PATTERN_STRIDE *
    pattern_index + repeat`` per draw, where ``naive_base`` is
    ``naive_seed_base`` when set and ``seed`` otherwise (strides in
    :mod:`repro.batch.jobs`).  Every (grid point, pattern, repeat)
    combination therefore gets its own stream: the naive baselines are
    independent *across* grid points, not just within one, and never
    alias a pattern-generation stream.  Callers that repeat the grid
    (EXP-S3 runs it once per distribution) override ``naive_seed_base``
    so every repetition also draws baselines independent of the other
    repetitions', while the pattern streams stay paired.
    """

    n_values: tuple[int, ...] = (10, 15, 20, 30, 40)
    m_values: tuple[int, ...] = (1, 2, 4)
    k_values: tuple[int, ...] = (2, 3, 4)
    patterns_per_config: int = 30
    offset_span: int = 8
    distribution: str = "uniform"
    seed: int = 1998
    #: The naive baseline is randomized; each pattern's naive cost is
    #: the mean over this many independent merge orders.
    naive_repeats: int = 5
    #: Base of the naive-baseline seed streams; ``None`` means ``seed``
    #: (see the seeding scheme above).
    naive_seed_base: int | None = None
    cost_model: CostModel = CostModel.STEADY_STATE
    #: Phase-1 search limits (phase 1 is shared by both competitors).
    exact_cover_limit: int = 24
    cover_node_budget: int = 30_000

    def grid(self) -> list[tuple[int, int, int]]:
        """The (N, M, K) grid in enumeration order."""
        return [(n, m, k)
                for n in self.n_values
                for m in self.m_values
                for k in self.k_values]


@dataclass(frozen=True)
class StatisticalRow:
    """One grid point of EXP-S1."""

    n: int
    m: int
    k: int
    n_patterns: int
    mean_k_tilde: float
    #: Fraction of patterns where merging was needed at all (K~ > K).
    constrained_fraction: float
    mean_optimized: float
    mean_naive: float
    reduction_pct: float


@dataclass(frozen=True)
class StatisticalSummary:
    """EXP-S1 outcome: per-grid-point rows plus headline averages."""

    config: StatisticalConfig
    rows: tuple[StatisticalRow, ...]
    #: Unweighted mean of the per-row reductions (rows with naive > 0).
    average_reduction_pct: float
    #: Reduction of the summed cost over the whole grid.
    overall_reduction_pct: float
    elapsed_seconds: float
    #: Grid points computed this run vs served from the result cache.
    n_points_compiled: int = 0
    n_points_cached: int = 0


def run_statistical_comparison(
        config: StatisticalConfig | None = None, *,
        n_workers: int = 1, cache=None,
        progress=None, executor=None,
        trace=None) -> StatisticalSummary:
    """EXP-S1: reproduce the paper's ≈40 % average-reduction claim.

    Sharded through the batch engine (see :func:`run_experiment`): one
    cacheable job per (N, M, K) grid point, each carrying its own
    pattern and naive-baseline seeds (scheme on
    :class:`StatisticalConfig`).  The summary is bit-identical for any
    worker count, any executor, and for cached re-runs.
    """
    return run_experiment("stats", config, n_workers=n_workers,
                          cache=cache, progress=progress,
                          executor=executor, trace=trace)


def marginalize(summary, axis: str) -> list[StatisticalRow]:
    """EXP-S2: average EXP-S1 rows over all but one parameter.

    ``axis`` is ``"n"``, ``"m"`` or ``"k"``.  ``summary`` is a
    :class:`StatisticalSummary`, or directly an iterable of
    :class:`StatisticalRow`.  Returns synthetic rows whose other two
    parameters are set to -1 (meaning "all").
    """
    if axis not in ("n", "m", "k"):
        raise ExperimentError(f"axis must be 'n', 'm' or 'k', got {axis!r}")
    rows = list(getattr(summary, "rows", summary))
    buckets: dict[int, list[StatisticalRow]] = {}
    for row in rows:
        buckets.setdefault(getattr(row, axis), []).append(row)

    result = []
    for value in sorted(buckets):
        group = buckets[value]
        merged = StatisticalRow(
            n=value if axis == "n" else -1,
            m=value if axis == "m" else -1,
            k=value if axis == "k" else -1,
            n_patterns=sum(row.n_patterns for row in group),
            mean_k_tilde=mean([row.mean_k_tilde for row in group]),
            constrained_fraction=mean(
                [row.constrained_fraction for row in group]),
            mean_optimized=mean([row.mean_optimized for row in group]),
            mean_naive=mean([row.mean_naive for row in group]),
            reduction_pct=percent_reduction(
                mean([row.mean_naive for row in group]),
                mean([row.mean_optimized for row in group])),
        )
        result.append(merged)
    return result


# ======================================================================
# EXP-K1: DSP kernels vs the regular-C-compiler baseline
# ======================================================================
@dataclass(frozen=True)
class KernelComparisonConfig:
    """Configuration of the kernel comparison (EXP-K1)."""

    kernel_names: tuple[str, ...] = ()
    spec: AguSpec = AguSpec(4, 1, "kernel_eval")
    cost_model: CostModel = CostModel.STEADY_STATE
    #: Iterations for the simulator audit of both programs.
    simulate_iterations: int = 32
    #: Process-pool width of the underlying batch engine (1 = inline).
    n_workers: int = 1


@dataclass(frozen=True)
class KernelComparisonRow:
    """One kernel's baseline-vs-optimized accounting (per iteration)."""

    kernel: str
    n_accesses: int
    k_tilde: int | None
    registers_used: int
    #: Addressing instructions per iteration: baseline (= N) / optimized.
    baseline_overhead: int
    optimized_overhead: int
    overhead_reduction_pct: float
    #: Whole-iteration instruction counts (data ops + addressing):
    #: proxy for code size and cycles, as in the paper's [1] citation.
    baseline_instructions: int
    optimized_instructions: int
    speed_improvement_pct: float


@dataclass(frozen=True)
class KernelComparisonSummary:
    """EXP-K1 outcome: per-kernel rows plus headline means."""
    config: KernelComparisonConfig
    rows: tuple[KernelComparisonRow, ...]
    mean_overhead_reduction_pct: float
    mean_speed_improvement_pct: float
    elapsed_seconds: float


def run_kernel_comparison(
        config: KernelComparisonConfig | None = None,
) -> KernelComparisonSummary:
    """EXP-K1: addressing overhead on realistic kernels, audited.

    The suite runs through the batch engine
    (:class:`~repro.batch.engine.BatchCompiler`), one job per kernel
    with baseline measurement enabled.  Both the optimized and the
    baseline address programs are run on the AGU simulator, so every
    number in the table is backed by a verified address stream, not
    just the static model.
    """
    from repro.batch.engine import BatchCompiler
    from repro.batch.jobs import jobs_from_kernels

    if config is None:
        config = KernelComparisonConfig()
    names = config.kernel_names or tuple(sorted(KERNELS))
    started = time.perf_counter()

    jobs = jobs_from_kernels(
        names, config.spec, AllocatorConfig(cost_model=config.cost_model),
        n_iterations=config.simulate_iterations, include_baseline=True)
    report = BatchCompiler(n_workers=config.n_workers).compile(jobs)

    rows: list[KernelComparisonRow] = []
    for result in report.results:
        if not result.audit_ok:  # pragma: no cover - simulate() raises
            raise ExperimentError(
                f"kernel {result.name!r}: dynamic cost disagrees with "
                f"the model")
        n = result.n_accesses
        base_overhead = result.baseline_overhead
        assert base_overhead is not None
        opt_overhead = result.overhead_per_iteration
        # One data instruction per access carries the Use operand.
        base_total = n + base_overhead
        opt_total = n + opt_overhead
        rows.append(KernelComparisonRow(
            kernel=result.name, n_accesses=n, k_tilde=result.k_tilde,
            registers_used=result.n_registers_used,
            baseline_overhead=base_overhead,
            optimized_overhead=opt_overhead,
            overhead_reduction_pct=percent_reduction(base_overhead,
                                                     opt_overhead),
            baseline_instructions=base_total,
            optimized_instructions=opt_total,
            speed_improvement_pct=percent_reduction(base_total, opt_total),
        ))

    return KernelComparisonSummary(
        config=config, rows=tuple(rows),
        mean_overhead_reduction_pct=mean(
            [row.overhead_reduction_pct for row in rows]),
        mean_speed_improvement_pct=mean(
            [row.speed_improvement_pct for row in rows]),
        elapsed_seconds=time.perf_counter() - started,
    )


# ======================================================================
# The generic sharded experiment runner
# ======================================================================
def run_experiment(experiment: str, config=None, *, n_workers: int = 1,
                   cache=None, progress=None, executor=None, trace=None):
    """Run a registered experiment sharded through the batch engine.

    The uniform execution path behind every ``run_*`` ablation below:
    the experiment's points (see :mod:`repro.batch.registry` and
    :mod:`repro.analysis.points`) fan out over ``n_workers`` processes
    -- or over an explicit ``executor`` backend such as
    ``"tcp://host:port"`` (a multi-host worker fleet; see
    :func:`~repro.batch.engine.open_executor`) -- via
    :class:`~repro.batch.engine.BatchCompiler`, every computed
    point is persisted to ``cache`` the moment it exists (interrupted
    runs resume; warm re-runs recompute nothing), ``progress(done,
    total, result)`` fires per point, and the experiment's summary
    dataclass is reassembled from the streamed results bit-identically
    to what the retired sequential loops produced -- whatever executor
    computed them.  ``trace``, when given, records structured
    scheduling events (see :mod:`repro.batch.trace`) as JSONL.
    """
    import dataclasses as _dataclasses

    from repro.batch.engine import BatchCompiler
    from repro.batch.registry import experiment_point_jobs, get_experiment

    definition = get_experiment(experiment)
    if config is None:
        config = definition.default_config()
    started = time.perf_counter()
    jobs = experiment_point_jobs(definition, config)
    compiler = BatchCompiler(cache=cache, n_workers=n_workers,
                             executor=executor, trace=trace)

    results = [None] * len(jobs)
    done = 0
    for index, result in compiler.as_completed(jobs):
        results[index] = result
        done += 1
        if progress is not None:
            progress(done, len(jobs), result)
    assert all(result is not None for result in results)

    summary = definition.assemble(config, results)
    return _dataclasses.replace(
        summary,
        elapsed_seconds=time.perf_counter() - started,
        n_points_compiled=sum(1 for r in results if not r.from_cache),
        n_points_cached=sum(1 for r in results if r.from_cache))


# ======================================================================
# EXP-A1: path-cover ablation (LB vs exact vs greedy)
# ======================================================================
@dataclass(frozen=True)
class PathCoverAblationConfig:
    """Configuration of the path-cover ablation (EXP-A1).

    Seeding scheme: grid point ``g`` draws its patterns from ``seed +
    31 * g``; the experiment has no other randomness, so no further
    per-point stream separation is needed.
    """

    n_values: tuple[int, ...] = (8, 12, 16, 20, 24)
    m_values: tuple[int, ...] = (1, 2)
    patterns_per_config: int = 20
    offset_span: int = 6
    distribution: str = "uniform"
    seed: int = 424242
    node_budget: int = 200_000


@dataclass(frozen=True)
class PathCoverAblationRow:
    """One (N, M) grid point of EXP-A1."""
    n: int
    m: int
    n_patterns: int
    mean_lower_bound: float
    mean_k_tilde: float
    mean_greedy: float
    #: Fraction of instances where the bound/heuristic was tight.
    lb_tight_fraction: float
    greedy_tight_fraction: float
    exact_fraction: float
    mean_nodes: float
    mean_exact_ms: float
    mean_greedy_ms: float


@dataclass(frozen=True)
class PathCoverAblationSummary:
    """EXP-A1 outcome: per-grid-point rows."""
    config: PathCoverAblationConfig
    rows: tuple[PathCoverAblationRow, ...]
    elapsed_seconds: float
    #: Points computed this run vs served from the result cache.
    n_points_compiled: int = 0
    n_points_cached: int = 0


def run_path_cover_ablation(
        config: PathCoverAblationConfig | None = None, *,
        n_workers: int = 1, cache=None,
        progress=None, executor=None) -> PathCoverAblationSummary:
    """EXP-A1: how tight are the bounds, how costly is exactness.

    Sharded through the batch engine (see :func:`run_experiment`):
    one cacheable job per (N, M) grid point.
    """
    return run_experiment("pathcover", config, n_workers=n_workers,
                          cache=cache, progress=progress,
                          executor=executor)


# ======================================================================
# EXP-A2: cost-model ablation (INTRA vs STEADY_STATE)
# ======================================================================
@dataclass(frozen=True)
class CostModelAblationConfig:
    """Configuration of the cost-model ablation (EXP-A2).

    Seeding scheme: grid point ``g`` draws its patterns from ``seed +
    53 * g``; the experiment has no other randomness.
    """

    n_values: tuple[int, ...] = (10, 20, 30)
    m_values: tuple[int, ...] = (1, 2)
    k_values: tuple[int, ...] = (2, 3)
    patterns_per_config: int = 20
    offset_span: int = 8
    seed: int = 777
    exact_cover_limit: int = 24
    cover_node_budget: int = 30_000


@dataclass(frozen=True)
class CostModelAblationRow:
    """Steady-state cost actually paid, depending on the model used
    while merging."""

    n: int
    m: int
    k: int
    n_patterns: int
    mean_steady_when_merged_intra: float
    mean_steady_when_merged_steady: float
    penalty_pct: float


@dataclass(frozen=True)
class CostModelAblationSummary:
    """EXP-A2 outcome: per-grid-point rows plus the mean penalty."""
    config: CostModelAblationConfig
    rows: tuple[CostModelAblationRow, ...]
    mean_penalty_pct: float
    elapsed_seconds: float
    #: Points computed this run vs served from the result cache.
    n_points_compiled: int = 0
    n_points_cached: int = 0


def run_cost_model_ablation(
        config: CostModelAblationConfig | None = None, *,
        n_workers: int = 1, cache=None,
        progress=None, executor=None) -> CostModelAblationSummary:
    """EXP-A2: merging with the literal intra-only ``C(P)`` leaves the
    wrap-around costs on the table; quantify how much.

    Sharded through the batch engine (see :func:`run_experiment`):
    one cacheable job per (N, M, K) grid point.
    """
    return run_experiment("costmodel", config, n_workers=n_workers,
                          cache=cache, progress=progress,
                          executor=executor)


# ======================================================================
# EXP-A3: merging-strategy ablation incl. the exhaustive optimum
# ======================================================================
@dataclass(frozen=True)
class MergingAblationConfig:
    """Configuration of the merging-strategy ablation (EXP-A3).

    Seeding scheme: grid point ``g`` draws its patterns from ``seed +
    97 * g``; the randomized naive baseline of pattern ``p`` draws its
    merge order from ``naive_baseline_seed(seed + NAIVE_SEED_STRIDE *
    (g + 1), p, 0)`` (strides in :mod:`repro.batch.jobs`), so naive
    merge orders are independent across grid points and never alias a
    pattern stream.  (An earlier scheme seeded the baseline with
    ``seed + p`` alone, which replayed one merge-order stream on every
    grid point -- and aliased the point-0 pattern stream -- the same
    seed-reuse bug fixed for EXP-S1 in the sharded grid.)
    """

    n_values: tuple[int, ...] = (8, 10, 12)
    m_values: tuple[int, ...] = (1, 2)
    k_values: tuple[int, ...] = (2, 3)
    patterns_per_config: int = 15
    offset_span: int = 6
    seed: int = 31337
    cost_model: CostModel = CostModel.STEADY_STATE


@dataclass(frozen=True)
class MergingAblationRow:
    """One (N, M, K) grid point of EXP-A3."""
    n: int
    m: int
    k: int
    n_patterns: int
    mean_optimal: float
    mean_best_pair: float
    mean_naive_random: float
    mean_naive_first: float
    #: Fraction of instances where best-pair merging hits the optimum.
    best_pair_optimal_fraction: float
    #: Mean relative gap of best-pair over the optimum (on instances
    #: with a positive optimum).
    best_pair_gap_pct: float


@dataclass(frozen=True)
class MergingAblationSummary:
    """EXP-A3 outcome: per-grid-point rows."""
    config: MergingAblationConfig
    rows: tuple[MergingAblationRow, ...]
    elapsed_seconds: float
    #: Points computed this run vs served from the result cache.
    n_points_compiled: int = 0
    n_points_cached: int = 0


def run_merging_ablation(
        config: MergingAblationConfig | None = None, *,
        n_workers: int = 1, cache=None,
        progress=None, executor=None) -> MergingAblationSummary:
    """EXP-A3: position the paper's heuristic between naive and optimal.

    Sharded through the batch engine (see :func:`run_experiment`):
    one cacheable job per (N, M, K) grid point, each carrying its own
    pattern and naive-baseline seeds (scheme on
    :class:`MergingAblationConfig`).
    """
    return run_experiment("merging", config, n_workers=n_workers,
                          cache=cache, progress=progress,
                          executor=executor)


# ======================================================================
# EXP-O1: offset-assignment substrate (the paper's refs [4, 5])
# ======================================================================
@dataclass(frozen=True)
class OffsetComparisonConfig:
    """Configuration of the offset-assignment comparison (EXP-O1).

    Seeding scheme: grid point ``g`` (one (V, length) pair) draws
    sequence ``i`` from ``seed + 1009 * g + i`` -- the 1009 stride
    keeps per-point sequence streams disjoint for up to 1009 sequences
    per point; the experiment has no other randomness.
    """

    v_values: tuple[int, ...] = (5, 8, 12, 16)
    length_values: tuple[int, ...] = (20, 40)
    sequences_per_config: int = 25
    locality: float = 0.5
    seed: int = 4242
    #: Exhaustive optimum is included for variable counts up to this.
    optimal_limit: int = 8
    goa_k_values: tuple[int, ...] = (2, 4)


@dataclass(frozen=True)
class OffsetSoaRow:
    """One (V, length) SOA grid point of EXP-O1."""
    n_variables: int
    length: int
    n_sequences: int
    mean_ofu: float
    mean_liao: float
    mean_tiebreak: float
    liao_reduction_pct: float
    tiebreak_reduction_pct: float
    mean_optimal: float | None


@dataclass(frozen=True)
class OffsetGoaRow:
    """One (V, length, K) GOA grid point of EXP-O1."""
    n_variables: int
    length: int
    k: int
    n_sequences: int
    mean_first_use: float
    mean_greedy: float
    reduction_pct: float


@dataclass(frozen=True)
class OffsetComparisonSummary:
    """EXP-O1 outcome: SOA and GOA rows plus headline means."""
    config: OffsetComparisonConfig
    soa_rows: tuple[OffsetSoaRow, ...]
    goa_rows: tuple[OffsetGoaRow, ...]
    mean_liao_reduction_pct: float
    mean_tiebreak_reduction_pct: float
    elapsed_seconds: float
    #: Points computed this run vs served from the result cache.
    n_points_compiled: int = 0
    n_points_cached: int = 0


def run_offset_comparison(
        config: OffsetComparisonConfig | None = None, *,
        n_workers: int = 1, cache=None,
        progress=None, executor=None) -> OffsetComparisonSummary:
    """EXP-O1: SOA heuristics vs the OFU baseline (and GOA over k ARs).

    Context for the paper's "complementary" citation of refs [4, 5]:
    scalar-variable addressing benefits from the same AGU hardware via
    layout choice rather than register assignment.  Sharded through
    the batch engine (see :func:`run_experiment`): one cacheable job
    per (V, length) grid point, covering its SOA row and GOA rows.
    """
    return run_experiment("offset", config, n_workers=n_workers,
                          cache=cache, progress=progress,
                          executor=executor)


# ======================================================================
# EXP-X1: the modify-register extension
# ======================================================================
@dataclass(frozen=True)
class ModRegAblationConfig:
    """Configuration of the modify-register ablation (EXP-X1).

    Seeding scheme: grid pair ``g`` (one (N, K) combination) draws its
    patterns from ``seed + 1013 * g``; all ``mr_values`` points of one
    pair share that pattern family deliberately, so the MR sweep is
    paired.  The experiment has no other randomness.
    """

    n_values: tuple[int, ...] = (15, 25)
    k_values: tuple[int, ...] = (2, 3)
    mr_values: tuple[int, ...] = (0, 1, 2, 4)
    modify_range: int = 1
    patterns_per_config: int = 20
    offset_span: int = 10
    seed: int = 90210
    exact_cover_limit: int = 24
    cover_node_budget: int = 30_000


@dataclass(frozen=True)
class ModRegAblationRow:
    """One (N, K, MR) grid point of EXP-X1."""
    n: int
    k: int
    n_modify_registers: int
    n_patterns: int
    mean_cost: float
    #: Reduction vs the same config with zero modify registers.
    reduction_vs_no_mr_pct: float


@dataclass(frozen=True)
class ModRegAblationSummary:
    """EXP-X1 outcome: per-point rows."""
    config: ModRegAblationConfig
    rows: tuple[ModRegAblationRow, ...]
    elapsed_seconds: float
    #: Points computed this run vs served from the result cache.
    n_points_compiled: int = 0
    n_points_cached: int = 0


def run_modreg_ablation(
        config: ModRegAblationConfig | None = None, *,
        n_workers: int = 1, cache=None,
        progress=None, executor=None) -> ModRegAblationSummary:
    """EXP-X1: addressing cost vs the number of modify registers.

    Extension experiment (not in the paper): quantifies how much of the
    residual unit-cost addressing an MR file of growing size recovers,
    using exact per-allocation value selection plus iterative
    re-merging (:mod:`repro.modreg`).  Sharded through the batch
    engine (see :func:`run_experiment`): one cacheable job per
    (N, K, MR) point; the reduction-vs-no-MR column is reassembled
    against each (N, K) pair's MR=0 point.
    """
    return run_experiment("modreg", config, n_workers=n_workers,
                          cache=cache, progress=progress,
                          executor=executor)


# ======================================================================
# EXP-X2: the access-reordering extension
# ======================================================================
@dataclass(frozen=True)
class ReorderAblationConfig:
    """Configuration of the access-reordering ablation (EXP-X2).

    Seeding scheme: grid point ``g`` draws its patterns from ``seed +
    211 * g``; the experiment has no other randomness.
    """

    n_values: tuple[int, ...] = (8, 12, 16)
    k_values: tuple[int, ...] = (2, 3)
    modify_range: int = 1
    write_fraction: float = 0.4
    patterns_per_config: int = 12
    offset_span: int = 6
    seed: int = 60606


@dataclass(frozen=True)
class ReorderAblationRow:
    """One (N, K) grid point of EXP-X2."""
    n: int
    k: int
    n_patterns: int
    mean_fixed_order: float
    mean_reordered: float
    reduction_pct: float
    #: Fraction of instances where reordering changed the order at all.
    reordered_fraction: float


@dataclass(frozen=True)
class ReorderAblationSummary:
    """EXP-X2 outcome: per-grid-point rows plus the mean reduction."""
    config: ReorderAblationConfig
    rows: tuple[ReorderAblationRow, ...]
    mean_reduction_pct: float
    elapsed_seconds: float
    #: Points computed this run vs served from the result cache.
    n_points_compiled: int = 0
    n_points_cached: int = 0


def run_reorder_ablation(
        config: ReorderAblationConfig | None = None, *,
        n_workers: int = 1, cache=None,
        progress=None, executor=None) -> ReorderAblationSummary:
    """EXP-X2: what scheduling freedom buys on top of the paper.

    Extension experiment (not in the paper): random patterns with
    writes (so real dependences exist) are allocated with the paper's
    fixed access order and with the reordering extension; the reordered
    cost can never be worse by construction.  Sharded through the
    batch engine (see :func:`run_experiment`): one cacheable job per
    (N, K) grid point.
    """
    return run_experiment("reorder", config, n_workers=n_workers,
                          cache=cache, progress=progress,
                          executor=executor)


# ======================================================================
# EXP-X3: the array-layout extension
# ======================================================================
@dataclass(frozen=True)
class ArrayLayoutAblationConfig:
    """Configuration of the array-layout ablation (EXP-X3).

    Seeding scheme: grid point ``g`` draws its patterns from ``seed +
    307 * g``; the experiment has no other randomness.
    """

    n_values: tuple[int, ...] = (10, 16)
    k_values: tuple[int, ...] = (1, 2)
    n_arrays: int = 3
    #: Short arrays so cross-array folding is geometrically possible.
    array_length: int = 8
    offset_span: int = 6
    modify_range: int = 1
    patterns_per_config: int = 15
    seed: int = 515151


@dataclass(frozen=True)
class ArrayLayoutAblationRow:
    """One (N, K) grid point of EXP-X3."""
    n: int
    k: int
    n_patterns: int
    mean_default: float
    mean_optimized: float
    reduction_pct: float


@dataclass(frozen=True)
class ArrayLayoutAblationSummary:
    """EXP-X3 outcome: per-grid-point rows plus the mean reduction."""
    config: ArrayLayoutAblationConfig
    rows: tuple[ArrayLayoutAblationRow, ...]
    mean_reduction_pct: float
    elapsed_seconds: float
    #: Points computed this run vs served from the result cache.
    n_points_compiled: int = 0
    n_points_cached: int = 0


def run_array_layout_ablation(
        config: ArrayLayoutAblationConfig | None = None, *,
        n_workers: int = 1, cache=None,
        progress=None, executor=None) -> ArrayLayoutAblationSummary:
    """EXP-X3: what choosing array base addresses buys.

    Extension experiment (ref [1]'s layout angle, not in the paper):
    multi-array random patterns are allocated once; their cost is then
    evaluated under the reference guard-gap layout vs the optimized
    placement of :mod:`repro.arraylayout`.  Sharded through the batch
    engine (see :func:`run_experiment`): one cacheable job per (N, K)
    grid point.
    """
    return run_experiment("arraylayout", config, n_workers=n_workers,
                          cache=cache, progress=progress,
                          executor=executor)


# ======================================================================
# EXP-S3: distribution sensitivity of the headline claim
# ======================================================================
@dataclass(frozen=True)
class DistributionSensitivityConfig:
    """Configuration of the distribution sensitivity run (EXP-S3).

    Seeding scheme: distribution ``d`` repeats the EXP-S1 grid with the
    shared pattern base ``seed`` (pattern families stay paired across
    distributions -- only the distribution differs) but its own
    naive-baseline base ``seed + NAIVE_SEED_STRIDE *
    DISTRIBUTION_SEED_SPAN * (d + 1)`` (constants in
    :mod:`repro.batch.jobs`), so each repetition draws merge orders
    independent of every other's.  (An earlier scheme reused the plain
    base seed, which replayed identical "independent" baseline streams
    on all four distributions.)
    """

    distributions: tuple[str, ...] = ("uniform", "clustered", "sweep",
                                      "mixed")
    #: Base grid, scaled down per distribution to keep runtime bounded.
    n_values: tuple[int, ...] = (15, 30)
    m_values: tuple[int, ...] = (1, 2)
    k_values: tuple[int, ...] = (2, 3)
    patterns_per_config: int = 20
    seed: int = 271828


@dataclass(frozen=True)
class DistributionSensitivityRow:
    """One offset distribution's EXP-S1 repetition, summarized."""
    distribution: str
    average_reduction_pct: float
    overall_reduction_pct: float
    mean_optimized: float
    mean_naive: float


@dataclass(frozen=True)
class DistributionSensitivitySummary:
    """EXP-S3 outcome: one row per offset distribution."""
    config: DistributionSensitivityConfig
    rows: tuple[DistributionSensitivityRow, ...]
    elapsed_seconds: float
    #: Points computed this run vs served from the result cache.
    n_points_compiled: int = 0
    n_points_cached: int = 0


def run_distribution_sensitivity(
        config: DistributionSensitivityConfig | None = None, *,
        n_workers: int = 1, cache=None,
        progress=None, executor=None) -> DistributionSensitivitySummary:
    """EXP-S3: is the ≈40 % claim an artifact of one offset shape?

    Repeats EXP-S1 under every offset distribution of the random
    generator.  The paper does not specify its distribution; a robust
    reproduction should win under all of them.  Sharded through the
    batch engine (see :func:`run_experiment`): one cacheable job per
    (distribution, N, M, K) point; ``progress`` counts points across
    all distributions.
    """
    return run_experiment("distributions", config, n_workers=n_workers,
                          cache=cache, progress=progress,
                          executor=executor)


def quick_statistical_config() -> StatisticalConfig:
    """A scaled-down EXP-S1 grid for smoke tests and CI."""
    return StatisticalConfig(
        n_values=(10, 20), m_values=(1, 2), k_values=(2, 3),
        patterns_per_config=8, naive_repeats=3)
