"""The experiment table: the ten per-point experiment definitions
(EXP-S1, EXP-S3, EXP-K1, EXP-A1..A3, EXP-O1, EXP-X1..X3) and the batch
jobs that run their points.

An :class:`ExperimentDefinition` is what lets the batch engine shard an
experiment without knowing anything about it:

* ``enumerate_points(config)`` lowers a config to an ordered list of
  JSON-able parameter dicts -- one per independently computable,
  cacheable point.  Everything a point's outcome depends on (grid
  coordinates, *derived seeds*, allocator/solver settings, or for
  EXP-K1 the kernel's source text) must appear in its params, because
  the params are the point's cache identity (see
  :meth:`ExperimentPointJob.cache_key`).
* ``run_point(params)`` computes one point and returns its measured
  values as a JSON-able dict.  It must be a pure function of its
  params: no hidden config, no shared RNG state.  This is what runs
  inside pool workers.
* ``assemble(config, results)`` folds the streamed
  :class:`ExperimentPointResult`s (in enumeration order) back into the
  experiment's summary dataclass -- bit-identically, whatever mix of
  workers and cache hits produced them.

:data:`EXPERIMENTS` holds the ten definitions in the paper's order, and
:func:`experiment_point_jobs` turns (definition, config) into the
picklable point jobs (:class:`ExperimentPointJob`) that
:class:`~repro.batch.engine.BatchCompiler` runs.  A job carries its
experiment's id, not a function: a freshly spawned worker that
unpickles one imports this module, and with it the table.

Adding a new experiment is: write the three functions above, and add
an :class:`ExperimentDefinition` entry to :data:`EXPERIMENTS`.  The
generic runner (:func:`repro.analysis.experiments.run_experiment`),
the ``repro-agu experiment`` CLI, the Markdown report, worker fan-out,
and every cache backend then work unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.agu.model import AguSpec
from repro.analysis import render
from repro.analysis.experiments import (
    ArrayLayoutAblationConfig,
    ArrayLayoutAblationRow,
    ArrayLayoutAblationSummary,
    CostModelAblationConfig,
    CostModelAblationRow,
    CostModelAblationSummary,
    DistributionSensitivityConfig,
    DistributionSensitivityRow,
    DistributionSensitivitySummary,
    KernelComparisonConfig,
    KernelComparisonRow,
    KernelComparisonSummary,
    MergingAblationConfig,
    MergingAblationRow,
    MergingAblationSummary,
    ModRegAblationConfig,
    ModRegAblationRow,
    ModRegAblationSummary,
    OffsetComparisonConfig,
    OffsetGoaRow,
    OffsetComparisonSummary,
    OffsetSoaRow,
    PathCoverAblationConfig,
    PathCoverAblationRow,
    PathCoverAblationSummary,
    ReorderAblationConfig,
    ReorderAblationRow,
    ReorderAblationSummary,
    StatisticalConfig,
    StatisticalRow,
    StatisticalSummary,
    quick_statistical_config,
)
from repro.analysis.stats import mean, percent_reduction
from repro.batch.digest import DIGEST_VERSION, job_digest
from repro.batch.jobs import (
    DISTRIBUTION_SEED_SPAN,
    NAIVE_SEED_STRIDE,
    PATTERN_SEED_STRIDE,
    BatchJob,
    CacheableResult,
    naive_baseline_seed,
    statistical_point,
)
from repro.core.allocator import AddressRegisterAllocator
from repro.core.config import AllocatorConfig
from repro.errors import BatchError, ExperimentError
from repro.graph.access_graph import cached_access_graph
from repro.merging.cost import CostModel, cover_cost
from repro.merging.exhaustive import optimal_allocation
from repro.merging.greedy import best_pair_merge
from repro.merging.naive import naive_merge
from repro.pathcover.branch_and_bound import minimum_zero_cost_cover
from repro.pathcover.heuristic import greedy_zero_cost_cover
from repro.pathcover.lower_bound import intra_cover_lower_bound
from repro.workloads.kernels import KERNELS, get_kernel
from repro.workloads.random_patterns import (
    DISTRIBUTIONS,
    RandomPatternConfig,
    generate_batch,
)
from repro.workloads.suite import suite_kernels


# ======================================================================
# The contract, and one experiment point as a batch job
# ======================================================================
@dataclass(frozen=True)
class ExperimentDefinition:
    """Everything the engine, the CLI and the report need to run one
    experiment."""

    #: Stable id (also the CLI name); enters every point digest, so
    #: renaming an experiment invalidates its cache entries.
    experiment: str
    #: One-line human description (CLI listings, report sections).
    title: str
    #: The frozen config dataclass this experiment is parameterized by.
    config_type: type
    #: The experiment's full-size default configuration.
    default_config: Callable[[], Any]
    #: A scaled-down configuration for smokes, tests, and CI.
    quick_config: Callable[[], Any]
    #: config -> ordered JSON-able params dicts, one per point.
    enumerate_points: Callable[[Any], Sequence[dict]]
    #: params -> JSON-able measured values for one point.
    run_point: Callable[[dict], dict]
    #: (config, results in enumeration order) -> summary dataclass.
    assemble: Callable[[Any, Sequence[Any]], Any]
    #: point params -> the point's display label (job names).
    point_label: Callable[[dict], str]
    #: summary -> renderable tables (CLI and report).
    render: Callable[[Any], tuple]
    #: summary -> one-line headline (optional; CLI and report).
    headline: Callable[[Any], str] | None = None


@dataclass(frozen=True)
class ExperimentPointResult(CacheableResult):
    """One experiment point's measurements (picklable, JSON-able).

    What the engine caches and streams for an
    :class:`ExperimentPointJob`.  ``values`` holds whatever the
    experiment's point function measured, already in JSON-canonical
    form (dicts, lists, scalars -- see
    :meth:`ExperimentPointJob.execute`), so a result rebuilt from any
    cache backend is bit-identical to the freshly computed one.
    """

    name: str
    digest: str
    #: Id of the experiment this point belongs to.
    experiment: str
    #: Position in the *current* enumeration.  Display metadata, like
    #: ``name``: excluded from the cache payload and rebuilt from the
    #: job being served, so a cache hit against a reordered grid never
    #: replays a stale position.
    index: int
    #: The point function's measurements, JSON-canonical.
    values: dict
    wall_seconds: float
    from_cache: bool = False

    def payload(self) -> dict:
        """The cache payload, minus the display metadata (name, index).
        """
        record = super().payload()
        del record["name"]
        del record["index"]
        return record

    @classmethod
    def from_payload(cls, payload: dict, job):
        """Rebuild from a payload; display metadata comes from ``job``.
        """
        try:
            return cls(**{**payload, "name": job.name, "index": job.index,
                          "from_cache": True})
        except TypeError:
            return None


@dataclass(frozen=True)
class ExperimentPointJob:
    """One point of an experiment of :data:`EXPERIMENTS` as a cacheable
    batch job.

    Self-contained and picklable: ``experiment`` names an
    :class:`ExperimentDefinition` (resolved at execution time, so the
    job itself stays a plain data record across process boundaries)
    and ``params`` carries everything that point's outcome depends on
    -- grid coordinates, derived seeds, and allocator/solver settings,
    all JSON-able.  The content digest covers the experiment id and the
    params; ``name`` and ``index`` are display/ordering metadata and
    deliberately excluded, so relabeled or re-enumerated points keep
    hitting the same cache entries.
    """

    name: str
    experiment: str
    index: int
    params: dict = field(default_factory=dict)
    #: The digest the engine computed, as on
    #: :class:`~repro.batch.jobs.BatchJob`.
    digest: str | None = field(default=None, init=False, repr=False,
                               compare=False)

    result_type = ExperimentPointResult

    def cache_key(self) -> dict:
        """The digest payload: experiment id + point parameters."""
        return {"v": DIGEST_VERSION,
                "experiment": f"exp-point/{self.experiment}",
                "params": self.params}

    def execute(self) -> ExperimentPointResult:
        """Run this point on the calling process.

        The measured values are canonicalized through a JSON round
        trip, so the cold path hands back exactly what a cache hit
        would (a point function returning anything JSON cannot encode
        fails loudly here instead of corrupting the cache).
        """
        started = time.perf_counter()
        definition = get_experiment(self.experiment)
        values: Any = definition.run_point(dict(self.params))
        values = json.loads(json.dumps(values, sort_keys=True))
        if not isinstance(values, dict):
            raise BatchError(
                f"experiment {self.experiment!r}: point function must "
                f"return a dict of values, got {type(values).__name__}")
        return ExperimentPointResult(
            name=self.name,
            digest=self.digest if self.digest is not None
            else job_digest(self),
            experiment=self.experiment, index=self.index, values=values,
            wall_seconds=time.perf_counter() - started)


# ======================================================================
# EXP-S1: the paper's statistical comparison (best-pair vs naive)
# ======================================================================
def _stats_points(config: StatisticalConfig) -> list[dict]:
    naive_base = config.naive_seed_base \
        if config.naive_seed_base is not None else config.seed
    return [
        {"n": n, "m": m, "k": k, "patterns": config.patterns_per_config,
         "offset_span": config.offset_span,
         "distribution": config.distribution,
         "pattern_seed": config.seed + PATTERN_SEED_STRIDE * grid_index,
         "naive_seed": naive_base + NAIVE_SEED_STRIDE * (grid_index + 1),
         "naive_repeats": config.naive_repeats,
         "cost_model": config.cost_model.value,
         "exact_cover_limit": config.exact_cover_limit,
         "cover_node_budget": config.cover_node_budget}
        for grid_index, (n, m, k) in enumerate(config.grid())
    ]


def _stats_rows(results) -> tuple[tuple[StatisticalRow, ...], float,
                                  float]:
    """EXP-S1 rows plus the average and the overall (cost-weighted)
    reduction over one grid's point results, in grid order."""
    rows = []
    sum_optimized = 0.0
    sum_naive = 0.0
    for result in results:
        values = dict(result.values)
        sum_optimized += values.pop("sum_optimized")
        sum_naive += values.pop("sum_naive")
        rows.append(StatisticalRow(
            **values, reduction_pct=percent_reduction(
                values["mean_naive"], values["mean_optimized"])))
    informative = [row.reduction_pct for row in rows if row.mean_naive > 0]
    average = mean(informative) if informative else 0.0
    return tuple(rows), average, percent_reduction(sum_naive,
                                                   sum_optimized)


# ======================================================================
# EXP-S3: EXP-S1 once per offset distribution
# ======================================================================
def _distribution_points(
        config: DistributionSensitivityConfig) -> list[dict]:
    # One EXP-S1 grid per distribution: paired pattern streams, but
    # each its own naive-baseline base (scheme on the config).
    return [
        params
        for dist_index, distribution in enumerate(config.distributions)
        for params in _stats_points(StatisticalConfig(
            n_values=config.n_values, m_values=config.m_values,
            k_values=config.k_values,
            patterns_per_config=config.patterns_per_config,
            distribution=distribution, seed=config.seed,
            naive_seed_base=config.seed + NAIVE_SEED_STRIDE
            * DISTRIBUTION_SEED_SPAN * (dist_index + 1)))
    ]


def _distribution_assemble(config: DistributionSensitivityConfig,
                           results) -> DistributionSensitivitySummary:
    grid_size = len(results) // len(config.distributions)
    rows = []
    for dist_index, distribution in enumerate(config.distributions):
        stats_rows, average, overall = _stats_rows(
            results[grid_size * dist_index:grid_size * (dist_index + 1)])
        rows.append(DistributionSensitivityRow(
            distribution=distribution,
            average_reduction_pct=average,
            overall_reduction_pct=overall,
            mean_optimized=mean([row.mean_optimized
                                 for row in stats_rows]),
            mean_naive=mean([row.mean_naive for row in stats_rows])))
    return DistributionSensitivitySummary(config, tuple(rows), 0.0)


# ======================================================================
# EXP-K1: DSP kernels vs the regular-C-compiler baseline
# ======================================================================
def _kernel_points(config: KernelComparisonConfig) -> list[dict]:
    return [
        {"kernel": name, "source": get_kernel(name).source,
         "spec": dataclasses.asdict(config.spec),
         "cost_model": config.cost_model.value,
         "simulate_iterations": config.simulate_iterations}
        for name in config.kernel_names or sorted(KERNELS)
    ]


def _kernel_point(params: dict) -> dict:
    # Both the optimized and the baseline address programs run on the
    # AGU simulator, so every number is backed by a verified stream.
    result = BatchJob(
        name=params["kernel"], spec=AguSpec(**params["spec"]),
        config=AllocatorConfig(cost_model=CostModel(params["cost_model"])),
        source=params["source"],
        n_iterations=params["simulate_iterations"],
        include_baseline=True).execute()
    if not result.audit_ok:  # pragma: no cover - simulate() raises
        raise ExperimentError(
            f"kernel {result.name!r}: dynamic cost disagrees with the "
            f"model")
    n = result.n_accesses
    base_overhead = result.baseline_overhead
    opt_overhead = result.overhead_per_iteration
    # One data instruction per access carries the Use operand.
    base_total = n + base_overhead
    opt_total = n + opt_overhead
    return {"kernel": result.name, "n_accesses": n,
            "k_tilde": result.k_tilde,
            "registers_used": result.n_registers_used,
            "baseline_overhead": base_overhead,
            "optimized_overhead": opt_overhead,
            "overhead_reduction_pct": percent_reduction(base_overhead,
                                                        opt_overhead),
            "baseline_instructions": base_total,
            "optimized_instructions": opt_total,
            "speed_improvement_pct": percent_reduction(base_total,
                                                       opt_total)}


def _kernel_assemble(config: KernelComparisonConfig,
                     results) -> KernelComparisonSummary:
    rows = tuple(KernelComparisonRow(**result.values)
                 for result in results)
    return KernelComparisonSummary(
        config, rows,
        mean_overhead_reduction_pct=mean(
            [row.overhead_reduction_pct for row in rows]),
        mean_speed_improvement_pct=mean(
            [row.speed_improvement_pct for row in rows]),
        elapsed_seconds=0.0)


# ======================================================================
# EXP-A1: path-cover ablation (LB vs exact vs greedy)
# ======================================================================
def _pathcover_points(config: PathCoverAblationConfig) -> list[dict]:
    return [
        {"n": n, "m": m, "patterns": config.patterns_per_config,
         "offset_span": config.offset_span,
         "distribution": config.distribution,
         "seed": config.seed + 31 * grid_index,
         "node_budget": config.node_budget}
        for grid_index, (n, m) in enumerate(
            (n, m) for n in config.n_values for m in config.m_values)
    ]


def _pathcover_point(params: dict) -> dict:
    n, m = params["n"], params["m"]
    patterns = generate_batch(
        RandomPatternConfig(n, offset_span=params["offset_span"],
                            distribution=params["distribution"]),
        params["patterns"], seed=params["seed"])
    lbs, exacts, greedies, nodes = [], [], [], []
    exact_ms, greedy_ms = [], []
    lb_tight = greedy_tight = proven = 0
    for pattern in patterns:
        # This graph serves the bound and the greedy cover; the exact
        # cover below builds its own, per group, inside its timing.
        graph = cached_access_graph(pattern, m)
        lb = intra_cover_lower_bound(graph)

        t0 = time.perf_counter()
        greedy = greedy_zero_cost_cover(graph)
        greedy_ms.append(1000 * (time.perf_counter() - t0))

        t0 = time.perf_counter()
        outcome = minimum_zero_cost_cover(
            pattern, m, node_budget=params["node_budget"])
        exact_ms.append(1000 * (time.perf_counter() - t0))

        lbs.append(float(lb))
        exacts.append(float(outcome.k_tilde))
        greedies.append(float(greedy.n_paths))
        nodes.append(float(outcome.nodes_explored))
        lb_tight += lb == outcome.k_tilde
        greedy_tight += greedy.n_paths == outcome.k_tilde
        proven += outcome.optimal
    count = len(patterns)
    return {"n": n, "m": m, "n_patterns": count,
            "mean_lower_bound": mean(lbs), "mean_k_tilde": mean(exacts),
            "mean_greedy": mean(greedies),
            "lb_tight_fraction": lb_tight / count,
            "greedy_tight_fraction": greedy_tight / count,
            "exact_fraction": proven / count,
            "mean_nodes": mean(nodes),
            "mean_exact_ms": mean(exact_ms),
            "mean_greedy_ms": mean(greedy_ms)}


def _pathcover_assemble(config: PathCoverAblationConfig,
                        results) -> PathCoverAblationSummary:
    rows = tuple(PathCoverAblationRow(**result.values)
                 for result in results)
    return PathCoverAblationSummary(config, rows, 0.0)


# ======================================================================
# EXP-A2: cost-model ablation (INTRA vs STEADY_STATE)
# ======================================================================
def _costmodel_points(config: CostModelAblationConfig) -> list[dict]:
    return [
        {"n": n, "m": m, "k": k, "patterns": config.patterns_per_config,
         "offset_span": config.offset_span,
         "seed": config.seed + 53 * grid_index,
         "exact_cover_limit": config.exact_cover_limit,
         "cover_node_budget": config.cover_node_budget}
        for grid_index, (n, m, k) in enumerate(
            (n, m, k) for n in config.n_values for m in config.m_values
            for k in config.k_values)
    ]


def _costmodel_point(params: dict) -> dict:
    n, m, k = params["n"], params["m"], params["k"]
    allocator = AddressRegisterAllocator(AguSpec(k, m), AllocatorConfig(
        exact_cover_limit=params["exact_cover_limit"],
        cover_node_budget=params["cover_node_budget"]))
    patterns = generate_batch(
        RandomPatternConfig(n, offset_span=params["offset_span"]),
        params["patterns"], seed=params["seed"])
    steady_costs_intra, steady_costs_steady = [], []
    for pattern in patterns:
        cover, _kt, _feasible, _optimal = allocator.initial_cover(pattern)
        if cover.n_paths <= k:
            cost = float(cover_cost(cover, pattern, m,
                                    CostModel.STEADY_STATE))
            steady_costs_intra.append(cost)
            steady_costs_steady.append(cost)
            continue
        merged_intra = best_pair_merge(cover, k, pattern, m,
                                       CostModel.INTRA)
        merged_steady = best_pair_merge(cover, k, pattern, m,
                                        CostModel.STEADY_STATE)
        steady_costs_intra.append(float(cover_cost(
            merged_intra.cover, pattern, m, CostModel.STEADY_STATE)))
        steady_costs_steady.append(float(merged_steady.total_cost))
    mean_intra = mean(steady_costs_intra)
    mean_steady = mean(steady_costs_steady)
    return {"n": n, "m": m, "k": k, "n_patterns": len(patterns),
            "mean_steady_when_merged_intra": mean_intra,
            "mean_steady_when_merged_steady": mean_steady,
            "penalty_pct": percent_reduction(mean_intra, mean_steady)}


def _costmodel_assemble(config: CostModelAblationConfig,
                        results) -> CostModelAblationSummary:
    rows = tuple(CostModelAblationRow(**result.values)
                 for result in results)
    return CostModelAblationSummary(
        config, rows,
        mean_penalty_pct=mean([row.penalty_pct for row in rows]),
        elapsed_seconds=0.0)


# ======================================================================
# EXP-A3: merging-strategy ablation incl. the exhaustive optimum
# ======================================================================
def _merging_points(config: MergingAblationConfig) -> list[dict]:
    return [
        {"n": n, "m": m, "k": k, "patterns": config.patterns_per_config,
         "offset_span": config.offset_span,
         "seed": config.seed + 97 * grid_index,
         "naive_seed": config.seed + NAIVE_SEED_STRIDE * (grid_index + 1),
         "cost_model": config.cost_model.value}
        for grid_index, (n, m, k) in enumerate(
            (n, m, k) for n in config.n_values for m in config.m_values
            for k in config.k_values)
    ]


def _merging_point(params: dict) -> dict:
    n, m, k = params["n"], params["m"], params["k"]
    cost_model = CostModel(params["cost_model"])
    patterns = generate_batch(
        RandomPatternConfig(n, offset_span=params["offset_span"]),
        params["patterns"], seed=params["seed"])
    optimal_costs, best_costs = [], []
    naive_random_costs, naive_first_costs = [], []
    hits = 0
    gaps = []
    for pattern_index, pattern in enumerate(patterns):
        outcome = minimum_zero_cost_cover(pattern, m)
        cover = outcome.cover
        optimum = optimal_allocation(pattern, k, m, cost_model)
        optimal_costs.append(float(optimum.total_cost))
        if cover.n_paths <= k:
            cost = float(cover_cost(cover, pattern, m, cost_model))
            best_costs.append(cost)
            naive_random_costs.append(cost)
            naive_first_costs.append(cost)
        else:
            best = best_pair_merge(cover, k, pattern, m, cost_model)
            best_costs.append(float(best.total_cost))
            naive_random_costs.append(float(naive_merge(
                cover, k, pattern, m, cost_model, strategy="random",
                seed=naive_baseline_seed(params["naive_seed"],
                                         pattern_index, 0)).total_cost))
            naive_first_costs.append(float(naive_merge(
                cover, k, pattern, m, cost_model,
                strategy="first_pair").total_cost))
        hits += best_costs[-1] == optimal_costs[-1]
        if optimal_costs[-1] > 0:
            gaps.append(100.0 * (best_costs[-1] - optimal_costs[-1])
                        / optimal_costs[-1])
    count = len(patterns)
    return {"n": n, "m": m, "k": k, "n_patterns": count,
            "mean_optimal": mean(optimal_costs),
            "mean_best_pair": mean(best_costs),
            "mean_naive_random": mean(naive_random_costs),
            "mean_naive_first": mean(naive_first_costs),
            "best_pair_optimal_fraction": hits / count,
            "best_pair_gap_pct": mean(gaps) if gaps else 0.0}


def _merging_assemble(config: MergingAblationConfig,
                      results) -> MergingAblationSummary:
    rows = tuple(MergingAblationRow(**result.values)
                 for result in results)
    return MergingAblationSummary(config, rows, 0.0)


# ======================================================================
# EXP-O1: offset-assignment substrate (the paper's refs [4, 5])
# ======================================================================
def _offset_points(config: OffsetComparisonConfig) -> list[dict]:
    return [
        {"n_variables": v, "length": length,
         "sequences": config.sequences_per_config,
         "locality": config.locality,
         "seed": config.seed + 1009 * grid_index,
         "optimal_limit": config.optimal_limit,
         "goa_k_values": list(config.goa_k_values)}
        for grid_index, (v, length) in enumerate(
            (v, length) for v in config.v_values
            for length in config.length_values)
    ]


def _offset_point(params: dict) -> dict:
    from repro.offset.goa import goa_first_use, goa_greedy
    from repro.offset.sequence import random_sequence
    from repro.offset.soa import (
        assignment_cost,
        liao_soa,
        ofu_assignment,
        optimal_assignment,
        tiebreak_soa,
    )

    n_variables, length = params["n_variables"], params["length"]
    sequences = [
        random_sequence(n_variables, length,
                        seed=params["seed"] + index,
                        locality=params["locality"])
        for index in range(params["sequences"])
    ]
    ofu_costs, liao_costs, tiebreak_costs = [], [], []
    optimal_costs: list[float] = []
    for sequence in sequences:
        ofu_costs.append(float(assignment_cost(
            ofu_assignment(sequence), sequence)))
        liao_costs.append(float(assignment_cost(
            liao_soa(sequence), sequence)))
        tiebreak_costs.append(float(assignment_cost(
            tiebreak_soa(sequence), sequence)))
        if n_variables <= params["optimal_limit"]:
            optimal_costs.append(float(assignment_cost(
                optimal_assignment(sequence), sequence)))
    soa = {"n_variables": n_variables, "length": length,
           "n_sequences": len(sequences),
           "mean_ofu": mean(ofu_costs),
           "mean_liao": mean(liao_costs),
           "mean_tiebreak": mean(tiebreak_costs),
           "liao_reduction_pct": percent_reduction(mean(ofu_costs),
                                                   mean(liao_costs)),
           "tiebreak_reduction_pct": percent_reduction(
               mean(ofu_costs), mean(tiebreak_costs)),
           "mean_optimal": mean(optimal_costs) if optimal_costs else None}
    goa = []
    for k in params["goa_k_values"]:
        first_use_costs = [float(goa_first_use(sequence, k).cost)
                           for sequence in sequences]
        greedy_costs = [float(goa_greedy(sequence, k).cost)
                        for sequence in sequences]
        goa.append({"n_variables": n_variables, "length": length, "k": k,
                    "n_sequences": len(sequences),
                    "mean_first_use": mean(first_use_costs),
                    "mean_greedy": mean(greedy_costs),
                    "reduction_pct": percent_reduction(
                        mean(first_use_costs), mean(greedy_costs))})
    return {"soa": soa, "goa": goa}


def _offset_assemble(config: OffsetComparisonConfig,
                     results) -> OffsetComparisonSummary:
    soa_rows: list[OffsetSoaRow] = []
    goa_rows: list[OffsetGoaRow] = []
    for result in results:
        soa_rows.append(OffsetSoaRow(**result.values["soa"]))
        goa_rows.extend(OffsetGoaRow(**row)
                        for row in result.values["goa"])
    return OffsetComparisonSummary(
        config=config, soa_rows=tuple(soa_rows), goa_rows=tuple(goa_rows),
        mean_liao_reduction_pct=mean(
            [row.liao_reduction_pct for row in soa_rows]),
        mean_tiebreak_reduction_pct=mean(
            [row.tiebreak_reduction_pct for row in soa_rows]),
        elapsed_seconds=0.0)


# ======================================================================
# EXP-X1: the modify-register extension
# ======================================================================
def _modreg_points(config: ModRegAblationConfig) -> list[dict]:
    return [
        {"n": n, "k": k, "n_modify_registers": n_mrs,
         "modify_range": config.modify_range,
         "patterns": config.patterns_per_config,
         "offset_span": config.offset_span,
         "seed": config.seed + 1013 * grid_index,
         "exact_cover_limit": config.exact_cover_limit,
         "cover_node_budget": config.cover_node_budget}
        for grid_index, (n, k) in enumerate(
            (n, k) for n in config.n_values for k in config.k_values)
        for n_mrs in config.mr_values
    ]


def _modreg_point(params: dict) -> dict:
    from repro.modreg.refine import allocate_with_modify_registers

    n, k, n_mrs = params["n"], params["k"], params["n_modify_registers"]
    allocator_config = AllocatorConfig(
        exact_cover_limit=params["exact_cover_limit"],
        cover_node_budget=params["cover_node_budget"])
    patterns = generate_batch(
        RandomPatternConfig(n, offset_span=params["offset_span"]),
        params["patterns"], seed=params["seed"])
    spec = AguSpec(k, params["modify_range"],
                   f"mr{n_mrs}", n_modify_registers=n_mrs)
    costs = [
        float(allocate_with_modify_registers(
            pattern, spec, allocator_config).total_cost)
        for pattern in patterns
    ]
    return {"n": n, "k": k, "n_modify_registers": n_mrs,
            "n_patterns": len(patterns), "mean_cost": mean(costs)}


def _modreg_assemble(config: ModRegAblationConfig,
                     results) -> ModRegAblationSummary:
    rows: list[ModRegAblationRow] = []
    group: tuple[int, int] | None = None
    base_mean: float | None = None
    for result in results:
        values = result.values
        point_group = (values["n"], values["k"])
        if point_group != group:
            group, base_mean = point_group, None
        if values["n_modify_registers"] == 0:
            base_mean = values["mean_cost"]
        reduction = percent_reduction(base_mean, values["mean_cost"]) \
            if base_mean is not None else 0.0
        rows.append(ModRegAblationRow(
            n=values["n"], k=values["k"],
            n_modify_registers=values["n_modify_registers"],
            n_patterns=values["n_patterns"],
            mean_cost=values["mean_cost"],
            reduction_vs_no_mr_pct=reduction))
    return ModRegAblationSummary(config, tuple(rows), 0.0)


# ======================================================================
# EXP-X2: the access-reordering extension
# ======================================================================
def _reorder_points(config: ReorderAblationConfig) -> list[dict]:
    return [
        {"n": n, "k": k, "modify_range": config.modify_range,
         "write_fraction": config.write_fraction,
         "patterns": config.patterns_per_config,
         "offset_span": config.offset_span,
         "seed": config.seed + 211 * grid_index}
        for grid_index, (n, k) in enumerate(
            (n, k) for n in config.n_values for k in config.k_values)
    ]


def _reorder_point(params: dict) -> dict:
    from repro.reorder.search import reorder_accesses

    n, k = params["n"], params["k"]
    spec = AguSpec(k, params["modify_range"])
    patterns = generate_batch(
        RandomPatternConfig(n, offset_span=params["offset_span"],
                            write_fraction=params["write_fraction"]),
        params["patterns"], seed=params["seed"])
    fixed_costs, reordered_costs = [], []
    changed = 0
    for pattern in patterns:
        result = reorder_accesses(pattern, spec)
        fixed_costs.append(float(result.baseline_cost))
        reordered_costs.append(float(result.cost))
        changed += result.is_reordered
    return {"n": n, "k": k, "n_patterns": len(patterns),
            "mean_fixed_order": mean(fixed_costs),
            "mean_reordered": mean(reordered_costs),
            "reduction_pct": percent_reduction(mean(fixed_costs),
                                               mean(reordered_costs)),
            "reordered_fraction": changed / len(patterns)}


def _reorder_assemble(config: ReorderAblationConfig,
                      results) -> ReorderAblationSummary:
    rows = tuple(ReorderAblationRow(**result.values)
                 for result in results)
    return ReorderAblationSummary(
        config, rows,
        mean_reduction_pct=mean([row.reduction_pct for row in rows]),
        elapsed_seconds=0.0)


# ======================================================================
# EXP-X3: the array-layout extension
# ======================================================================
def _arraylayout_points(config: ArrayLayoutAblationConfig) -> list[dict]:
    return [
        {"n": n, "k": k, "n_arrays": config.n_arrays,
         "array_length": config.array_length,
         "offset_span": config.offset_span,
         "modify_range": config.modify_range,
         "patterns": config.patterns_per_config,
         "seed": config.seed + 307 * grid_index}
        for grid_index, (n, k) in enumerate(
            (n, k) for n in config.n_values for k in config.k_values)
    ]


def _arraylayout_point(params: dict) -> dict:
    from repro.arraylayout.optimize import optimize_layout
    from repro.ir.types import ArrayDecl

    n, k = params["n"], params["k"]
    spec = AguSpec(k, params["modify_range"])
    allocator = AddressRegisterAllocator(spec)
    patterns = generate_batch(
        RandomPatternConfig(n, offset_span=params["offset_span"],
                            n_arrays=params["n_arrays"]),
        params["patterns"], seed=params["seed"])
    defaults, optimizeds = [], []
    for pattern in patterns:
        allocation = allocator.allocate(pattern)
        decls = [ArrayDecl(name, length=params["array_length"])
                 for name in pattern.arrays()]
        plan = optimize_layout(pattern, allocation.cover, decls,
                               params["modify_range"])
        defaults.append(float(plan.baseline_cost))
        optimizeds.append(float(plan.cost))
    return {"n": n, "k": k, "n_patterns": len(patterns),
            "mean_default": mean(defaults),
            "mean_optimized": mean(optimizeds),
            "reduction_pct": percent_reduction(mean(defaults),
                                               mean(optimizeds))}


def _arraylayout_assemble(config: ArrayLayoutAblationConfig,
                          results) -> ArrayLayoutAblationSummary:
    rows = tuple(ArrayLayoutAblationRow(**result.values)
                 for result in results)
    return ArrayLayoutAblationSummary(
        config, rows,
        mean_reduction_pct=mean([row.reduction_pct for row in rows]),
        elapsed_seconds=0.0)


# ======================================================================
# The table
# ======================================================================
#: Every experiment, in the paper's order: its Results section, then
#: the ablations and the extensions.  The CLI lists these ids, and the
#: Markdown report runs them in this order.
EXPERIMENTS: tuple[ExperimentDefinition, ...] = (
    ExperimentDefinition(
        experiment="stats",
        title="EXP-S1: best-pair vs naive merging on random patterns",
        config_type=StatisticalConfig,
        default_config=StatisticalConfig,
        quick_config=quick_statistical_config,
        enumerate_points=_stats_points,
        run_point=statistical_point,
        assemble=lambda config, results:
            StatisticalSummary(config, *_stats_rows(results), 0.0),
        point_label=lambda params:
            f"n{params['n']}-m{params['m']}-k{params['k']}",
        render=lambda summary: (
            render.statistical_table(summary),
            *(render.statistical_marginal_table(summary, axis)
              for axis in ("n", "m", "k"))),
        headline=lambda summary:
            f"average reduction: {summary.average_reduction_pct:.1f} % "
            f"(paper: about 40 %); overall "
            f"{summary.overall_reduction_pct:.1f} %",
    ),
    ExperimentDefinition(
        experiment="distributions",
        title="EXP-S3: EXP-S1 under every offset distribution",
        config_type=DistributionSensitivityConfig,
        default_config=DistributionSensitivityConfig,
        quick_config=lambda: DistributionSensitivityConfig(
            n_values=(10, 15), m_values=(1,), k_values=(2,),
            patterns_per_config=6),
        enumerate_points=_distribution_points,
        run_point=statistical_point,
        assemble=_distribution_assemble,
        point_label=lambda params:
            f"{params['distribution']}-n{params['n']}-m{params['m']}"
            f"-k{params['k']}",
        render=lambda summary: (render.distribution_table(summary),),
    ),
    ExperimentDefinition(
        experiment="kernels",
        title="EXP-K1: DSP kernels, optimized vs regular-compiler addressing",
        config_type=KernelComparisonConfig,
        default_config=KernelComparisonConfig,
        quick_config=lambda: KernelComparisonConfig(kernel_names=tuple(
            entry.name for entry in suite_kernels("core8"))),
        enumerate_points=_kernel_points,
        run_point=_kernel_point,
        assemble=_kernel_assemble,
        point_label=lambda params: params["kernel"],
        render=lambda summary: (render.kernel_table(summary),),
        headline=lambda summary:
            f"mean addressing-overhead reduction "
            f"{summary.mean_overhead_reduction_pct:.1f} %, mean speed "
            f"improvement {summary.mean_speed_improvement_pct:.1f} %",
    ),
    ExperimentDefinition(
        experiment="pathcover",
        title="EXP-A1: exact K~ vs greedy cover vs matching lower bound",
        config_type=PathCoverAblationConfig,
        default_config=PathCoverAblationConfig,
        quick_config=lambda: PathCoverAblationConfig(
            n_values=(8, 12), m_values=(1,), patterns_per_config=6,
            node_budget=50_000),
        enumerate_points=_pathcover_points,
        run_point=_pathcover_point,
        assemble=_pathcover_assemble,
        point_label=lambda params: f"n{params['n']}-m{params['m']}",
        render=lambda summary: (render.path_cover_table(summary),),
    ),
    ExperimentDefinition(
        experiment="costmodel",
        title="EXP-A2: merging under intra-only vs steady-state cost",
        config_type=CostModelAblationConfig,
        default_config=CostModelAblationConfig,
        quick_config=lambda: CostModelAblationConfig(
            n_values=(10, 14), m_values=(1,), k_values=(2,),
            patterns_per_config=6),
        enumerate_points=_costmodel_points,
        run_point=_costmodel_point,
        assemble=_costmodel_assemble,
        point_label=lambda params:
            f"n{params['n']}-m{params['m']}-k{params['k']}",
        render=lambda summary: (render.cost_model_table(summary),),
        headline=lambda summary:
            f"mean steady-state saving from wrap-aware merging: "
            f"{summary.mean_penalty_pct:.1f} %",
    ),
    ExperimentDefinition(
        experiment="merging",
        title="EXP-A3: best-pair vs naive vs the exhaustive optimum",
        config_type=MergingAblationConfig,
        default_config=MergingAblationConfig,
        quick_config=lambda: MergingAblationConfig(
            n_values=(8, 10), m_values=(1,), k_values=(2,),
            patterns_per_config=6),
        enumerate_points=_merging_points,
        run_point=_merging_point,
        assemble=_merging_assemble,
        point_label=lambda params:
            f"n{params['n']}-m{params['m']}-k{params['k']}",
        render=lambda summary: (render.merging_table(summary),),
    ),
    ExperimentDefinition(
        experiment="offset",
        title="EXP-O1: SOA heuristics vs OFU (and GOA over k ARs)",
        config_type=OffsetComparisonConfig,
        default_config=OffsetComparisonConfig,
        quick_config=lambda: OffsetComparisonConfig(
            v_values=(5, 7), length_values=(16,), sequences_per_config=6,
            goa_k_values=(2,)),
        enumerate_points=_offset_points,
        run_point=_offset_point,
        assemble=_offset_assemble,
        point_label=lambda params:
            f"v{params['n_variables']}-l{params['length']}",
        render=lambda summary: (render.offset_soa_table(summary),
                                render.offset_goa_table(summary)),
        headline=lambda summary:
            f"mean SOA reduction vs OFU: Liao "
            f"{summary.mean_liao_reduction_pct:.1f} %, tie-break "
            f"{summary.mean_tiebreak_reduction_pct:.1f} %",
    ),
    ExperimentDefinition(
        experiment="modreg",
        title="EXP-X1: addressing cost vs the number of modify registers",
        config_type=ModRegAblationConfig,
        default_config=ModRegAblationConfig,
        quick_config=lambda: ModRegAblationConfig(
            n_values=(12,), k_values=(2,), mr_values=(0, 1, 2),
            patterns_per_config=6),
        enumerate_points=_modreg_points,
        run_point=_modreg_point,
        assemble=_modreg_assemble,
        point_label=lambda params:
            f"n{params['n']}-k{params['k']}-mr{params['n_modify_registers']}",
        render=lambda summary: (render.modreg_table(summary),),
        headline=lambda summary:
            "(extension: not part of the original paper)",
    ),
    ExperimentDefinition(
        experiment="reorder",
        title="EXP-X2: fixed access order vs the reordering extension",
        config_type=ReorderAblationConfig,
        default_config=ReorderAblationConfig,
        quick_config=lambda: ReorderAblationConfig(
            n_values=(8, 10), k_values=(2,), patterns_per_config=6),
        enumerate_points=_reorder_points,
        run_point=_reorder_point,
        assemble=_reorder_assemble,
        point_label=lambda params: f"n{params['n']}-k{params['k']}",
        render=lambda summary: (render.reorder_table(summary),),
        headline=lambda summary:
            f"mean reduction from reordering: "
            f"{summary.mean_reduction_pct:.1f} % "
            f"(extension: not part of the original paper)",
    ),
    ExperimentDefinition(
        experiment="arraylayout",
        title="EXP-X3: default vs optimized array base placement",
        config_type=ArrayLayoutAblationConfig,
        default_config=ArrayLayoutAblationConfig,
        quick_config=lambda: ArrayLayoutAblationConfig(
            n_values=(10,), k_values=(1, 2), patterns_per_config=6),
        enumerate_points=_arraylayout_points,
        run_point=_arraylayout_point,
        assemble=_arraylayout_assemble,
        point_label=lambda params: f"n{params['n']}-k{params['k']}",
        render=lambda summary: (render.array_layout_table(summary),),
        headline=lambda summary:
            f"mean reduction from array placement: "
            f"{summary.mean_reduction_pct:.1f} % "
            f"(extension: not part of the original paper)",
    ),
)


def registered_experiments() -> tuple[str, ...]:
    """Every experiment id of :data:`EXPERIMENTS`, sorted."""
    return tuple(sorted(definition.experiment
                        for definition in EXPERIMENTS))


def get_experiment(experiment: str) -> ExperimentDefinition:
    """Look an experiment up by id."""
    for definition in EXPERIMENTS:
        if definition.experiment == experiment:
            return definition
    raise BatchError(
        f"unknown experiment {experiment!r} (registered: "
        f"{', '.join(registered_experiments())})")


def experiment_point_jobs(experiment: str | ExperimentDefinition,
                          config: Any = None) -> list[ExperimentPointJob]:
    """The experiment's points as picklable, cacheable batch jobs.

    ``config`` defaults to the definition's full-size configuration.
    Job order is enumeration order; summaries are reassembled in it.
    """
    definition = experiment if isinstance(experiment,
                                          ExperimentDefinition) \
        else get_experiment(experiment)
    if config is None:
        config = definition.default_config()
    if not isinstance(config, definition.config_type):
        raise BatchError(
            f"experiment {definition.experiment!r} expects a "
            f"{definition.config_type.__name__}, got "
            f"{type(config).__name__}")
    jobs = []
    for index, params in enumerate(definition.enumerate_points(config)):
        # Catch empty-work configs up front with the offending knob
        # named, instead of dying mid-experiment on an empty mean.
        for count_key in ("patterns", "sequences", "naive_repeats",
                          "simulate_iterations"):
            if count_key in params and params[count_key] < 1:
                raise BatchError(
                    f"experiment {definition.experiment!r}: "
                    f"{count_key} per point must be >= 1, got "
                    f"{params[count_key]}")
        if params.get("distribution", "uniform") not in DISTRIBUTIONS:
            raise BatchError(
                f"experiment {definition.experiment!r}: unknown "
                f"distribution {params['distribution']!r} (known: "
                f"{', '.join(sorted(DISTRIBUTIONS))})")
        jobs.append(ExperimentPointJob(
            name=f"{definition.experiment}-"
                 f"{definition.point_label(params)}",
            experiment=definition.experiment, index=index,
            params=params))
    if not jobs:
        raise BatchError(
            f"experiment {definition.experiment!r}: the configuration "
            f"enumerates zero points -- check the grid axes")
    return jobs
