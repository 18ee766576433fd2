"""Batch compilation jobs and the helpers that mass-produce them.

A :class:`BatchJob` is one self-contained, picklable compilation unit:
a kernel (frontend source text or a bare access pattern), the target
AGU, the allocator configuration, and the execution options.  Being
plain frozen dataclasses end to end, jobs travel across process
boundaries unchanged, which is what lets the engine fan a suite out
over a process pool.

Every job type implements the one contract the engine relies on: a
display ``name``, a carried ``digest``, ``cache_key()`` (the digest
payload), ``execute()`` (the work, returning a ``result_type``).  A
:class:`BatchJob` executes as a compile and returns a
:class:`JobResult`.

Factories cover the common batch shapes:

* :func:`jobs_from_suite` / :func:`jobs_from_kernels` -- the bundled
  DSP kernel library, by suite name or explicit kernel names;
* :func:`jobs_from_random` -- seeded random-pattern families (the
  statistical experiments' input);
* :func:`job_matrix` -- the cross product of a job list with an
  ``AguSpec`` x ``AllocatorConfig`` grid, for sweep-style batches.

Besides compilation units, the module defines the generic
:class:`ExperimentPointJob`, which turns one point of any experiment
registered in :mod:`repro.batch.registry` into the same kind of unit,
sharded over the same engine, process pool, and result caches as
kernel suites are.  It also holds the seed scheme and the point
function (:func:`statistical_point`) of the paper's statistical
comparison (EXP-S1), which :mod:`repro.analysis.points` registers.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.agu.codegen import generate_unoptimized_code
from repro.agu.model import AguSpec
from repro.agu.simulator import simulate
from repro.batch.digest import DIGEST_VERSION, job_digest
from repro.core.allocator import AddressRegisterAllocator
from repro.core import pipeline
from repro.core.config import AllocatorConfig
from repro.core.pipeline import DEFAULT_SIMULATION_ITERATIONS, compile_kernel
from repro.errors import BatchError
from repro.ir.parser import parse_kernel
from repro.ir.types import AccessPattern, ArrayDecl, Kernel, Loop
from repro.merging.cost import CostModel, cost_kernel, cover_cost
from repro.merging.greedy import best_pair_merge
from repro.merging.naive import naive_merge
from repro.scope import ScopedMemo
from repro.workloads.kernels import get_kernel
from repro.workloads.random_patterns import (
    RandomPatternConfig,
    generate_batch,
)
from repro.workloads.suite import suite_kernels


#: The open parse scope's kernels by exact source text.
_PARSE_SCOPE = ScopedMemo("repro_parse_scope")


def parse_scope(kernels: dict[str, Kernel] | None = None
                ) -> AbstractContextManager[dict[str, Kernel]]:
    """Parse each distinct source text at most once while open.

    A kernel's parse does not depend on the AGU spec, yet a sweep
    holds one job per (source, spec) pair.  Inside the scope,
    :meth:`BatchJob.kernel` parses a source the first time it meets it
    and reuses that kernel, renamed to the job, for every later job
    with the same text.  A source that fails to parse is never
    remembered, so each job with a bad source still raises on its own.

    ``kernels`` (keyed by :attr:`~repro.ir.types.Kernel.source`) seeds
    the scope and then holds everything it parses; seeding, nesting and
    forking follow :mod:`repro.scope`.
    """
    return _PARSE_SCOPE.scope(kernels)


class CacheableResult:
    """The cache round-trip protocol shared by engine result types.

    Mixed into frozen result dataclasses that carry a ``name`` (display
    label, excluded from content addressing) and a ``from_cache`` flag;
    the payload is every other field.
    """

    def payload(self) -> dict:
        """The JSON-able cache payload (cache-state flag excluded)."""
        record = dataclasses.asdict(self)
        del record["from_cache"]
        return record

    @classmethod
    def from_payload(cls, payload: dict, job):
        """Rebuild from a cache payload for ``job``; ``None`` if the
        payload is malformed.  Display metadata (the name) comes from
        the job being served, not from whoever stored the entry."""
        try:
            return cls(**{**payload, "name": job.name, "from_cache": True})
        except TypeError:
            return None


@dataclass(frozen=True)
class JobResult(CacheableResult):
    """Per-job summary of a :class:`BatchJob` (picklable, JSON-able)."""

    name: str
    digest: str
    n_accesses: int
    n_registers: int
    modify_range: int
    k_tilde: int | None
    n_registers_used: int
    #: Unit-cost address computations per iteration (the model).
    total_cost: int
    #: Static per-iteration overhead of the generated program.
    overhead_per_iteration: int
    #: Overhead of the unoptimized baseline, when the job asked for it.
    baseline_overhead: int | None
    #: Whether the simulator ran (and, see ``audit_ok``, agreed).
    simulated: bool
    #: Dynamic (simulated) cost equals the modelled cost.  Trivially
    #: true for unsimulated jobs; the simulator raises on mismatches,
    #: so a False here never actually reaches a report.
    audit_ok: bool
    wall_seconds: float
    #: The generated AGU code without its title line, when the job
    #: asked for it (the title is the display name, outside the digest).
    listing: str | None = None
    from_cache: bool = False

    def payload(self) -> dict:
        """The cache payload; without a listing it has no ``listing``
        key, the layout of results from before the field."""
        record = super().payload()
        if record["listing"] is None:
            del record["listing"]
        return record

    @classmethod
    def from_payload(cls, payload: dict, job: "BatchJob"):
        """``None`` also for a listing job's payload without one."""
        result = super().from_payload(payload, job)
        listed = isinstance(getattr(result, "listing", None), str)
        return result if listed or not job.listing else None


@dataclass(frozen=True)
class BatchJob:
    """One compilation unit of a batch.

    Exactly one of ``source`` (frontend text) and ``pattern`` (a bare
    :class:`~repro.ir.types.AccessPattern`) must be given.  ``name`` is
    a display label only; it does not enter the cache key.
    """

    name: str
    spec: AguSpec
    config: AllocatorConfig | None = None
    source: str | None = None
    pattern: AccessPattern | None = None
    run_simulation: bool = True
    n_iterations: int | None = None
    #: Also generate and (when simulating) audit the unoptimized
    #: regular-C-compiler address code, for comparison experiments.
    include_baseline: bool = False
    #: Also render the generated AGU code into the result.
    listing: bool = False
    #: The job's content digest, when it has already been computed:
    #: the engine hands executors copies that carry it, and the serve
    #: handler sets it on the job it queues, so neither execution nor
    #: the engine's scan hashes the job again.  Not an input -- it is
    #: outside the digest, equality and ``replace``.
    digest: str | None = field(default=None, init=False, repr=False,
                               compare=False)

    result_type = JobResult

    def __post_init__(self) -> None:
        if (self.source is None) == (self.pattern is None):
            raise BatchError(
                f"job {self.name!r}: exactly one of source/pattern "
                f"must be given")
        if self.n_iterations is not None and self.n_iterations < 1:
            raise BatchError(
                f"job {self.name!r}: n_iterations must be >= 1, got "
                f"{self.n_iterations}")

    def cache_key(self) -> dict:
        """The digest payload: kernel + spec + config + options."""
        return {
            "v": DIGEST_VERSION,
            "kernel": self.source if self.source is not None
            else self.pattern,
            "spec": self.spec,
            "config": self.config,
            "options": {
                "run_simulation": self.run_simulation,
                "n_iterations": self.n_iterations,
                "include_baseline": self.include_baseline,
                # Only when set: digests from before the field hold.
                **({"listing": True} if self.listing else {}),
            },
        }

    def execute(self) -> JobResult:
        """Compile this job on the calling process."""
        started = time.perf_counter()
        kernel = self.kernel()
        iterations = self.n_iterations
        if iterations is not None and kernel.loop.n_iterations is not None:
            iterations = min(iterations, kernel.loop.n_iterations)
        artifacts = compile_kernel(kernel, self.spec, self.config,
                                   run_simulation=self.run_simulation,
                                   n_iterations=iterations)
        simulation = artifacts.simulation

        baseline_overhead: int | None = None
        if self.include_baseline:
            baseline = generate_unoptimized_code(kernel.pattern, self.spec)
            if self.run_simulation:
                count = iterations
                if count is None and kernel.loop.n_iterations is None:
                    count = DEFAULT_SIMULATION_ITERATIONS
                baseline_overhead = simulate(
                    baseline, kernel.loop, artifacts.layout,
                    n_iterations=count).overhead_per_iteration
            else:
                baseline_overhead = baseline.overhead_per_iteration

        allocation = artifacts.allocation
        return JobResult(
            name=self.name,
            digest=self.digest if self.digest is not None
            else job_digest(self),
            n_accesses=len(kernel.pattern),
            n_registers=self.spec.n_registers,
            modify_range=self.spec.modify_range,
            k_tilde=allocation.k_tilde,
            n_registers_used=allocation.n_registers_used,
            total_cost=allocation.total_cost,
            overhead_per_iteration=artifacts.program.overhead_per_iteration,
            baseline_overhead=baseline_overhead,
            simulated=simulation is not None,
            audit_ok=simulation is None
            or simulation.overhead_per_iteration == allocation.total_cost,
            # Untitled, through the module global that profilers wrap.
            listing=pipeline.program_listing(artifacts.program)
            if self.listing else None,
            wall_seconds=time.perf_counter() - started,
        )

    def kernel(self) -> Kernel:
        """The job's kernel: parsed from source (once per source text
        inside a :func:`parse_scope`), or wrapped pattern."""
        if self.source is not None:
            memo = _PARSE_SCOPE.get()
            if memo is None:
                return parse_kernel(self.source, name=self.name)
            kernel = memo.get(self.source)
            if kernel is None:
                kernel = memo[self.source] = parse_kernel(
                    self.source, name=self.name)
            elif kernel.name != self.name:
                kernel = replace(kernel, name=self.name)
            return kernel
        pattern = self.pattern
        assert pattern is not None
        # Start the loop variable high enough that no access touches a
        # negative array element, mirroring the kernel library's
        # convention for simulatable loops.
        start = max([0] + [-access.index.offset for access in pattern])
        decls = tuple(ArrayDecl(array) for array in sorted(pattern.arrays()))
        return Kernel(name=self.name, loop=Loop(pattern, start=start),
                      arrays=decls)


def jobs_from_kernels(names: Sequence[str], spec: AguSpec,
                      config: AllocatorConfig | None = None, *,
                      run_simulation: bool = True,
                      n_iterations: int | None = None,
                      include_baseline: bool = False) -> list[BatchJob]:
    """Jobs over named kernels of the bundled DSP library."""
    return [
        BatchJob(name=name, spec=spec, config=config,
                 source=get_kernel(name).source,
                 run_simulation=run_simulation, n_iterations=n_iterations,
                 include_baseline=include_baseline)
        for name in names
    ]


def jobs_from_suite(suite: str, spec: AguSpec,
                    config: AllocatorConfig | None = None, *,
                    run_simulation: bool = True,
                    n_iterations: int | None = None,
                    include_baseline: bool = False) -> list[BatchJob]:
    """Jobs over a named kernel suite (see :data:`repro.workloads.SUITES`)."""
    return jobs_from_kernels(
        [entry.name for entry in suite_kernels(suite)], spec, config,
        run_simulation=run_simulation, n_iterations=n_iterations,
        include_baseline=include_baseline)


def jobs_from_random(pattern_config: RandomPatternConfig, count: int,
                     spec: AguSpec,
                     config: AllocatorConfig | None = None, *,
                     seed: int = 0, run_simulation: bool = False,
                     n_iterations: int | None = None,
                     include_baseline: bool = False) -> list[BatchJob]:
    """Jobs over a seeded random-pattern family.

    Reproducible: the same ``(pattern_config, count, seed)`` yields the
    same jobs (and therefore the same cache keys).  Simulation defaults
    off because random batches are usually allocation-throughput work.
    """
    patterns = generate_batch(pattern_config, count, seed=seed)
    stem = (f"{pattern_config.distribution}"
            f"-n{pattern_config.n_accesses}-seed{seed}")
    return [
        BatchJob(name=f"{stem}-{index}", spec=spec, config=config,
                 pattern=pattern, run_simulation=run_simulation,
                 n_iterations=n_iterations,
                 include_baseline=include_baseline)
        for index, pattern in enumerate(patterns)
    ]


# ----------------------------------------------------------------------
# EXP-S1 grid points: seed scheme and point function
# ----------------------------------------------------------------------
#: Seed strides of the EXP-S1 grid.  Each grid point's *patterns* come
#: from the stream ``seed + PATTERN_SEED_STRIDE * grid_index``; its
#: *naive-baseline* merge orders come from the independent stream
#: ``seed + NAIVE_SEED_STRIDE * (grid_index + 1)`` advanced by
#: ``NAIVE_PATTERN_STRIDE * pattern_index + repeat`` per draw.  The
#: strides are large, distinct primes: NAIVE_SEED_STRIDE exceeds the
#: largest per-point naive offset for up to 147 patterns per grid
#: point, so no two grid points ever share a naive merge order, and
#: the ``+ 1`` keeps every naive stream clear of the (much smaller)
#: pattern-seed range, so a pattern RNG never aliases a merge-order
#: RNG either.  (An earlier seeding scheme omitted the grid term,
#: which made every grid point reuse one set of "independent" naive
#: baselines.)
PATTERN_SEED_STRIDE = 7919
NAIVE_SEED_STRIDE = 15_485_863
NAIVE_PATTERN_STRIDE = 104_729

#: EXP-S3 (distribution sensitivity) repeats the EXP-S1 grid once per
#: offset distribution.  Each repetition keeps the *pattern* streams
#: paired (same base seed, different distribution) but must draw its
#: own naive-baseline merge orders: distribution ``d`` uses the base
#: ``seed + NAIVE_SEED_STRIDE * DISTRIBUTION_SEED_SPAN * (d + 1)``, so
#: its per-grid-point streams sit ``DISTRIBUTION_SEED_SPAN`` naive
#: strides apart from every other distribution's (disjoint for grids
#: of up to ``DISTRIBUTION_SEED_SPAN - 1`` points -- far beyond any
#: real configuration).  (An earlier scheme reused one base seed, which
#: made all four distributions replay identical merge-order streams.)
DISTRIBUTION_SEED_SPAN = 1009


def naive_baseline_seed(naive_seed: int, pattern_index: int,
                        repeat: int) -> int:
    """The merge-order seed of one naive-baseline draw (see above)."""
    return naive_seed + NAIVE_PATTERN_STRIDE * pattern_index + repeat


def statistical_point(params: dict) -> dict:
    """One (N, M, K) grid point of EXP-S1: best-pair vs naive merging.

    ``params`` carries the pattern family (``n``, ``patterns``,
    ``offset_span``, ``distribution``), the point's two derived seeds
    (``pattern_seed``, ``naive_seed``), ``naive_repeats``, and the
    allocator settings.  ``sum_optimized``/``sum_naive`` keep the exact
    per-point cost sums so the grid-level (cost-weighted) reduction
    reassembles bit-identically from shards.
    """
    n, m, k = params["n"], params["m"], params["k"]
    cost_model = CostModel(params["cost_model"])
    allocator = AddressRegisterAllocator(
        AguSpec(k, m),
        AllocatorConfig(cost_model=cost_model,
                        exact_cover_limit=params["exact_cover_limit"],
                        cover_node_budget=params["cover_node_budget"]))
    patterns = generate_batch(
        RandomPatternConfig(n, offset_span=params["offset_span"],
                            distribution=params["distribution"]),
        params["patterns"], seed=params["pattern_seed"])

    optimized_costs: list[float] = []
    naive_costs: list[float] = []
    k_tildes: list[float] = []
    constrained = 0
    for pattern_index, pattern in enumerate(patterns):
        cover, k_tilde, _feasible, _optimal = \
            allocator.initial_cover(pattern)
        k_tildes.append(float(k_tilde if k_tilde is not None
                              else cover.n_paths))
        if cover.n_paths <= k:
            cost = cover_cost(cover, pattern, m, cost_model)
            optimized_costs.append(float(cost))
            naive_costs.append(float(cost))
            continue
        constrained += 1
        # One cost kernel serves the best-pair merge and every naive
        # repeat: they all cost the same pattern under the same M.
        cost = cost_kernel(pattern, m, cost_model)
        merged = best_pair_merge(cover, k, pattern, m, cost_model,
                                 cost=cost)
        optimized_costs.append(float(merged.total_cost))
        repeats = [
            naive_merge(cover, k, pattern, m, cost_model,
                        strategy="random",
                        seed=naive_baseline_seed(
                            params["naive_seed"], pattern_index, repeat),
                        cost=cost).total_cost
            for repeat in range(params["naive_repeats"])
        ]
        naive_costs.append(sum(repeats) / len(repeats))

    count = len(patterns)
    return {"n": n, "m": m, "k": k, "n_patterns": count,
            "mean_k_tilde": sum(k_tildes) / count,
            "constrained_fraction": constrained / count,
            "mean_optimized": sum(optimized_costs) / count,
            "mean_naive": sum(naive_costs) / count,
            "sum_optimized": sum(optimized_costs),
            "sum_naive": sum(naive_costs)}


# ----------------------------------------------------------------------
# Generic experiment points as batch jobs
# ----------------------------------------------------------------------
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
    #: Registry id of the experiment this point belongs to.
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
    """One point of a registered experiment as a cacheable batch job.

    Self-contained and picklable: ``experiment`` names an
    :class:`~repro.batch.registry.ExperimentDefinition` (resolved at
    execution time, so the job itself stays a plain data record across
    process boundaries) and ``params`` carries everything that point's
    outcome depends on -- grid coordinates, derived seeds, and
    allocator/solver settings, all JSON-able.  The content digest
    covers the experiment id and the params; ``name`` and ``index`` are
    display/ordering metadata and deliberately excluded, so relabeled
    or re-enumerated points keep hitting the same cache entries.
    """

    name: str
    experiment: str
    index: int
    params: dict = field(default_factory=dict)
    #: The digest the engine computed, as on :class:`BatchJob`.
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
        from repro.batch.registry import get_experiment

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


def job_matrix(jobs: Iterable[BatchJob], specs: Sequence[AguSpec],
               configs: Sequence[AllocatorConfig | None] = (None,),
               ) -> list[BatchJob]:
    """Cross every job with every spec and allocator configuration.

    Job names gain an ``@K<k>M<m>`` suffix (plus ``/c<i>`` when more
    than one configuration is in play) so matrix rows stay tellable
    apart in reports.
    """
    if not specs:
        raise BatchError("job_matrix needs at least one spec")
    if not configs:
        raise BatchError("job_matrix needs at least one config")
    matrix = []
    for job in jobs:
        for spec in specs:
            for config_index, config in enumerate(configs):
                name = (f"{job.name}@K{spec.n_registers}"
                        f"M{spec.modify_range}")
                if len(configs) > 1:
                    name += f"/c{config_index}"
                matrix.append(replace(job, name=name, spec=spec,
                                      config=config))
    return matrix
