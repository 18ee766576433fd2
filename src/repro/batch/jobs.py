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

:class:`CacheableResult` is the cache round trip every result type
shares, :class:`JobResult` and the experiment points' results alike.
The module also holds the seed scheme and the point function
(:func:`statistical_point`) of the paper's statistical comparison
(EXP-S1), which the experiment table of :mod:`repro.analysis.points`
runs.  That point function stays here because ``perfbench``'s tracer
wraps this module's ``best_pair_merge``, ``naive_merge`` and
``job_digest`` names.  The experiment table and its job types
(:class:`~repro.analysis.points.ExperimentPointJob`) live in the
analysis layer: the batch layer runs jobs and names no experiment
table.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.agu.codegen import generate_unoptimized_code
from repro.agu.model import AguSpec
from repro.agu.simulator import simulate
from repro.batch.cache import copy_json
from repro.batch.digest import DIGEST_VERSION, job_digest
from repro.core.allocator import AddressRegisterAllocator
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
        """The JSON-able cache payload (cache-state flag excluded); its
        containers are copies, detached from this result."""
        return {field.name: copy_json(getattr(self, field.name))
                for field in dataclasses.fields(self)
                if field.name != "from_cache"}

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
    #: The allocation's cover as the register serving each access
    #: position (``PathCover.assignment``); listings render from it.
    assignment: tuple[int, ...]
    wall_seconds: float
    from_cache: bool = False

    def __post_init__(self) -> None:
        # From a JSON list; not iterable raises the TypeError of a miss.
        object.__setattr__(self, "assignment", tuple(self.assignment))


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
            assignment=allocation.cover.assignment(),
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
