"""Tests of the sharded EXP-S1/EXP-S3 grids: seeds, up-front config
checks, executor pass-through, and the streaming engine.

Job shape, digests, bit-identity across workers/executors/caches, and
the pinned goldens of both experiments (registry ids ``stats`` and
``distributions``) are covered by the parametrized registry suite in
``tests/test_experiment_sharding.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.agu.model import AguSpec
from repro.analysis.experiments import (
    DistributionSensitivityConfig,
    PathCoverAblationConfig,
    StatisticalConfig,
    run_experiment,
    run_statistical_comparison,
)
from repro.batch.engine import BatchCompiler, InlineExecutor
from repro.batch.jobs import (
    NAIVE_PATTERN_STRIDE,
    NAIVE_SEED_STRIDE,
    PATTERN_SEED_STRIDE,
    jobs_from_suite,
    naive_baseline_seed,
    statistical_point,
)
from repro.batch.registry import experiment_point_jobs
from repro.errors import BatchError

TINY = StatisticalConfig(n_values=(10, 14), m_values=(1, 2), k_values=(2,),
                         patterns_per_config=5, naive_repeats=3, seed=11)


@pytest.fixture(scope="module")
def tiny_points() -> list[dict]:
    return [job.params for job in experiment_point_jobs("stats", TINY)]


class RecordingExecutor(InlineExecutor):
    """Runs jobs inline and records every job it was handed."""

    def __init__(self):
        self.jobs: list = []

    def run(self, jobs):
        self.jobs.extend(jobs)
        return super().run(jobs)


class TestSeedScheme:
    def test_pattern_and_naive_seeds_advance_per_grid_point(self,
                                                            tiny_points):
        for grid_index, params in enumerate(tiny_points):
            assert params["pattern_seed"] \
                == TINY.seed + PATTERN_SEED_STRIDE * grid_index
            assert params["naive_seed"] \
                == TINY.seed + NAIVE_SEED_STRIDE * (grid_index + 1)

    def test_pattern_seeds_never_alias_naive_streams(self, tiny_points):
        """A pattern RNG and a merge-order RNG must never share a seed
        (grid point 0's pattern seed used to equal its first naive
        seed)."""
        pattern_seeds = {params["pattern_seed"] for params in tiny_points}
        naive_seeds = {
            naive_baseline_seed(params["naive_seed"], pattern_index,
                                repeat)
            for params in tiny_points
            for pattern_index in range(params["patterns"])
            for repeat in range(params["naive_repeats"])}
        assert not pattern_seeds & naive_seeds

    def test_naive_streams_are_disjoint_across_grid_points(self,
                                                           tiny_points):
        """The grid-term seeding fix: no two grid points may ever hand the
        naive baseline the same merge-order seed."""
        streams = []
        for params in tiny_points:
            streams.append({
                naive_baseline_seed(params["naive_seed"], pattern_index,
                                    repeat)
                for pattern_index in range(params["patterns"])
                for repeat in range(params["naive_repeats"])})
        for i, first in enumerate(streams):
            for second in streams[i + 1:]:
                assert not first & second

    def test_naive_streams_are_injective_within_a_point(self,
                                                        tiny_points):
        naive_seed = tiny_points[0]["naive_seed"]
        seeds = [naive_baseline_seed(naive_seed, pattern_index, repeat)
                 for pattern_index in range(147)
                 for repeat in range(NAIVE_PATTERN_STRIDE // 147)]
        assert len(seeds) == len(set(seeds))
        assert max(seeds) - naive_seed < NAIVE_SEED_STRIDE

    def test_naive_baselines_differ_across_grid_index(self, tiny_points):
        """Same patterns, different grid position: the naive baseline
        must resample instead of replaying the other point's orders."""
        base = {**tiny_points[0], "n": 20, "k": 2, "m": 1, "patterns": 8}
        shifted = {**base,
                   "naive_seed": base["naive_seed"] + NAIVE_SEED_STRIDE}
        first, second = statistical_point(base), statistical_point(shifted)
        # Identical pattern family => identical optimized side...
        assert first["mean_optimized"] == second["mean_optimized"]
        assert first["mean_k_tilde"] == second["mean_k_tilde"]
        # ...but independent naive merge orders.
        assert first["mean_naive"] != second["mean_naive"]


class TestEmptyConfigsFailUpFront:
    """A zero-count or empty-axis EXP-S1 config is rejected before any
    point is scheduled, with the offending knob named."""

    def assert_rejected(self, match: str, **change) -> None:
        executor = RecordingExecutor()
        progress: list = []
        with pytest.raises(BatchError, match=match):
            run_statistical_comparison(
                dataclasses.replace(TINY, **change), executor=executor,
                progress=lambda *event: progress.append(event))
        assert executor.jobs == []
        assert progress == []

    def test_zero_naive_repeats(self):
        self.assert_rejected("naive_repeats per point must be >= 1",
                             naive_repeats=0)

    def test_zero_patterns_per_config(self):
        self.assert_rejected("patterns per point must be >= 1",
                             patterns_per_config=0)

    def test_empty_grid_axis(self):
        self.assert_rejected("zero points -- check the grid axes",
                             n_values=())

    @pytest.mark.parametrize("experiment, config", [
        ("stats", dataclasses.replace(TINY, distribution="bogus")),
        ("distributions", DistributionSensitivityConfig(
            distributions=("uniform", "bogus"), n_values=(10,),
            m_values=(1,), k_values=(2,), patterns_per_config=2)),
        ("pathcover", PathCoverAblationConfig(
            n_values=(8,), m_values=(1,), patterns_per_config=2,
            distribution="bogus")),
    ], ids=["stats", "distributions", "pathcover"])
    def test_unknown_distribution(self, experiment, config):
        """Every experiment carrying a ``distribution`` param names the
        known ones before any point runs (EXP-S3's valid first
        distribution included)."""
        executor = RecordingExecutor()
        with pytest.raises(BatchError, match=(
                "unknown distribution 'bogus' \\(known: clustered, "
                "mixed, sweep, uniform\\)")):
            run_experiment(experiment, config, executor=executor)
        assert executor.jobs == []


class TestDistributionSensitivityExecutor:
    def test_every_point_runs_on_the_given_executor(self):
        """EXP-S3 must run where it is told to (a fleet run used to
        compute silently on the calling process)."""
        config = DistributionSensitivityConfig(
            n_values=(10,), m_values=(1,), k_values=(2,),
            patterns_per_config=2)
        executor = RecordingExecutor()
        summary = run_experiment("distributions", config,
                                 executor=executor)
        assert [job.params["distribution"] for job in executor.jobs] \
            == list(config.distributions)
        assert summary.n_points_compiled == len(config.distributions)


class TestStreamingEngine:
    SPEC = AguSpec(4, 1)

    def test_as_completed_covers_every_slot_once(self):
        jobs = jobs_from_suite("core8", self.SPEC, n_iterations=4)
        compiler = BatchCompiler(executor="local:2")
        streamed = dict(compiler.as_completed(jobs))
        assert sorted(streamed) == list(range(len(jobs)))
        assert {result.name for result in streamed.values()} \
            == {job.name for job in jobs}

    def test_as_completed_streams_cache_hits(self):
        jobs = jobs_from_suite("core8", self.SPEC, n_iterations=4)
        compiler = BatchCompiler()
        list(compiler.as_completed(jobs))
        again = dict(compiler.as_completed(jobs))
        assert all(result.from_cache for result in again.values())

    def test_pooled_compile_preserves_job_order(self):
        jobs = jobs_from_suite("core8", self.SPEC, n_iterations=4)
        compiler = BatchCompiler(executor="local:2")
        names = [result.name for result in compiler.compile(jobs).results]
        assert names == [job.name for job in jobs]

    def test_streaming_matches_compile(self):
        jobs = jobs_from_suite("core8", self.SPEC, n_iterations=4)
        slots = dict(BatchCompiler(executor="local:2").as_completed(jobs))
        streamed = [slots[index] for index in range(len(jobs))]
        compiled = BatchCompiler().compile(jobs).results
        assert [(r.name, r.total_cost, r.k_tilde) for r in streamed] \
            == [(r.name, r.total_cost, r.k_tilde) for r in compiled]

    def test_duplicate_digests_compute_once(self):
        job = jobs_from_suite("core8", self.SPEC, n_iterations=4)[0]
        twin = dataclasses.replace(job, name="twin")
        compiler = BatchCompiler()
        results = dict(compiler.as_completed([job, twin]))
        assert not results[0].from_cache
        assert results[1].from_cache
        assert results[1].name == "twin"
        assert results[1].total_cost == results[0].total_cost

    def test_interrupted_stream_keeps_partial_progress(self):
        jobs = jobs_from_suite("core8", self.SPEC, n_iterations=4)
        compiler = BatchCompiler()
        stream = compiler.as_completed(jobs)
        next(stream)
        stream.close()  # abandon mid-batch
        report = compiler.compile(jobs)
        assert report.n_cache_hits >= 1
        assert report.n_compiled < len(jobs)
