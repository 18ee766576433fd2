"""Differential tests of the sharded experiment-point framework.

For every registered experiment (EXP-S1, EXP-S3, EXP-A1..A3, EXP-O1,
EXP-X1..X3) the suite proves the *sharding migration* off the ad-hoc
loops changed nothing: result tables are bit-identical across worker
counts, across cold vs cached runs and cache backends, and against
pinned golden snapshots (``tests/golden/experiment_goldens.json``)
captured by running the retired loops one last time, pre-migration.
Every registered experiment must have a golden and a pinned digest.

Golden provenance caveat: the snapshots were captured *after* this
PR's seed-reuse audit fixes landed in the sequential code, so for
EXP-A3 (``merging``) they encode the fixed naive-baseline seeding, not
the historical buggy one -- the EXP-A3 ``mean_naive_random`` column
intentionally differs from what any earlier release produced (see
:class:`~repro.analysis.experiments.MergingAblationConfig`).  The
goldens therefore isolate exactly one question: does sharding change
results?  They deliberately do not freeze the pre-fix behavior.

The suite also pins one point digest per experiment (cache-key drift
silently invalidates shared caches -- it must fail CI loudly instead)
and property-tests the :class:`~repro.batch.jobs.ExperimentPointJob`
pickle/cache round trips.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from pathlib import Path

import pytest

from _sharding_util import config_from_kwargs, normalize_summary

from repro.analysis.experiments import run_experiment
from repro.batch.cache import (
    InMemoryLRUCache,
    JsonFileCache,
    ShardedDirectoryCache,
)
from repro.batch.digest import job_digest
from repro.batch.engine import BatchCompiler, execute_any
from repro.batch.jobs import (
    ExperimentPointJob,
    ExperimentPointResult,
    naive_baseline_seed,
)
from repro.batch.registry import (
    experiment_point_jobs,
    get_experiment,
    registered_experiments,
)
from repro.errors import BatchError

#: Every registered experiment (each must have a golden and a pin).
EXPERIMENTS = registered_experiments()

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" /
     "experiment_goldens.json").read_text())

#: Content digests of each experiment's first default-config point.
#: These change only when the digest payload layout, the params an
#: experiment derives, or DIGEST_VERSION change -- all of which
#: invalidate shared caches and must be deliberate, visible decisions.
PINNED_DIGESTS = {
    "arraylayout":
        "bf2278ffc946ddc26d8080bdf5cff379a26cc43599b77937670f9638aa802a04",
    "costmodel":
        "96739a4d549decbcf46785a8ebe52d8ac8c5a4e71111caa270691856cfcdeae1",
    "distributions":
        "ddf8176541cb776dd21ae455f0e132f0cd8a6c0e489513a2bc4ad4393109ba9c",
    "merging":
        "8b59b80e588c2336b2b0cd266acdc53d6607012c7dda0829f7f796f94eacfd84",
    "modreg":
        "34e9f3cdc5b4788b336e678c7b0ee0478040bc2c477d85ea0a3af7cfc9d1c1c5",
    "offset":
        "7abf2f939e7af72092815e11b8caf1cc5e4bc65d73d4a062e5a01b6e2c430234",
    "pathcover":
        "a8e51038af32e21d055868d238bef3adfd018f7571e33b07f7107c37cfc3dd92",
    "reorder":
        "f4466442e8076eb5de459b61cc23e6fc9c1ad53d2fccbdbae161e86ba0495ff3",
    "stats":
        "0886893df216e64c8db4bf834f8c95f269a204618f8f5575ebfccce4563f87df",
}


def tiny_config(experiment: str):
    """The golden snapshot's scaled-down config for one experiment."""
    return config_from_kwargs(get_experiment(experiment).config_type,
                              GOLDEN[experiment]["config"])


_BASELINES: dict[str, object] = {}


def baseline_summary(experiment: str):
    """The tiny-config single-worker summary, computed once per run."""
    if experiment not in _BASELINES:
        _BASELINES[experiment] = run_experiment(experiment,
                                                tiny_config(experiment))
    return _BASELINES[experiment]


class TestRegistry:
    def test_goldens_pins_and_registry_cover_the_same_experiments(self):
        """A newly registered experiment cannot land without a golden
        summary and a pinned digest (and neither can outlive it)."""
        assert set(GOLDEN) == set(PINNED_DIGESTS) \
            == set(registered_experiments())

    def test_unknown_experiment_fails_loudly(self):
        with pytest.raises(BatchError, match="unknown experiment"):
            get_experiment("does-not-exist")
        with pytest.raises(BatchError, match="unknown experiment"):
            run_experiment("does-not-exist")

    def test_config_type_mismatch_fails_loudly(self):
        with pytest.raises(BatchError, match="expects a"):
            experiment_point_jobs("pathcover", tiny_config("reorder"))

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_quick_and_default_configs_are_well_typed(self, experiment):
        definition = get_experiment(experiment)
        assert isinstance(definition.default_config(),
                          definition.config_type)
        assert isinstance(definition.quick_config(),
                          definition.config_type)
        # Quick grids are strictly smaller work than the defaults.
        assert len(experiment_point_jobs(
            experiment, definition.quick_config())) \
            <= len(experiment_point_jobs(experiment))


class TestPointJobs:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_one_job_per_point_with_unique_digests(self, experiment):
        jobs = experiment_point_jobs(experiment, tiny_config(experiment))
        assert jobs, experiment
        assert [job.index for job in jobs] == list(range(len(jobs)))
        digests = [job_digest(job) for job in jobs]
        assert len(set(digests)) == len(digests)
        assert len({job.name for job in jobs}) == len(jobs)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_digest_ignores_display_metadata(self, experiment):
        job = experiment_point_jobs(experiment,
                                    tiny_config(experiment))[0]
        relabeled = dataclasses.replace(job, name="other-label",
                                        index=99)
        assert job_digest(relabeled) == job_digest(job)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_digest_tracks_every_param(self, experiment):
        job = experiment_point_jobs(experiment,
                                    tiny_config(experiment))[0]
        for key, value in job.params.items():
            changed = dict(job.params)
            changed[key] = value + 1 if isinstance(value, int) \
                else value + 0.125 if isinstance(value, float) \
                else value + [0] if isinstance(value, list) \
                else str(value) + "x"
            assert job_digest(dataclasses.replace(
                job, params=changed)) != job_digest(job), key

    def test_digest_tracks_the_experiment_id(self):
        job = experiment_point_jobs("reorder", tiny_config("reorder"))[0]
        assert job_digest(dataclasses.replace(
            job, experiment="other")) != job_digest(job)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_pinned_representative_digest(self, experiment):
        """Cache-key drift must fail CI loudly: the digest of the
        first default-config point is pinned."""
        job = experiment_point_jobs(experiment)[0]
        assert job_digest(job) == PINNED_DIGESTS[experiment]

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_jobs_round_trip_through_pickle(self, experiment):
        for job in experiment_point_jobs(experiment,
                                         tiny_config(experiment)):
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job
            assert job_digest(clone) == job_digest(job)

    def test_execute_through_generic_dispatch(self):
        job = experiment_point_jobs("reorder", tiny_config("reorder"))[0]
        result = execute_any(job)
        assert isinstance(result, ExperimentPointResult)
        assert result.experiment == "reorder"
        assert result.digest == job_digest(job)
        assert not result.from_cache
        # Values are JSON-canonical: a cache round trip cannot change
        # their representation.
        assert result.values == json.loads(json.dumps(result.values))

    def test_cache_hits_rebuild_display_metadata_from_the_job(self):
        """A reordered grid served from cache gets the *current*
        name/index, not whatever position stored the entry."""
        cache = InMemoryLRUCache()
        jobs = experiment_point_jobs("reorder", tiny_config("reorder"))
        list(BatchCompiler(cache=cache).run_iter(jobs))
        reordered = [dataclasses.replace(job, index=position,
                                         name=f"renamed-{position}")
                     for position, job in enumerate(reversed(jobs))]
        results = list(BatchCompiler(cache=cache).run_iter(reordered))
        assert all(result.from_cache for result in results)
        assert [result.index for result in results] \
            == [job.index for job in reordered]
        assert [result.name for result in results] \
            == [job.name for job in reordered]

    def test_payload_excludes_display_metadata(self):
        job = experiment_point_jobs("reorder", tiny_config("reorder"))[0]
        payload = execute_any(job).payload()
        assert "name" not in payload
        assert "index" not in payload
        assert "from_cache" not in payload
        assert payload["digest"] == job_digest(job)

    def test_non_dict_point_values_fail_loudly(self):
        job = ExperimentPointJob(name="bad", experiment="pathcover",
                                 index=0, params={"n": 8})
        definition = get_experiment("pathcover")
        original = definition.run_point
        object.__setattr__(definition, "run_point", lambda params: [1])
        try:
            with pytest.raises(BatchError, match="must return a dict"):
                job.execute()
        finally:
            object.__setattr__(definition, "run_point", original)


class TestBitIdentity:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_matches_pre_migration_golden(self, experiment):
        """The sharded run reproduces the retired sequential loop's
        summary bit-for-bit (timing fields excluded by construction)."""
        assert normalize_summary(baseline_summary(experiment)) \
            == GOLDEN[experiment]["summary"]

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_bit_identical_across_worker_counts(self, experiment):
        parallel = run_experiment(experiment, tiny_config(experiment),
                                  n_workers=2)
        assert normalize_summary(parallel) \
            == normalize_summary(baseline_summary(experiment))
        assert parallel.n_points_cached == 0

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_bit_identical_cold_vs_cached(self, experiment, tmp_path):
        """A warm re-run recomputes nothing and reproduces the cold
        summary exactly -- including stored wall-clock fields, which a
        cache hit replays rather than remeasures."""
        store = ShardedDirectoryCache(tmp_path / "points")
        config = tiny_config(experiment)
        cold = run_experiment(experiment, config, cache=store)
        warm = run_experiment(experiment, config,
                              cache=ShardedDirectoryCache(store.root))
        assert normalize_summary(warm, keep_point_timings=True) \
            == normalize_summary(cold, keep_point_timings=True)
        assert cold.n_points_cached == 0
        assert warm.n_points_compiled == 0
        assert warm.n_points_cached == cold.n_points_compiled

    def test_partial_cache_only_computes_whats_missing(self, tmp_path):
        store = ShardedDirectoryCache(tmp_path / "points")
        config = tiny_config("modreg")
        jobs = experiment_point_jobs("modreg", config)
        list(BatchCompiler(cache=store).as_completed(jobs[:1]))
        summary = run_experiment("modreg", config, cache=store)
        assert summary.n_points_cached == 1
        assert summary.n_points_compiled == len(jobs) - 1
        assert normalize_summary(summary) == GOLDEN["modreg"]["summary"]

    def test_progress_callback_streams_every_point(self):
        config = tiny_config("costmodel")
        total_points = len(experiment_point_jobs("costmodel", config))
        seen = []
        run_experiment("costmodel", config,
                       progress=lambda done, total, result:
                       seen.append((done, total, result.name)))
        assert [done for done, _, _ in seen] \
            == list(range(1, total_points + 1))
        assert all(total == total_points for _, total, _ in seen)
        assert len({name for _, _, name in seen}) == total_points


class TestBitIdentityAcrossExecutors:
    """The executor differential: the summary every experiment
    assembles is bit-identical whether its points ran inline, on a
    local pool spec, or on a worker fleet behind a job server."""

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_bit_identical_through_cluster_executor(self, experiment):
        from _cluster_jobs import thread_fleet

        from repro.batch.cluster import ClusterExecutor

        with thread_fleet(n_workers=2) as server:
            clustered = run_experiment(
                experiment, tiny_config(experiment),
                executor=ClusterExecutor(*server.address))
        assert normalize_summary(clustered) \
            == normalize_summary(baseline_summary(experiment))
        assert clustered.n_points_cached == 0

    def test_bit_identical_through_local_pool_spec(self):
        summary = run_experiment("modreg", tiny_config("modreg"),
                                 executor="local:2")
        assert normalize_summary(summary) \
            == normalize_summary(baseline_summary("modreg"))

    def test_cluster_run_persists_into_a_resumable_cache(
            self, tmp_path):
        """A cluster run warms the same cache a local run resumes
        from -- compute location never leaks into cache identity."""
        from _cluster_jobs import thread_fleet

        from repro.batch.cluster import ClusterExecutor

        store = ShardedDirectoryCache(tmp_path / "points")
        config = tiny_config("reorder")
        with thread_fleet(n_workers=2) as server:
            warmed = run_experiment(
                "reorder", config, cache=store,
                executor=ClusterExecutor(*server.address))
        cached = run_experiment(
            "reorder", config,
            cache=ShardedDirectoryCache(store.root))
        assert cached.n_points_compiled == 0
        assert cached.n_points_cached == warmed.n_points_compiled
        assert normalize_summary(cached, keep_point_timings=True) \
            == normalize_summary(warmed, keep_point_timings=True)


class TestCachePayloadIsolation:
    """PR 2's aliasing guarantee, extended to the new job type: a
    caller mutating a streamed result's ``values`` must never corrupt
    what any backend replays later."""

    def _backends(self, tmp_path):
        return (InMemoryLRUCache(),
                JsonFileCache(tmp_path / "points.json"),
                ShardedDirectoryCache(tmp_path / "points"))

    def test_mutating_results_never_reaches_the_cache(self, tmp_path):
        job = experiment_point_jobs("reorder", tiny_config("reorder"))[0]
        reference = execute_any(job).values
        for cache in self._backends(tmp_path):
            compiler = BatchCompiler(cache=cache)
            (cold,) = list(compiler.run_iter([job]))
            cold.values.clear()  # caller mutates the streamed payload
            (warm,) = list(compiler.run_iter([job]))
            assert warm.from_cache, type(cache).__name__
            assert warm.values == reference, type(cache).__name__
            warm.values["mean_fixed_order"] = -1.0
            (again,) = list(compiler.run_iter([job]))
            assert again.values == reference, type(cache).__name__

    def test_cache_get_returns_isolated_payloads(self, tmp_path):
        job = experiment_point_jobs("reorder", tiny_config("reorder"))[0]
        digest = job_digest(job)
        for cache in self._backends(tmp_path):
            cache.put(digest, execute_any(job).payload())
            first = cache.get(digest)
            first["values"]["mean_fixed_order"] = -1.0
            second = cache.get(digest)
            assert second["values"]["mean_fixed_order"] != -1.0, \
                type(cache).__name__


class TestMergingSeedScheme:
    """The EXP-A3 instance of the EXP-S1 seed-reuse audit: naive
    merge-order streams must be disjoint across grid points and must
    never alias a pattern stream."""

    def _jobs(self):
        return experiment_point_jobs("merging")

    def test_naive_streams_are_disjoint_across_grid_points(self):
        streams = []
        for job in self._jobs():
            streams.append({
                naive_baseline_seed(job.params["naive_seed"],
                                    pattern_index, 0)
                for pattern_index in range(job.params["patterns"])})
        for i, first in enumerate(streams):
            for second in streams[i + 1:]:
                assert not first & second

    def test_pattern_seeds_never_alias_naive_streams(self):
        jobs = self._jobs()
        pattern_seeds = {job.params["seed"] for job in jobs}
        naive_seeds = {
            naive_baseline_seed(job.params["naive_seed"], pattern_index,
                                0)
            for job in jobs
            for pattern_index in range(job.params["patterns"])}
        assert not pattern_seeds & naive_seeds

    def test_naive_baselines_resample_across_grid_index(self):
        """Same patterns at a different naive base: the optimized side
        is unchanged, the naive-random baseline resamples."""
        from repro.batch.jobs import NAIVE_SEED_STRIDE

        job = dataclasses.replace(
            self._jobs()[0],
            params={**self._jobs()[0].params, "n": 12, "patterns": 8})
        shifted = dataclasses.replace(job, params={
            **job.params,
            "naive_seed": job.params["naive_seed"] + NAIVE_SEED_STRIDE})
        first, second = job.execute(), shifted.execute()
        assert first.values["mean_best_pair"] \
            == second.values["mean_best_pair"]
        assert first.values["mean_optimal"] \
            == second.values["mean_optimal"]
        assert first.values["mean_naive_random"] \
            != second.values["mean_naive_random"]


class TestDistributionSeedScheme:
    """The EXP-S3 instance of the audit: each distribution repetition
    draws its own naive-baseline streams."""

    def test_distribution_naive_streams_are_disjoint(self):
        config = get_experiment("distributions").default_config()
        per_distribution: dict[str, set] = {}
        for job in experiment_point_jobs("distributions", config):
            per_distribution.setdefault(
                job.params["distribution"], set()).add(
                    job.params["naive_seed"])
        assert list(per_distribution) == list(config.distributions)
        streams = list(per_distribution.values())
        for i, first in enumerate(streams):
            for second in streams[i + 1:]:
                assert not first & second

    def test_default_statistical_points_unchanged_by_base_field(self):
        """``naive_seed_base=None`` must reproduce the per-grid seeding
        exactly (the derived point seeds never change)."""
        from repro.analysis.experiments import StatisticalConfig
        from repro.batch.jobs import NAIVE_SEED_STRIDE

        config = StatisticalConfig(n_values=(10,), m_values=(1,),
                                   k_values=(2, 3), seed=77)
        jobs = experiment_point_jobs("stats", config)
        for grid_index, job in enumerate(jobs):
            assert job.params["naive_seed"] \
                == config.seed + NAIVE_SEED_STRIDE * (grid_index + 1)
