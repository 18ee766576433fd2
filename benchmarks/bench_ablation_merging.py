"""EXP-A3: merging-strategy ablation against the exhaustive optimum.

Positions the paper's best-pair heuristic between the naive baselines
and the true optimum on instances small enough to solve exactly.
"""

from repro.analysis.experiments import (
    MergingAblationConfig,
    run_experiment,
)
from repro.analysis.render import merging_table

from _bench_util import publish, run_once


def bench_exp_a3_merging_ablation(benchmark):
    summary = run_once(benchmark, run_experiment, "merging",
                       MergingAblationConfig())

    publish("exp_a3_merging", merging_table(summary).render(), summary)

    for row in summary.rows:
        # optimal <= best-pair on every aggregate (per-instance asserted
        # in the unit tests); best-pair beats both naive baselines.
        assert row.mean_optimal <= row.mean_best_pair + 1e-9
        assert row.mean_best_pair <= row.mean_naive_random + 1e-9
        assert row.mean_best_pair <= row.mean_naive_first + 1e-9
        # The heuristic stays near the optimum on every grid point...
        assert row.best_pair_gap_pct <= 30.0
    # ... and hits it exactly on a solid share of instances overall.
    hit_rate = sum(row.best_pair_optimal_fraction for row in summary.rows) \
        / len(summary.rows)
    assert hit_rate >= 0.4
