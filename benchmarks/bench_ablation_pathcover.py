"""EXP-A1: phase-1 ablation -- matching LB vs exact K~ vs greedy UB.

Quantifies how tight the bootstrap bounds of section 3.1 are and what
exactness costs in search nodes and milliseconds.
"""

from repro.analysis.experiments import (
    PathCoverAblationConfig,
    run_experiment,
)
from repro.analysis.render import path_cover_table

from _bench_util import publish, run_once


def bench_exp_a1_path_cover_ablation(benchmark):
    summary = run_once(benchmark, run_experiment, "pathcover",
                       PathCoverAblationConfig())

    publish("exp_a1_pathcover", path_cover_table(summary).render(),
            summary)

    for row in summary.rows:
        # LB <= K~ <= greedy on every aggregate.
        assert row.mean_lower_bound <= row.mean_k_tilde + 1e-9
        assert row.mean_k_tilde <= row.mean_greedy + 1e-9
    # The matching bound is tight often enough overall to be useful.
    lb_rate = sum(row.lb_tight_fraction for row in summary.rows) \
        / len(summary.rows)
    assert lb_rate >= 0.3
