"""EXP-A2: cost-model ablation -- the literal intra C(P) vs steady state.

The paper defines C(P) over intra-iteration pairs but computes K~ with
inter-iteration dependencies.  This ablation quantifies what merging
with the literal intra-only C(P) leaves on the table in real
(steady-state) cost, justifying the library's default.
"""

from repro.analysis.experiments import (
    CostModelAblationConfig,
    run_experiment,
)
from repro.analysis.render import cost_model_table

from _bench_util import publish, run_once


def bench_exp_a2_cost_model(benchmark):
    summary = run_once(benchmark, run_experiment, "costmodel",
                       CostModelAblationConfig())

    headline = (f"\nEXP-A2 headline: wrap-aware merging saves "
                f"{summary.mean_penalty_pct:.1f} % steady-state cost on "
                f"average vs merging with the literal intra-only C(P)\n")
    publish("exp_a2_costmodel", cost_model_table(summary).render()
            + headline, summary)

    # Steady-state merging can never lose under its own metric.
    for row in summary.rows:
        assert row.mean_steady_when_merged_steady <= \
            row.mean_steady_when_merged_intra + 1e-9
    assert summary.mean_penalty_pct >= 0.0
