"""EXP-X2: the access-reordering extension (beyond the paper).

The paper fixes the intra-iteration access order; with a conservative
dependence analysis a code generator may reorder, and the allocator
then reaches cheaper schemes.  This bench quantifies the gain on random
patterns that contain writes (so real dependences constrain the
search).
"""

from repro.analysis.experiments import (
    ReorderAblationConfig,
    run_experiment,
)
from repro.analysis.render import reorder_table

from _bench_util import publish, run_once


def bench_exp_x2_reordering(benchmark):
    summary = run_once(benchmark, run_experiment, "reorder",
                       ReorderAblationConfig())

    headline = (f"\nEXP-X2 headline: reordering reduces addressing cost "
                f"by {summary.mean_reduction_pct:.1f} % on average on "
                f"top of the paper's allocator\n")
    publish("exp_x2_reorder", reorder_table(summary).render() + headline,
            summary)

    for row in summary.rows:
        # By construction reordering can never lose.
        assert row.mean_reordered <= row.mean_fixed_order + 1e-9
    assert summary.mean_reduction_pct > 15.0
