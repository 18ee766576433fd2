"""EXP-X3: the array-layout extension (beyond the paper).

Array base addresses are the compiler's to choose; placing arrays so
that frequent cross-array register transitions land inside the
auto-modify range removes their unit cost -- the layout angle of the
paper's ref [1].
"""

from repro.analysis.experiments import (
    ArrayLayoutAblationConfig,
    run_experiment,
)
from repro.analysis.render import array_layout_table

from _bench_util import publish, run_once


def bench_exp_x3_array_layout(benchmark):
    summary = run_once(benchmark, run_experiment, "arraylayout",
                       ArrayLayoutAblationConfig())

    headline = (f"\nEXP-X3 headline: optimized array placement cuts "
                f"{summary.mean_reduction_pct:.1f} % of the addressing "
                f"cost on multi-array patterns\n")
    publish("exp_x3_arraylayout",
            array_layout_table(summary).render() + headline, summary)

    for row in summary.rows:
        # The optimizer keeps the reference layout when it cannot win.
        assert row.mean_optimized <= row.mean_default + 1e-9
    assert summary.mean_reduction_pct >= 0.0
