"""EXP-X1: the modify-register extension (beyond the paper).

Classic DSP AGUs carry modify registers whose preloaded constant can be
added to an address register for free; this bench sweeps the MR count
and reports the residual addressing cost after exact value selection
plus iterative re-merging.
"""

from repro.analysis.experiments import (
    ModRegAblationConfig,
    run_experiment,
)
from repro.analysis.render import modreg_table

from _bench_util import publish, run_once


def bench_exp_x1_modify_registers(benchmark):
    summary = run_once(benchmark, run_experiment, "modreg",
                       ModRegAblationConfig())

    publish("exp_x1_modreg", modreg_table(summary).render(), summary)

    by_config: dict[tuple[int, int], list] = {}
    for row in summary.rows:
        by_config.setdefault((row.n, row.k), []).append(row)
    for rows in by_config.values():
        rows.sort(key=lambda row: row.n_modify_registers)
        costs = [row.mean_cost for row in rows]
        # More modify registers never hurt (free set only grows).
        assert costs == sorted(costs, reverse=True)
        # And a 4-MR file recovers a substantial share of the cost.
        assert rows[-1].reduction_vs_no_mr_pct > 20.0
