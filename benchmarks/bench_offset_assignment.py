"""EXP-O1: the offset-assignment substrate (the paper's refs [4, 5]).

SOA heuristics (Liao; Leupers/Marwedel tie-break) against the OFU
baseline and the exhaustive optimum, plus GOA partitioning over k
address registers.
"""

from repro.analysis.experiments import (
    OffsetComparisonConfig,
    run_experiment,
)
from repro.analysis.render import offset_goa_table, offset_soa_table

from _bench_util import publish, run_once


def bench_exp_o1_offset_assignment(benchmark):
    summary = run_once(benchmark, run_experiment, "offset",
                       OffsetComparisonConfig())

    text = (offset_soa_table(summary).render() + "\n"
            + offset_goa_table(summary).render())
    headline = (f"\nEXP-O1 headline: SOA cost reduction vs OFU -- Liao "
                f"{summary.mean_liao_reduction_pct:.1f} %, tie-break "
                f"{summary.mean_tiebreak_reduction_pct:.1f} %\n")
    publish("exp_o1_offset", text + headline, summary)

    for row in summary.soa_rows:
        assert row.mean_liao <= row.mean_ofu + 1e-9
        assert row.mean_tiebreak <= row.mean_ofu + 1e-9
        if row.mean_optimal is not None:
            assert row.mean_optimal <= row.mean_tiebreak + 1e-9
    assert summary.mean_tiebreak_reduction_pct >= \
        summary.mean_liao_reduction_pct - 5.0
