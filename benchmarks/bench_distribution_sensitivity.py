"""EXP-S3: robustness of the headline claim across offset distributions.

The paper does not pin down what "random access patterns" means;
a faithful reproduction should not depend on the choice.  This bench
repeats the EXP-S1 comparison under all four generator distributions.
"""

from repro.analysis.experiments import (
    DistributionSensitivityConfig,
    run_experiment,
)
from repro.analysis.render import distribution_table

from _bench_util import publish, run_once


def bench_exp_s3_distribution_sensitivity(benchmark):
    summary = run_once(benchmark, run_experiment, "distributions",
                       DistributionSensitivityConfig())

    publish("exp_s3_distributions",
            distribution_table(summary).render(), summary)

    for row in summary.rows:
        # Best-pair merging must win under every distribution.
        assert row.average_reduction_pct > 10.0, row.distribution
        assert row.mean_optimized <= row.mean_naive
