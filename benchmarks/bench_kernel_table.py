"""EXP-K1: DSP kernels -- optimized addressing vs a naive C compiler.

The paper cites [1] for "improvements up to 30 % and 60 % in code size
and speed due to optimized array index computation, as compared to code
compiled by a regular C compiler".  This bench regenerates the per-
kernel table on our kernel library with both programs audited by the
AGU simulator.
"""

from repro.agu.model import AguSpec
from repro.analysis.experiments import (
    KernelComparisonConfig,
    run_experiment,
)
from repro.analysis.render import kernel_table

from _bench_util import publish, run_once


def bench_exp_k1_kernel_comparison(benchmark):
    """Time: allocate + codegen + simulate every kernel, twice."""
    config = KernelComparisonConfig(spec=AguSpec(4, 1, "kernel_eval"))
    summary = run_once(benchmark, run_experiment, "kernels", config)

    headline = (
        f"\nEXP-K1 headline: mean addressing-overhead reduction "
        f"{summary.mean_overhead_reduction_pct:.1f} %, mean whole-"
        f"iteration speed improvement "
        f"{summary.mean_speed_improvement_pct:.1f} % "
        f"(paper, citing [1]: up to 30 % code size / 60 % speed)\n")
    publish("exp_k1_kernels", kernel_table(summary).render() + headline,
            summary)

    # Shape checks: optimized addressing never loses, and the average
    # improvement is substantial (tens of percent).
    for row in summary.rows:
        assert row.optimized_overhead <= row.baseline_overhead
    assert summary.mean_overhead_reduction_pct > 50.0
    assert summary.mean_speed_improvement_pct > 25.0


def bench_exp_k1_tight_registers(benchmark):
    """Same table under register pressure (K=2): merging must engage."""
    config = KernelComparisonConfig(spec=AguSpec(2, 1, "tight"))
    summary = run_once(benchmark, run_experiment, "kernels", config)
    publish("exp_k1_kernels_k2", kernel_table(summary).render(), summary)
    assert summary.mean_overhead_reduction_pct > 30.0
