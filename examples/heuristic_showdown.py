"""Best-pair merging vs naive merging vs the exhaustive optimum.

A miniature version of the paper's statistical analysis (Results
section) on instances small enough that the true optimum can be
computed: draws random access patterns, allocates with all three
strategies, and prints the per-pattern and aggregate outcome.

Run:  python examples/heuristic_showdown.py
"""

from repro import AddressRegisterAllocator, AguSpec, optimal_allocation
from repro.analysis.stats import mean, percent_reduction
from repro.tables import Column, Table
from repro.workloads.random_patterns import (
    RandomPatternConfig,
    generate_batch,
)

N_ACCESSES = 10
N_PATTERNS = 12
K, M = 2, 1


def main() -> None:
    allocator = AddressRegisterAllocator(AguSpec(K, M))
    patterns = generate_batch(
        RandomPatternConfig(N_ACCESSES, offset_span=6), N_PATTERNS,
        seed=2024)

    table = Table([
        Column("#", "index"),
        Column("offsets", "offsets", align="<"),
        Column("K~", "k_tilde"),
        Column("optimal", "optimal"),
        Column("best-pair", "best"),
        Column("naive", "naive"),
    ], title=f"unit-cost address computations (K={K}, M={M})")

    optimal_costs, best_costs, naive_costs = [], [], []
    for index, pattern in enumerate(patterns):
        best = allocator.allocate(pattern)
        naive = allocator.allocate_naive(pattern, seed=index)
        optimum = optimal_allocation(pattern, K, M)
        optimal_costs.append(optimum.total_cost)
        best_costs.append(best.total_cost)
        naive_costs.append(naive.total_cost)
        table.add_row(index=index, offsets=str(list(pattern.offsets())),
                      k_tilde=best.k_tilde, optimal=optimum.total_cost,
                      best=best.total_cost, naive=naive.total_cost)

    print(table.render())
    reduction = percent_reduction(mean(naive_costs), mean(best_costs))
    gap = percent_reduction(mean(best_costs), mean(optimal_costs))
    print(f"means: optimal {mean(optimal_costs):.2f}, "
          f"best-pair {mean(best_costs):.2f}, "
          f"naive {mean(naive_costs):.2f}")
    print(f"best-pair cuts naive cost by {reduction:.1f} % "
          f"(paper reports ~40 % over its full grid)")
    print(f"and sits {gap:.1f} % above the exhaustive optimum.")


if __name__ == "__main__":
    main()
