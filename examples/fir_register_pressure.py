"""Register-pressure sweep on a real DSP kernel (16-tap FIR).

Shows how the addressing cost of a realistic filter loop grows as the
AGU's register file shrinks -- the trade-off the paper's phase 2
navigates -- and compares the paper's best-pair merging against the
naive baseline at every pressure level.

Run:  python examples/fir_register_pressure.py
"""

from repro import AddressRegisterAllocator, AguSpec
from repro.tables import Column, Table
from repro.workloads.kernels import get_kernel


def main() -> None:
    entry = get_kernel("fir16")
    kernel = entry.kernel()
    n = len(kernel.pattern)
    print(f"kernel: {entry.name} -- {entry.description}")
    print(f"accesses per iteration: {n}\n")

    table = Table([
        Column("K", "k"),
        Column("K~", "k_tilde"),
        Column("best-pair cost", "best"),
        Column("naive cost", "naive"),
        Column("baseline (no AGU)", "baseline"),
    ], title="addressing cost per iteration vs register count")

    for k in (16, 12, 8, 6, 4, 3, 2, 1):
        allocator = AddressRegisterAllocator(AguSpec(k, 1))
        optimized = allocator.allocate(kernel)
        naive = allocator.allocate_naive(kernel, seed=0)
        table.add_row(k=k, k_tilde=optimized.k_tilde,
                      best=optimized.total_cost, naive=naive.total_cost,
                      baseline=n)
    print(table.render())
    print("K~ registers make addressing free; below that, best-pair")
    print("merging degrades much more gracefully than naive merging.")


if __name__ == "__main__":
    main()
