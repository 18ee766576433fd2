"""Layout-aware addressing: choosing array bases to help the AGU.

The paper (and this library's default model) treats the distance
between accesses to *different* arrays as unknown: a register crossing
arrays always pays a unit-cost re-load.  But array base addresses are
the compiler's to choose -- with a concrete :class:`MemoryLayout` the
distance between ``A[c*i + d1]`` and ``B[c*i + d2]`` *is* a compile-time
constant, and placing ``B`` cleverly relative to ``A`` can bring
frequent cross-array transitions into the auto-modify range.  This is
the address-calculation-by-layout idea of the paper's ref [1]
(Liem/Paulin/Jerraya).

* :mod:`repro.arraylayout.distance` -- concrete (layout-resolved)
  distances.  An allocation's cost under a layout is
  :func:`~repro.merging.cost.cover_cost` with ``layout=``: the one cost
  kernel, with the coefficient as the group and each offset shifted by
  its array's base.
* :mod:`repro.arraylayout.optimize` -- gap selection between adjacently
  placed arrays (greedy, most-frequent-transition first), optionally
  over all placement orders for small array counts.

The extension composes with everything else: code generated against an
optimized layout folds the now-constant cross-array updates, and the
AGU simulator verifies every address as usual.
"""

from repro.arraylayout.distance import (
    concrete_intra_distance,
    concrete_wrap_distance,
)
from repro.arraylayout.optimize import LayoutPlan, optimize_layout

__all__ = [
    "LayoutPlan",
    "concrete_intra_distance",
    "concrete_wrap_distance",
    "optimize_layout",
]
