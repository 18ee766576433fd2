"""The bitmask access graph against the edge-set oracle.

:class:`~repro.graph.access_graph.AccessGraph` stores its edges as one
bitmask per node and derives every public view from them.  This module
builds the same graphs with the frozenset/bisect construction it
replaced (``tests/_reference_access_graph.py``) and checks that every
view agrees -- the edge sets, both neighbour tuples, the edge probes
(out-of-range nodes included), the size summary -- and that the
bitmasks themselves hold exactly the reference edges.

Corpus: the 26 library kernels and 520 random patterns (1-3 arrays,
N <= 40, mixed index coefficients, loop variable names and loop steps),
each at M in {0, 1, 2, 4}.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.access_graph import AccessGraph, set_bits
from repro.ir.expr import AffineExpr
from repro.ir.types import AccessPattern, ArrayAccess
from repro.workloads.kernels import KERNELS, get_kernel

from _reference_access_graph import ReferenceAccessGraph

MODIFY_RANGES = (0, 1, 2, 4)

#: Random patterns per seed block; 13 blocks of 40 give 520 patterns.
_BLOCK = 40


def random_pattern(rng: random.Random) -> AccessPattern:
    """1-3 arrays, up to 40 accesses, coefficients in {-1, 0, 1, 2}, a
    loop variable other than ``i`` now and then, loop step in
    {1, 2, -1, 3}."""
    arrays = ["x", "y", "z"][:rng.randint(1, 3)]
    span = rng.randint(1, 8)
    variable = "j" if rng.random() < 0.15 else "i"
    accesses = []
    for _ in range(rng.randint(0, 40)):
        coefficient = rng.choice((1, 1, 1, 0, 2, -1))
        accesses.append(ArrayAccess(
            rng.choice(arrays),
            AffineExpr(coefficient, rng.randint(-span, span), variable)))
    return AccessPattern(tuple(accesses), step=rng.choice((1, 1, 2, -1, 3)),
                         loop_var=variable)


def assert_graphs_agree(pattern: AccessPattern, modify_range: int) -> None:
    """Every view of the bitmask graph equals the oracle's."""
    graph = AccessGraph(pattern, modify_range)
    oracle = ReferenceAccessGraph(pattern, modify_range)
    n = oracle.n_nodes
    assert graph.n_nodes == n
    assert graph.intra_edges == oracle.intra_edges
    assert graph.inter_edges == oracle.inter_edges
    assert graph.offsets == oracle.offsets
    assert graph.max_wrap_source == oracle.max_wrap_source
    for node in range(n):
        assert graph.successors(node) == oracle.successors[node]
        assert graph.predecessors(node) == oracle.predecessors[node]
        assert set_bits(graph.succ_bits[node]) == list(
            oracle.successors[node])
        assert {(node, p) for p in set_bits(graph.wrap_bits[node])} == {
            edge for edge in oracle.inter_edges if edge[0] == node}
    probes = range(-1, n + 1)
    for p in probes:
        for q in probes:
            assert graph.has_intra_edge(p, q) == oracle.has_intra_edge(p, q)
            assert graph.has_inter_edge(p, q) == oracle.has_inter_edge(p, q)
    stats = graph.stats()
    assert (stats.n_intra_edges, stats.n_inter_edges) == (
        len(oracle.intra_edges), len(oracle.inter_edges))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_library_kernels_agree(name):
    pattern = get_kernel(name).kernel().pattern
    for modify_range in MODIFY_RANGES:
        assert_graphs_agree(pattern, modify_range)


@pytest.mark.parametrize("block", range(13))
def test_random_patterns_agree(block):
    rng = random.Random(0xB175 + block)
    for _ in range(_BLOCK):
        pattern = random_pattern(rng)
        for modify_range in MODIFY_RANGES:
            assert_graphs_agree(pattern, modify_range)


def test_corpus_covers_every_edge_kind():
    """The random corpus exercises what the bitmasks must get right:
    multi-group patterns, a loop variable other than ``i``, and wrap
    edges."""
    rng = random.Random(0xB175)
    patterns = [random_pattern(rng) for _ in range(_BLOCK)]
    assert any(len(p.group_keys()) > 2 for p in patterns)
    assert any(p.loop_var != "i" and any(a.coefficient for a in p)
               for p in patterns)
    assert any(AccessGraph(p, 1).inter_edges for p in patterns)
