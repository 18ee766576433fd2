"""Differential tests across the solver stack.

Every phase of the pipeline has at least two independent
implementations (a bound, an exact solver, a heuristic, baselines);
this module pits them against each other over a corpus of seeded
random patterns and asserts the invariants that must hold between
them:

* phase 1: ``greedy cover >= exact K~ >= cycle-cover bound >=
  matching lower bound``;
* phase 1 against the search alone (``_reference_branch_and_bound.py``,
  which never takes the root assignment as its cover), here and on a
  grid-like corpus: ``K~`` is no larger, equal and proven wherever the
  reference proved it, and no more search nodes are explored;
* phase 2: every merging strategy's cost dominates the exhaustive
  optimum, all strategies agree when no merging is needed, and each
  strategy's incremental cost bookkeeping matches a from-scratch
  ``cover_cost`` recomputation;
* phase 2 against its all-pairs reference (``_reference_merge.py``):
  best-pair and naive merging return the identical ``MergeResult``.
"""

from __future__ import annotations

import pytest

from repro.graph.access_graph import AccessGraph
from repro.ir.builder import pattern_from_offsets
from repro.merging.cost import CostModel, cover_cost
from repro.merging.exhaustive import optimal_allocation
from repro.merging.greedy import best_pair_merge
from repro.merging.naive import NAIVE_STRATEGIES, naive_merge
from repro.pathcover.assignment import cycle_cover_bound
from repro.pathcover.branch_and_bound import minimum_zero_cost_cover
from repro.pathcover.heuristic import greedy_zero_cost_cover
from repro.pathcover.lower_bound import intra_cover_lower_bound
from repro.pathcover.paths import PathCover
from repro.pathcover.verify import is_zero_cost_path
from repro.workloads.random_patterns import (
    RandomPatternConfig,
    generate_batch,
    generate_pattern,
)

from _reference_branch_and_bound import (
    minimum_zero_cost_cover as reference_cover,
)
from _reference_merge import (
    reference_best_pair_merge,
    reference_naive_merge,
)

#: Seeds of the differential corpus (sizes and shapes cycle per seed).
CORPUS_SEEDS = range(50)

#: Offset distributions cycled across the corpus.
_SHAPES = ("uniform", "clustered", "sweep", "mixed")


def corpus_pattern(seed: int, n_min: int = 6, n_max: int = 18):
    """The corpus pattern for one seed: varied size, span, and shape."""
    n = n_min + seed % (n_max - n_min + 1)
    return generate_pattern(
        RandomPatternConfig(n, offset_span=3 + seed % 6,
                            distribution=_SHAPES[seed % len(_SHAPES)]),
        seed=0xD1FF + seed)


class TestPhase1CoverChain:
    """Lower bound <= exact K~ <= greedy cover, over the whole corpus."""

    @pytest.mark.parametrize("modify_range", [1, 2])
    def test_bound_exact_greedy_chain(self, modify_range):
        exact_proofs = 0
        for seed in CORPUS_SEEDS:
            pattern = corpus_pattern(seed)
            graph = AccessGraph(pattern, modify_range)
            bound = intra_cover_lower_bound(graph)
            outcome = minimum_zero_cost_cover(pattern, modify_range)
            greedy = greedy_zero_cost_cover(graph)

            assert greedy.n_paths >= outcome.k_tilde >= bound, \
                f"seed {seed}: chain violated"
            assert 1 <= bound <= len(pattern)
            assert greedy.n_accesses == len(pattern)
            assert outcome.cover.n_paths == outcome.k_tilde
            exact_proofs += outcome.optimal
        # The corpus is sized so the exact solver proves optimality
        # throughout; a budget regression would silently weaken the
        # chain above, so pin it.
        assert exact_proofs == len(CORPUS_SEEDS)

    @pytest.mark.parametrize("modify_range", [1, 2])
    def test_matching_cycle_exact_chain(self, modify_range):
        """matching bound <= cycle-cover bound <= exact K~."""
        stronger = 0
        for seed in CORPUS_SEEDS:
            pattern = corpus_pattern(seed)
            graph = AccessGraph(pattern, modify_range)
            matching = intra_cover_lower_bound(graph)
            cycle = cycle_cover_bound(graph)
            outcome = minimum_zero_cost_cover(pattern, modify_range)
            assert cycle is not None, f"seed {seed}: cover exists"
            assert matching <= cycle <= outcome.k_tilde, \
                f"seed {seed}: chain violated"
            stronger += cycle > matching
        # The corpus must tell the two bounds apart somewhere.
        assert stronger > 0

    def test_both_covers_are_zero_cost(self):
        """Exact and greedy phase-1 covers both cost nothing intra."""
        for seed in CORPUS_SEEDS:
            pattern = corpus_pattern(seed)
            graph = AccessGraph(pattern, 1)
            outcome = minimum_zero_cost_cover(pattern, 1)
            greedy = greedy_zero_cost_cover(graph)
            assert cover_cost(outcome.cover, pattern, 1,
                              CostModel.INTRA) == 0
            assert cover_cost(greedy, pattern, 1, CostModel.INTRA) == 0


#: Offsets (M=1) of an EXP-A1 pattern (N=20) that the search alone
#: leaves unproven at 10 paths within 2,000 nodes; its cheapest
#: assignment is a 7-path cover.
ROOT_SETTLED_OFFSETS = (-6, 2, 1, -3, 0, 1, 6, -3, 0, -5, 5, 5, 0, 0, -1,
                        4, 4, 0, 3, 6)


def grid_corpus():
    """EXP-S1-like groups: its generator (offset span 8) at N in
    {10, 15, 20} and M in {1, 2, 4}, 30 patterns each."""
    for n in (10, 15, 20):
        for m in (1, 2, 4):
            for pattern in generate_batch(
                    RandomPatternConfig(n, offset_span=8), 30,
                    seed=1998 + 31 * n + m):
                yield pattern, m


def no_worse_than_the_search_alone(pattern, modify_range, node_budget):
    """Phase 1 and the reference on one instance, after asserting that
    phase 1 is no worse on ``K~``, proof and nodes."""
    outcome = minimum_zero_cost_cover(pattern, modify_range, node_budget)
    reference = reference_cover(pattern, modify_range, node_budget)
    assert outcome.k_tilde <= reference.k_tilde
    if reference.optimal:
        assert outcome.optimal
        assert outcome.k_tilde == reference.k_tilde
    assert outcome.nodes_explored <= reference.nodes_explored
    return outcome, reference


class TestPhase1AgainstTheSearchAlone:
    """The root assignment only ever settles a group sooner."""

    @pytest.mark.parametrize("modify_range", [1, 2])
    def test_differential_corpus(self, modify_range):
        for seed in CORPUS_SEEDS:
            no_worse_than_the_search_alone(corpus_pattern(seed),
                                           modify_range, 200_000)

    def test_grid_corpus(self):
        settled = 0
        for pattern, modify_range in grid_corpus():
            outcome, reference = no_worse_than_the_search_alone(
                pattern, modify_range, 30_000)
            assert all(is_zero_cost_path(path, pattern, modify_range)
                       for path in outcome.cover)
            settled += outcome.nodes_explored < reference.nodes_explored
        # The corpus must reach the root assignment somewhere.
        assert settled > 0

    def test_a_group_the_search_leaves_unproven_is_settled_at_the_root(
            self):
        pattern = pattern_from_offsets(ROOT_SETTLED_OFFSETS)
        outcome, reference = no_worse_than_the_search_alone(pattern, 1,
                                                            2_000)
        assert (reference.k_tilde, reference.optimal) == (10, False)
        assert (outcome.k_tilde, outcome.optimal) == (7, True)
        assert outcome.nodes_explored == 0


class TestPhase2MergingChain:
    """Optimal <= best-pair and optimal <= every naive strategy."""

    K = 2
    M = 1

    def small_corpus(self):
        """Patterns small enough for the exhaustive optimum."""
        for seed in CORPUS_SEEDS:
            yield seed, corpus_pattern(seed, n_min=5, n_max=9)

    @pytest.mark.parametrize("cost_model",
                             [CostModel.INTRA, CostModel.STEADY_STATE])
    def test_every_strategy_dominates_the_optimum(self, cost_model):
        for seed, pattern in self.small_corpus():
            outcome = minimum_zero_cost_cover(pattern, self.M)
            optimum = optimal_allocation(pattern, self.K, self.M,
                                         cost_model)
            if outcome.cover.n_paths <= self.K:
                # No merging needed: every competitor returns the
                # phase-1 cover's cost, and the optimum can only
                # improve on it via a different partition.
                cost = cover_cost(outcome.cover, pattern, self.M,
                                  cost_model)
                assert optimum.total_cost <= cost
                continue
            best = best_pair_merge(outcome.cover, self.K, pattern,
                                   self.M, cost_model)
            assert best.n_registers <= self.K
            assert best.total_cost >= optimum.total_cost, f"seed {seed}"
            for strategy in sorted(NAIVE_STRATEGIES):
                naive = naive_merge(outcome.cover, self.K, pattern,
                                    self.M, cost_model,
                                    strategy=strategy, seed=seed)
                assert naive.n_registers <= self.K
                assert naive.total_cost >= optimum.total_cost, \
                    f"seed {seed}, strategy {strategy}"

    def test_merge_bookkeeping_matches_recomputation(self):
        """Incrementally tracked costs == from-scratch cover_cost."""
        for seed in CORPUS_SEEDS:
            pattern = corpus_pattern(seed)
            outcome = minimum_zero_cost_cover(pattern, self.M)
            if outcome.cover.n_paths <= self.K:
                continue
            for result in [
                best_pair_merge(outcome.cover, self.K, pattern, self.M,
                                CostModel.STEADY_STATE),
                naive_merge(outcome.cover, self.K, pattern, self.M,
                            CostModel.STEADY_STATE, strategy="random",
                            seed=seed),
            ]:
                assert result.total_cost == cover_cost(
                    result.cover, pattern, self.M,
                    CostModel.STEADY_STATE), f"seed {seed}"

    def test_exhaustive_optimum_is_a_fixpoint_of_merging(self):
        """Best-pair merging from the optimum's register count cannot
        beat the exhaustive optimum (sanity check on the optimum)."""
        for seed, pattern in self.small_corpus():
            for k in (2, 3):
                optimum = optimal_allocation(pattern, k, self.M,
                                             CostModel.STEADY_STATE)
                assert optimum.cover.n_paths <= k
                assert optimum.total_cost == cover_cost(
                    optimum.cover, pattern, self.M,
                    CostModel.STEADY_STATE)


class TestMergersMatchReference:
    """The incremental best-pair merge and the encoded naive merges
    return exactly the all-pairs reference's ``MergeResult``: cover,
    every step with its ``merged_cost``, and total."""

    def corpus_covers(self):
        """Each corpus pattern with its exact, greedy and finest cover."""
        for seed in CORPUS_SEEDS:
            pattern = corpus_pattern(seed)
            yield seed, pattern, minimum_zero_cost_cover(pattern, 1).cover
            yield seed, pattern, greedy_zero_cost_cover(
                AccessGraph(pattern, 2))
            yield seed, pattern, PathCover.finest(len(pattern))

    @pytest.mark.parametrize("cost_model",
                             [CostModel.INTRA, CostModel.STEADY_STATE])
    def test_best_pair_over_the_corpus(self, cost_model):
        merged = 0
        for seed, pattern, cover in self.corpus_covers():
            for k, m in ((1, 1), (2, 1), (3, 2)):
                result = best_pair_merge(cover, k, pattern, m, cost_model)
                assert result == reference_best_pair_merge(
                    cover, k, pattern, m, cost_model), f"seed {seed}"
                merged += bool(result.steps)
        assert merged > 0

    def test_best_pair_all_ties(self):
        """Every pair merges at the same cost, so the whole order comes
        from the (first_i, first_j) tie-break."""
        pattern = pattern_from_offsets([0] * 8)
        cover = PathCover.finest(8)
        for k in (1, 3, 5):
            result = best_pair_merge(cover, k, pattern, 1)
            assert {step.merged_cost for step in result.steps} == {0}
            assert result == reference_best_pair_merge(cover, k, pattern, 1)

    def test_best_pair_with_free_deltas(self):
        """The modify-register metric: extra free distances."""
        pattern = pattern_from_offsets([0, 10, 20, 0, 10, 20, 5, -7])
        cover = PathCover.finest(8)
        for free_deltas in (frozenset({10}), frozenset({10, -20, -19}),
                            frozenset({-5, 12, 7})):
            for k in (1, 2, 3):
                result = best_pair_merge(cover, k, pattern, 1,
                                         free_deltas=free_deltas)
                assert result == reference_best_pair_merge(
                    cover, k, pattern, 1, free_deltas=free_deltas)

    @pytest.mark.parametrize("strategy", sorted(NAIVE_STRATEGIES))
    def test_naive_over_the_corpus(self, strategy):
        for seed, pattern, cover in self.corpus_covers():
            for k, m in ((1, 1), (2, 1), (3, 2)):
                for cost_model in CostModel:
                    result = naive_merge(cover, k, pattern, m, cost_model,
                                         strategy=strategy, seed=seed)
                    assert result == reference_naive_merge(
                        cover, k, pattern, m, cost_model,
                        strategy=strategy, seed=seed), f"seed {seed}"
