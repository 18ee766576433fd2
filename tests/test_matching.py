"""Unit tests for the Hopcroft--Karp matcher (vs networkx as oracle)."""

import random

import networkx as nx
import pytest

from repro.pathcover.matching import HopcroftKarp


class TestSmallGraphs:
    def test_empty(self):
        solver = HopcroftKarp(0, 0, [])
        assert solver.solve() == 0

    def test_no_edges(self):
        solver = HopcroftKarp(3, 3, [[], [], []])
        assert solver.solve() == 0

    def test_perfect_matching(self):
        solver = HopcroftKarp(2, 2, [[0, 1], [0, 1]])
        assert solver.solve() == 2
        pairs = dict(solver.pairs())
        assert sorted(pairs.keys()) == [0, 1]
        assert sorted(pairs.values()) == [0, 1]

    def test_augmenting_path_needed(self):
        # Greedy left-to-right would match 0-0 and strand 1; HK must
        # find the augmenting path.
        solver = HopcroftKarp(2, 2, [[0, 1], [0]])
        assert solver.solve() == 2

    def test_star(self):
        solver = HopcroftKarp(3, 1, [[0], [0], [0]])
        assert solver.solve() == 1

    def test_chain_requiring_two_phase_augment(self):
        adjacency = [[0], [0, 1], [1, 2], [2]]
        solver = HopcroftKarp(4, 3, adjacency)
        assert solver.solve() == 3

    def test_mapping_adjacency(self):
        solver = HopcroftKarp(3, 3, {0: [1], 2: [0, 2]})
        assert solver.solve() == 2

    def test_pairs_consistency(self):
        solver = HopcroftKarp(3, 3, [[0, 1], [1, 2], [0]])
        solver.solve()
        for left, right in solver.pairs():
            assert solver.match_right[right] == left


class TestValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            HopcroftKarp(-1, 2, [])

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(ValueError):
            HopcroftKarp(1, 1, [[3]])

    @pytest.mark.parametrize("rows, bad", [
        ([[0, 5, 1]], 5), ([[1], [0, -1]], -1), ([[], [1, 2, 7]], 2)])
    def test_range_error_names_the_first_bad_neighbor(self, rows, bad):
        with pytest.raises(ValueError,
                           match=rf"right node {bad} out of range 0\.\.1$"):
            HopcroftKarp(2, 2, rows)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs_match_networkx(self, seed):
        rng = random.Random(seed)
        n_left = rng.randint(1, 12)
        n_right = rng.randint(1, 12)
        adjacency = [
            sorted({rng.randrange(n_right)
                    for _ in range(rng.randint(0, n_right))})
            for _ in range(n_left)
        ]
        size = HopcroftKarp(n_left, n_right, adjacency).solve()

        graph = nx.Graph()
        graph.add_nodes_from((f"L{i}" for i in range(n_left)),
                             bipartite=0)
        graph.add_nodes_from((f"R{j}" for j in range(n_right)),
                             bipartite=1)
        for left, neighbors in enumerate(adjacency):
            for right in neighbors:
                graph.add_edge(f"L{left}", f"R{right}")
        reference = nx.bipartite.maximum_matching(
            graph, top_nodes=[f"L{i}" for i in range(n_left)])
        assert size == len(reference) // 2

    def test_matching_is_valid(self):
        rng = random.Random(99)
        adjacency = [sorted({rng.randrange(10) for _ in range(4)})
                     for _ in range(10)]
        solver = HopcroftKarp(10, 10, adjacency)
        solver.solve()
        used_rights = [r for r in solver.match_left if r != -1]
        assert len(used_rights) == len(set(used_rights))
        for left, right in enumerate(solver.match_left):
            if right != -1:
                assert right in adjacency[left]
