"""Unit tests for the access graph (the paper's Figure 1 model)."""

import pytest

from repro.errors import GraphError
from repro.graph.access_graph import AccessGraph
from repro.graph.dot import graph_to_ascii, graph_to_dot
from repro.ir.builder import LoopBuilder, pattern_from_offsets
from repro.ir.types import AccessPattern


class TestFigure1:
    """The example graph must match the paper exactly."""

    EXPECTED_INTRA = {
        (0, 1), (0, 2), (0, 4), (0, 5),   # a_1 -> a_2, a_3, a_5, a_6
        (1, 3), (1, 4), (1, 5),           # a_2 -> a_4, a_5, a_6
        (2, 4),                           # a_3 -> a_5
        (3, 5), (3, 6),                   # a_4 -> a_6, a_7
        (4, 5),                           # a_5 -> a_6
    }

    def test_intra_edges_exact(self, paper_graph):
        assert set(paper_graph.intra_edges) == self.EXPECTED_INTRA

    def test_paper_path_exists(self, paper_graph):
        # "the access subsequence (a_1, a_3, a_5, a_6) ... is a path in G"
        for p, q in [(0, 2), (2, 4), (4, 5)]:
            assert paper_graph.has_intra_edge(p, q)

    def test_successors_and_predecessors_agree(self, paper_graph):
        for p, q in paper_graph.intra_edges:
            assert q in paper_graph.successors(p)
            assert p in paper_graph.predecessors(q)

    def test_inter_edges_follow_wrap_distance(self, paper_graph):
        offsets = paper_graph.pattern.offsets()
        expected = {
            (q, p)
            for q in range(7) for p in range(7)
            if abs(offsets[p] + 1 - offsets[q]) <= 1
        }
        assert set(paper_graph.inter_edges) == expected

    def test_stats(self, paper_graph):
        stats = paper_graph.stats()
        assert stats.n_nodes == 7
        assert stats.n_intra_edges == 11
        assert stats.n_inter_edges == 26


class TestConstructionRules:
    def test_modify_range_widens_edges(self, paper_pattern):
        g1 = AccessGraph(paper_pattern, 1)
        g4 = AccessGraph(paper_pattern, 4)
        assert set(g1.intra_edges) < set(g4.intra_edges)
        # With M=4 every pair is within range: complete DAG.
        assert len(g4.intra_edges) == 7 * 6 // 2

    def test_zero_modify_range(self):
        graph = AccessGraph(pattern_from_offsets([1, 1, 2]), 0)
        assert set(graph.intra_edges) == {(0, 1)}

    def test_no_edges_across_arrays(self):
        pattern = (LoopBuilder().read("A", 0).read("B", 0)
                   .build_pattern())
        graph = AccessGraph(pattern, 10)
        assert not graph.intra_edges
        # Only self-wrap edges remain (a register can follow its own
        # access across iterations); nothing crosses the arrays.
        assert set(graph.inter_edges) == {(0, 0), (1, 1)}

    def test_no_edges_across_coefficients(self):
        pattern = (LoopBuilder().read("A", 0, coefficient=1)
                   .read("A", 0, coefficient=2).build_pattern())
        graph = AccessGraph(pattern, 10)
        assert not graph.intra_edges

    def test_step_changes_inter_edges_only(self, paper_pattern):
        g1 = AccessGraph(paper_pattern, 1)
        g3 = AccessGraph(AccessPattern(paper_pattern.accesses, step=3), 1)
        assert g1.intra_edges == g3.intra_edges
        assert g1.inter_edges != g3.inter_edges

    def test_empty_pattern(self):
        graph = AccessGraph(pattern_from_offsets([]), 1)
        assert graph.n_nodes == 0
        assert graph.stats().n_intra_edges == 0

    def test_negative_modify_range_rejected(self, paper_pattern):
        with pytest.raises(GraphError):
            AccessGraph(paper_pattern, -1)

    def test_node_range_checked(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.successors(7)
        with pytest.raises(GraphError):
            paper_graph.predecessors(-1)


class TestRendering:
    def test_ascii_contains_labels(self, paper_graph):
        text = graph_to_ascii(paper_graph, include_inter=True)
        assert "a_1" in text and "a_7" in text
        assert "wrap-around" in text

    def test_dot_structure(self, paper_graph):
        dot = graph_to_dot(paper_graph)
        assert dot.startswith("digraph")
        assert "n0 -> n1;" in dot
        assert "dashed" not in dot

    def test_dot_with_inter_edges(self, paper_graph):
        dot = graph_to_dot(paper_graph, include_inter=True)
        assert "dashed" in dot
