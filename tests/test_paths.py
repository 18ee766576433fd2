"""Unit tests for Path / PathCover datatypes and the merge operator."""

import pytest

from repro.errors import PathCoverError
from repro.pathcover.paths import Path, PathCover


class TestPath:
    def test_basic_accessors(self):
        path = Path((1, 4, 6))
        assert path.first == 1
        assert path.last == 6
        assert len(path) == 3
        assert list(path) == [1, 4, 6]
        assert 4 in path and 5 not in path

    def test_transitions(self):
        assert list(Path((0, 2, 5)).transitions()) == [(0, 2), (2, 5)]
        assert list(Path((3,)).transitions()) == []

    def test_str_uses_paper_labels(self):
        assert str(Path((0, 2))) == "(a_1, a_3)"

    def test_list_input_coerced(self):
        assert Path([0, 1]).indices == (0, 1)

    @pytest.mark.parametrize("indices", [(), (2, 1), (0, 0), (-1,), (0, "x")])
    def test_invalid_paths_rejected(self, indices):
        with pytest.raises(PathCoverError):
            Path(tuple(indices))


class TestMergeOperator:
    def test_paper_example(self):
        # P1 = (a_1, a_4, a_6), P2 = (a_3, a_5)
        # P1 (+) P2 = (a_1, a_3, a_4, a_5, a_6)
        p1 = Path((0, 3, 5))
        p2 = Path((2, 4))
        assert p1.merge(p2).indices == (0, 2, 3, 4, 5)

    def test_commutative(self):
        p1, p2 = Path((0, 3)), Path((1, 2))
        assert p1.merge(p2) == p2.merge(p1)

    def test_overlap_rejected(self):
        with pytest.raises(PathCoverError, match="overlapping"):
            Path((0, 1)).merge(Path((1, 2)))

    def test_preserves_all_members(self):
        merged = Path((0, 9)).merge(Path((4,)))
        assert merged.indices == (0, 4, 9)


class TestPathCover:
    def test_partition_validated(self):
        cover = PathCover((Path((0, 2)), Path((1,))), 3)
        assert cover.n_paths == 2
        assert cover.n_accesses == 3

    def test_canonical_ordering(self):
        cover = PathCover((Path((2,)), Path((0, 1))), 3)
        assert [path.first for path in cover] == [0, 2]

    def test_equality_ignores_construction_order(self):
        a = PathCover((Path((2,)), Path((0, 1))), 3)
        b = PathCover((Path((0, 1)), Path((2,))), 3)
        assert a == b

    def test_missing_position_rejected(self):
        with pytest.raises(PathCoverError, match="misses"):
            PathCover((Path((0,)),), 2)

    def test_double_cover_rejected(self):
        with pytest.raises(PathCoverError, match="twice"):
            PathCover((Path((0, 1)), Path((1,))), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(PathCoverError, match="out of range"):
            PathCover((Path((0, 5)),), 2)

    def test_from_lists_sorts_positions(self):
        cover = PathCover.from_lists([[2, 0], [1]], 3)
        assert cover.paths[0].indices == (0, 2)

    def test_finest(self):
        cover = PathCover.finest(4)
        assert cover.n_paths == 4
        assert all(len(path) == 1 for path in cover)

    def test_empty(self):
        cover = PathCover((), 0)
        assert cover.n_paths == 0
        assert cover.assignment() == ()

    def test_assignment(self):
        cover = PathCover((Path((0, 2)), Path((1, 3))), 4)
        assert cover.assignment() == (0, 1, 0, 1)

    def test_from_assignment_inverts_assignment(self):
        cover = PathCover((Path((0, 2)), Path((1, 3)), Path((4,))), 5)
        assert PathCover.from_assignment(cover.assignment()) == cover
        assert PathCover.from_assignment([0, 1, 0, 1, 2]) == cover
        assert PathCover.from_assignment(()) == PathCover((), 0)

    @pytest.mark.parametrize("assignment", [("a", 0), (0, None),
                                            ([0], 0), (True, 0)],
                             ids=["text", "null", "list", "bool"])
    def test_from_assignment_rejects_non_int_registers(self, assignment):
        with pytest.raises(PathCoverError, match="is not an int"):
            PathCover.from_assignment(assignment)

    def test_from_assignment_inverts_every_library_allocation(self):
        """The cover a result stores as its assignment comes back
        whole, on every kernel of the library."""
        from repro.agu.model import AguSpec
        from repro.core.pipeline import compile_kernel
        from repro.workloads.kernels import KERNELS

        assert len(KERNELS) == 26
        for name, entry in sorted(KERNELS.items()):
            cover = compile_kernel(entry.kernel(), AguSpec(2, 1),
                                   run_simulation=False).allocation.cover
            assert PathCover.from_assignment(cover.assignment()) \
                == cover, name

    def test_successors_wrap_to_the_path_start(self):
        cover = PathCover((Path((0, 2, 3)), Path((1,))), 4)
        assert cover.successors() == (2, 1, 3, 0)
        assert PathCover((), 0).successors() == ()

    def test_replace_merges_two_paths(self):
        p1, p2, p3 = Path((0,)), Path((1,)), Path((2,))
        cover = PathCover((p1, p2, p3), 3)
        # replace() is identity-based: fetch the canonical instances.
        first, second, third = cover.paths
        merged = first.merge(third)
        replaced = cover.replace((first, third), merged)
        assert replaced.n_paths == 2
        assert merged in replaced.paths

    def test_replace_requires_member_paths(self):
        cover = PathCover((Path((0,)), Path((1,))), 2)
        with pytest.raises(PathCoverError):
            cover.replace((Path((0,)), Path((0,))), Path((0, 1)))

    def test_str(self):
        cover = PathCover((Path((0, 1)), Path((2,))), 3)
        assert str(cover) == "{(a_1, a_2), (a_3)}"
