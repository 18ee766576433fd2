"""Unit tests for the core IR datatypes."""

import pytest

from repro.errors import IrError
from repro.ir.builder import pattern_from_offsets
from repro.ir.expr import AffineExpr
from repro.ir.types import (
    AccessPattern,
    ArrayAccess,
    ArrayDecl,
    Kernel,
    Loop,
    ScalarUse,
)


class TestArrayDecl:
    def test_defaults(self):
        decl = ArrayDecl("A")
        assert decl.element_size == 1
        assert decl.length is None

    def test_rejects_bad_name(self):
        with pytest.raises(IrError):
            ArrayDecl("9lives")

    def test_rejects_empty_name(self):
        with pytest.raises(IrError):
            ArrayDecl("")

    def test_rejects_zero_element_size(self):
        with pytest.raises(IrError):
            ArrayDecl("A", element_size=0)

    def test_rejects_negative_length(self):
        with pytest.raises(IrError):
            ArrayDecl("A", length=-1)


class TestArrayAccess:
    def test_offset_and_coefficient(self):
        access = ArrayAccess("A", AffineExpr(2, -3))
        assert access.offset == -3
        assert access.coefficient == 2

    def test_group_key(self):
        assert ArrayAccess("A", AffineExpr(1, 5)).group_key == ("A", 1)
        assert ArrayAccess("B", AffineExpr(0, 5)).group_key == ("B", 0)

    def test_str_marks_writes(self):
        read = ArrayAccess("A", AffineExpr(1, 1))
        write = ArrayAccess("A", AffineExpr(1, 1), is_write=True)
        assert str(read) == "A[i+1]"
        assert str(write) == "A[i+1]="

    def test_rejects_bad_array_name(self):
        with pytest.raises(IrError):
            ArrayAccess("not a name", AffineExpr(1, 0))

    def test_rejects_non_affine_index(self):
        with pytest.raises(IrError):
            ArrayAccess("A", 3)


class TestScalarUse:
    def test_valid(self):
        use = ScalarUse("acc", is_write=True)
        assert use.name == "acc"
        assert use.is_write

    def test_rejects_bad_name(self):
        with pytest.raises(IrError):
            ScalarUse("3x")


class TestAccessPattern:
    def test_sequence_protocol(self, paper_pattern):
        assert len(paper_pattern) == 7
        assert [a.offset for a in paper_pattern] == [1, 0, 2, -1, 1, 0, -2]
        assert paper_pattern[2].offset == 2

    def test_labels_follow_the_paper(self, paper_pattern):
        assert paper_pattern.label(0) == "a_1"
        assert paper_pattern.label(6) == "a_7"

    def test_explicit_label_wins(self):
        access = ArrayAccess("A", AffineExpr(1, 0), label="x_load")
        pattern = AccessPattern((access,))
        assert pattern.label(0) == "x_load"

    def test_offsets(self, paper_pattern):
        assert paper_pattern.offsets() == (1, 0, 2, -1, 1, 0, -2)

    def test_arrays_in_first_use_order(self):
        pattern = AccessPattern((
            ArrayAccess("B", AffineExpr(1, 0)),
            ArrayAccess("A", AffineExpr(1, 0)),
            ArrayAccess("B", AffineExpr(1, 1)),
        ))
        assert pattern.arrays() == ("B", "A")

    def test_group_keys_and_positions(self):
        pattern = AccessPattern((
            ArrayAccess("A", AffineExpr(1, 0)),
            ArrayAccess("A", AffineExpr(0, 4)),
            ArrayAccess("A", AffineExpr(1, 2)),
        ))
        assert pattern.group_keys() == (("A", 1), ("A", 0))
        assert pattern.positions_in_group(("A", 1)) == (0, 2)
        assert pattern.positions_in_group(("A", 0)) == (1,)

    def test_subsequence(self, paper_pattern):
        subset = paper_pattern.subsequence([0, 2, 4])
        assert [a.offset for a in subset] == [1, 2, 1]

    def test_rejects_zero_step(self):
        with pytest.raises(IrError):
            AccessPattern((), step=0)

    def test_rejects_non_access_elements(self):
        with pytest.raises(IrError):
            AccessPattern(("A[i]",))

    def test_rejects_a_second_loop_variable(self):
        accesses = (ArrayAccess("x", AffineExpr(1, 0, "i")),
                    ArrayAccess("x", AffineExpr(1, 2, "j")))
        with pytest.raises(IrError) as error:
            AccessPattern(accesses, loop_var="i")
        message = str(error.value)
        assert "element 1" in message and "x[j+2]" in message
        assert "'j'" in message and "'i'" in message

    def test_constant_index_may_name_any_variable(self):
        pattern = AccessPattern((ArrayAccess("x", AffineExpr(1, 0, "n")),
                                 ArrayAccess("y", AffineExpr(0, 3, "q"))),
                                loop_var="n")
        assert pattern.group_keys() == (("x", 1), ("y", 0))

    def test_empty_pattern_allowed(self):
        pattern = AccessPattern(())
        assert len(pattern) == 0
        assert pattern.arrays() == ()

    def test_equality(self):
        assert pattern_from_offsets([1, 2]) == pattern_from_offsets([1, 2])
        assert pattern_from_offsets([1, 2]) != pattern_from_offsets([2, 1])


class TestLoop:
    def test_iteration_values(self):
        loop = Loop(pattern_from_offsets([0]), start=2, n_iterations=4)
        assert loop.iteration_values() == [2, 3, 4, 5]

    def test_iteration_values_with_step(self):
        loop = Loop(pattern_from_offsets([0], step=3), start=1,
                    n_iterations=3)
        assert loop.iteration_values() == [1, 4, 7]

    def test_override_count(self):
        loop = Loop(pattern_from_offsets([0]), start=0, n_iterations=10)
        assert loop.iteration_values(2) == [0, 1]

    def test_symbolic_bound_requires_count(self):
        loop = Loop(pattern_from_offsets([0]), bound_symbol="N")
        with pytest.raises(IrError, match="symbolic"):
            loop.iteration_values()
        assert loop.iteration_values(3) == [0, 1, 2]

    def test_rejects_negative_count(self):
        with pytest.raises(IrError):
            Loop(pattern_from_offsets([0]), n_iterations=-1)

    def test_str_mentions_var(self):
        loop = Loop(pattern_from_offsets([0]), start=0, n_iterations=8)
        assert "i++" in str(loop)


class TestKernel:
    def _kernel(self) -> Kernel:
        pattern = AccessPattern((
            ArrayAccess("x", AffineExpr(1, 0)),
            ArrayAccess("y", AffineExpr(1, 0), is_write=True),
        ))
        return Kernel(
            name="copy",
            loop=Loop(pattern, n_iterations=8),
            arrays=(ArrayDecl("x", length=16), ArrayDecl("y", length=16)),
            scalar_uses=(ScalarUse("t"), ScalarUse("t", is_write=True)),
        )

    def test_pattern_shortcut(self):
        kernel = self._kernel()
        assert len(kernel.pattern) == 2

    def test_array_lookup(self):
        kernel = self._kernel()
        assert kernel.array("x").length == 16
        with pytest.raises(IrError):
            kernel.array("z")

    def test_scalar_sequence(self):
        assert self._kernel().scalar_sequence() == ("t", "t")

    def test_rejects_undeclared_array_access(self):
        pattern = AccessPattern((ArrayAccess("q", AffineExpr(1, 0)),))
        with pytest.raises(IrError, match="undeclared"):
            Kernel(name="bad", loop=Loop(pattern, n_iterations=1),
                   arrays=())

    def test_rejects_duplicate_declarations(self):
        pattern = AccessPattern((ArrayAccess("x", AffineExpr(1, 0)),))
        with pytest.raises(IrError, match="duplicate"):
            Kernel(name="bad", loop=Loop(pattern, n_iterations=1),
                   arrays=(ArrayDecl("x"), ArrayDecl("x")))
