"""Unit tests for the kernel-language parser."""

import pytest

from repro.errors import ParseError
from repro.ir.parser import parse_kernel


class TestPaperExample:
    SOURCE = """
    for (i = 2; i <= N; i++) {
        A[i+1]; A[i]; A[i+2]; A[i-1]; A[i+1]; A[i]; A[i-2];
    }
    """

    def test_offsets(self):
        kernel = parse_kernel(self.SOURCE)
        assert kernel.pattern.offsets() == (1, 0, 2, -1, 1, 0, -2)

    def test_symbolic_bound(self):
        kernel = parse_kernel(self.SOURCE)
        assert kernel.loop.n_iterations is None
        assert kernel.loop.bound_symbol == "N"
        assert kernel.loop.start == 2

    def test_implicit_array_declaration(self):
        kernel = parse_kernel(self.SOURCE)
        assert [decl.name for decl in kernel.arrays] == ["A"]


class TestDeclarations:
    def test_array_and_scalar_declarations(self):
        kernel = parse_kernel("""
        int x[16], acc, y[8];
        for (i = 0; i < 4; i++) { y[i] = x[i] + acc; }
        """)
        assert {decl.name: decl.length for decl in kernel.arrays} == \
            {"x": 16, "y": 8}

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ParseError, match="declared twice"):
            parse_kernel("int x[4], x; for (i=0;i<1;i++) { x[i]; }")

    def test_scalar_subscripted_rejected(self):
        with pytest.raises(ParseError, match="subscripted"):
            parse_kernel("int s; for (i=0;i<1;i++) { s[i]; }")


class TestLoopHeader:
    @pytest.mark.parametrize("update, step", [
        ("i++", 1), ("++i", 1), ("i--", -1),
        ("i += 2", 2), ("i -= 3", -3),
        ("i = i + 4", 4), ("i = i - 1", -1),
    ])
    def test_updates(self, update, step):
        kernel = parse_kernel(
            f"for (i = 0; i < 10; {update}) {{ A[i]; }}")
        assert kernel.pattern.step == step

    @pytest.mark.parametrize("source, count", [
        ("for (i = 0; i < 10; i++) { A[i]; }", 10),
        ("for (i = 0; i <= 10; i++) { A[i]; }", 11),
        ("for (i = 2; i <= 10; i += 2) { A[i]; }", 5),
        ("for (i = 0; i < 10; i += 3) { A[i]; }", 4),
        ("for (i = 5; i < 5; i++) { A[i]; }", 0),
        ("for (i = 9; i <= 5; i++) { A[i]; }", 0),
    ])
    def test_iteration_counts(self, source, count):
        assert parse_kernel(source).loop.n_iterations == count

    def test_negative_start(self):
        kernel = parse_kernel("for (i = -3; i < 3; i++) { A[i]; }")
        assert kernel.loop.start == -3
        assert kernel.loop.n_iterations == 6

    def test_condition_must_test_loop_variable(self):
        with pytest.raises(ParseError, match="loop condition"):
            parse_kernel("for (i = 0; j < 3; i++) { A[i]; }")

    def test_update_must_change_loop_variable(self):
        with pytest.raises(ParseError, match="loop update"):
            parse_kernel("for (i = 0; i < 3; j++) { A[i]; }")

    def test_relation_must_be_less(self):
        with pytest.raises(ParseError, match="'<' or '<='"):
            parse_kernel("for (i = 0; i > 3; i--) { A[i]; }")


class TestSubscripts:
    @pytest.mark.parametrize("index, coeff, offset", [
        ("i", 1, 0), ("i+3", 1, 3), ("i-2", 1, -2), ("3+i", 1, 3),
        ("2*i", 2, 0), ("2*i+1", 2, 1), ("i*2-1", 2, -1),
        ("7", 0, 7), ("-i", -1, 0), ("-(i-1)", -1, 1),
        ("(i+1)+1", 1, 2),
    ])
    def test_affine_forms(self, index, coeff, offset):
        kernel = parse_kernel(f"for (i = 0; i < 3; i++) {{ A[{index}]; }}")
        access = kernel.pattern[0]
        assert (access.coefficient, access.offset) == (coeff, offset)

    def test_non_affine_product_rejected(self):
        with pytest.raises(ParseError, match="not affine"):
            parse_kernel("for (i = 0; i < 3; i++) { A[i*i]; }")

    def test_division_in_subscript_rejected(self):
        with pytest.raises(ParseError, match="not allowed in subscripts"):
            parse_kernel("for (i = 0; i < 3; i++) { A[i/2]; }")

    def test_other_variable_in_subscript_rejected(self):
        with pytest.raises(ParseError, match="only the loop variable"):
            parse_kernel("for (i = 0; i < 3; i++) { A[j]; }")

    def test_array_in_subscript_rejected(self):
        with pytest.raises(ParseError, match="inside subscripts"):
            parse_kernel("for (i = 0; i < 3; i++) { A[B[i]]; }")


class TestAccessOrder:
    def test_rhs_before_lhs_write(self):
        kernel = parse_kernel(
            "for (i = 0; i < 3; i++) { y[i] = x[i] + x[i+1]; }")
        rendered = [str(access) for access in kernel.pattern]
        assert rendered == ["x[i]", "x[i+1]", "y[i]="]

    def test_compound_assignment_reads_then_writes_lhs(self):
        kernel = parse_kernel("for (i = 0; i < 3; i++) { y[i] += x[i]; }")
        rendered = [str(access) for access in kernel.pattern]
        assert rendered == ["x[i]", "y[i]", "y[i]="]

    def test_expression_statements_record_reads(self):
        kernel = parse_kernel("for (i = 0; i < 3; i++) { A[i]*B[i]; }")
        assert [str(access) for access in kernel.pattern] == \
            ["A[i]", "B[i]"]

    def test_left_to_right_in_expressions(self):
        kernel = parse_kernel(
            "for (i = 0; i < 3; i++) { s = (A[i+1] - A[i]) * B[i]; }")
        assert [str(a) for a in kernel.pattern] == \
            ["A[i+1]", "A[i]", "B[i]"]

    def test_scalar_uses_in_order(self):
        kernel = parse_kernel("""
        for (i = 0; i < 3; i++) {
            acc = A[i] * gain;
            y[i] = acc;
        }
        """)
        uses = [(use.name, use.is_write) for use in kernel.scalar_uses]
        assert uses == [("gain", False), ("acc", True), ("acc", False)]

    def test_loop_variable_and_bound_not_scalars(self):
        kernel = parse_kernel(
            "for (i = 0; i < N; i++) { A[i] + i + N; }")
        assert kernel.scalar_sequence() == ()


class TestStatementForms:
    def test_empty_statements_allowed(self):
        kernel = parse_kernel("for (i = 0; i < 3; i++) { ; A[i]; ; }")
        assert len(kernel.pattern) == 1

    def test_empty_body_allowed(self):
        kernel = parse_kernel("for (i = 0; i < 3; i++) { }")
        assert len(kernel.pattern) == 0

    def test_assignment_to_expression_rejected(self):
        with pytest.raises(ParseError, match="left-hand side"):
            parse_kernel("for (i = 0; i < 3; i++) { A[i]+1 = 2; }")

    def test_bad_assignment_target_reported_at_the_operator(self):
        # Not at the next statement's first token (line 3, column 3).
        with pytest.raises(ParseError, match="left-hand side") as info:
            parse_kernel("for (i = 0; i < 8; i++) {\n  1 = A[i];\n  B[i];\n}")
        assert (info.value.line, info.value.column) == (2, 5)

    def test_division_assignment_accepted(self):
        kernel = parse_kernel("for (i = 0; i < 3; i++) { A[i] /= B[i]; }")
        assert [str(a) for a in kernel.pattern] == ["B[i]", "A[i]", "A[i]="]

    def test_loop_variable_assignment_rejected(self):
        with pytest.raises(ParseError, match="must not be assigned"):
            parse_kernel("for (i = 0; i < 3; i++) { i = A[i]; }")

    def test_parenthesized_expressions(self):
        kernel = parse_kernel(
            "for (i = 0; i < 3; i++) { y[i] = ((A[i]) + (2)); }")
        assert [str(a) for a in kernel.pattern] == ["A[i]", "y[i]="]


class TestStructuralErrors:
    @pytest.mark.parametrize("source, fragment", [
        ("", "'for' loop"),
        ("int x[3];", "'for' loop"),
        ("for i = 0; i < 3; i++) { }", r"'\('"),
        ("for (i = 0; i < 3; i++) { A[i]; ", "unterminated"),
        ("for (i = 0; i < 3; i++) { A[i] }", "';'"),
        ("for (i = 0; i < 3; i++) { } trailing", "end-of-input"),
        ("for (i = 0; i < 3; i++) { A[i; }", "']'"),
    ])
    def test_malformed_sources(self, source, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_kernel(source)

    def test_error_positions_are_reported(self):
        with pytest.raises(ParseError) as info:
            parse_kernel("for (i = 0; i < 3; i++) {\n  A[j];\n}")
        assert info.value.line == 2
