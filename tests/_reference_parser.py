"""The recursive-descent kernel parser, kept as a test-local oracle.

This is :mod:`repro.ir.parser` as it was before its expressions were
parsed by precedence climbing over tuple tokens: one method per
grammar level (expr, term, unary, postfix, primary) and a
``_check``/``_match`` call per token test.  The differential tests
compare :func:`repro.ir.parser.parse_kernel` against
:func:`reference_parse_kernel`: the same :class:`~repro.ir.types.Kernel`,
or a :class:`~repro.errors.ParseError` with the same message, line and
column.  Do not optimise it.

Its grammar, evaluation order and error positions are the frontend's;
a bad assignment target is reported at the assignment operator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParseError
from repro.ir.expr import AffineExpr
from repro.ir.lexer import Token, TokenType, tokenize
from repro.ir.types import (
    AccessPattern,
    ArrayAccess,
    ArrayDecl,
    Kernel,
    Loop,
    ScalarUse,
)


# ----------------------------------------------------------------------
# Expression AST (internal to the parser)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Num:
    value: int


@dataclass(frozen=True)
class _Var:
    name: str
    token: Token


@dataclass(frozen=True)
class _ArrayRef:
    array: str
    index: "_Expr"
    token: Token


@dataclass(frozen=True)
class _UnaryOp:
    op: str
    operand: "_Expr"
    token: Token


@dataclass(frozen=True)
class _BinOp:
    op: str
    left: "_Expr"
    right: "_Expr"
    token: Token


_Expr = _Num | _Var | _ArrayRef | _UnaryOp | _BinOp


@dataclass(frozen=True)
class _LoopHeader:
    var: str
    start: int
    relation: str
    bound_value: int | None
    bound_symbol: str | None
    step: int


class Parser:
    """Parser state over a token list (see module docstring for grammar)."""

    def __init__(self, source: str, name: str = "kernel"):
        self._tokens = tokenize(source)
        self._pos = 0
        self._source = source
        self._name = name
        self._declared_scalars: dict[str, None] = {}
        self._arrays: dict[str, ArrayDecl] = {}
        self._accesses: list[ArrayAccess] = []
        self._scalar_uses: list[ScalarUse] = []
        self._loop_header: _LoopHeader | None = None

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, type_: TokenType, value: str | None = None) -> bool:
        token = self._peek()
        if token.type is not type_:
            return False
        return value is None or token.value == value

    def _match(self, type_: TokenType, value: str | None = None) -> Token | None:
        if self._check(type_, value):
            return self._advance()
        return None

    def _expect(self, type_: TokenType, value: str | None = None,
                context: str = "") -> Token:
        token = self._peek()
        if not self._check(type_, value):
            expected = value if value is not None else type_.value
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {expected!r}{where}, found {token}",
                token.line, token.column)
        return self._advance()

    def _error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self._peek()
        return ParseError(message, token.line, token.column)

    # ------------------------------------------------------------------
    # Grammar: top level
    # ------------------------------------------------------------------
    def parse(self) -> Kernel:
        """Parse the whole source into a :class:`Kernel`."""
        while self._check(TokenType.KEYWORD, "int"):
            self._parse_declaration()
        if not self._check(TokenType.KEYWORD, "for"):
            raise self._error("expected a 'for' loop")
        header, statements = self._parse_for_loop()
        self._expect(TokenType.EOF, context="after the loop")

        self._loop_header = header
        for statement in statements:
            self._record_statement(statement)

        pattern = AccessPattern(tuple(self._accesses), step=header.step,
                                loop_var=header.var)
        n_iterations = self._iteration_count(header)
        loop = Loop(pattern, start=header.start, n_iterations=n_iterations,
                    bound_symbol=header.bound_symbol)
        return Kernel(
            name=self._name,
            loop=loop,
            arrays=tuple(self._arrays.values()),
            scalar_uses=tuple(self._scalar_uses),
            source=self._source,
        )

    def _parse_declaration(self) -> None:
        self._expect(TokenType.KEYWORD, "int")
        while True:
            name_token = self._expect(TokenType.IDENT,
                                      context="declaration")
            name = name_token.value
            if name in self._arrays or name in self._declared_scalars:
                raise self._error(f"{name!r} declared twice", name_token)
            if self._match(TokenType.OP, "["):
                length_token = self._expect(TokenType.INT,
                                            context="array length")
                self._expect(TokenType.OP, "]", context="array declaration")
                self._arrays[name] = ArrayDecl(name,
                                               length=int(length_token.value))
            else:
                self._declared_scalars[name] = None
            if not self._match(TokenType.OP, ","):
                break
        self._expect(TokenType.OP, ";", context="declaration")

    # ------------------------------------------------------------------
    # Grammar: the for loop
    # ------------------------------------------------------------------
    def _parse_for_loop(self) -> tuple[_LoopHeader, list[tuple[str, _Expr, _Expr | None]]]:
        self._expect(TokenType.KEYWORD, "for")
        self._expect(TokenType.OP, "(", context="for loop")

        var_token = self._expect(TokenType.IDENT, context="loop initializer")
        var = var_token.value
        self._expect(TokenType.OP, "=", context="loop initializer")
        start = self._parse_signed_int("loop start value")
        self._expect(TokenType.OP, ";", context="for loop")

        cond_var = self._expect(TokenType.IDENT, context="loop condition")
        if cond_var.value != var:
            raise self._error(
                f"loop condition tests {cond_var.value!r}, expected the "
                f"loop variable {var!r}", cond_var)
        relation_token = self._peek()
        if self._match(TokenType.OP, "<="):
            relation = "<="
        elif self._match(TokenType.OP, "<"):
            relation = "<"
        else:
            raise self._error("loop condition must use '<' or '<='",
                              relation_token)
        bound_value: int | None = None
        bound_symbol: str | None = None
        if self._check(TokenType.IDENT):
            bound_symbol = self._advance().value
        else:
            bound_value = self._parse_signed_int("loop bound")
        self._expect(TokenType.OP, ";", context="for loop")

        step = self._parse_update(var)
        self._expect(TokenType.OP, ")", context="for loop")

        self._expect(TokenType.OP, "{", context="loop body")
        statements: list[tuple[str, _Expr, _Expr | None]] = []
        while not self._check(TokenType.OP, "}"):
            if self._check(TokenType.EOF):
                raise self._error("unterminated loop body (missing '}')")
            statement = self._parse_statement()
            if statement is not None:
                statements.append(statement)
        self._expect(TokenType.OP, "}", context="loop body")

        header = _LoopHeader(var=var, start=start, relation=relation,
                             bound_value=bound_value,
                             bound_symbol=bound_symbol, step=step)
        return header, statements

    def _parse_signed_int(self, context: str) -> int:
        sign = 1
        if self._match(TokenType.OP, "-"):
            sign = -1
        elif self._match(TokenType.OP, "+"):
            sign = 1
        token = self._expect(TokenType.INT, context=context)
        return sign * int(token.value)

    def _parse_update(self, var: str) -> int:
        """Parse the loop update clause; returns the step."""
        if self._match(TokenType.OP, "++"):
            name = self._expect(TokenType.IDENT, context="loop update")
            if name.value != var:
                raise self._error(
                    f"loop update changes {name.value!r}, expected {var!r}",
                    name)
            return 1
        name_token = self._expect(TokenType.IDENT, context="loop update")
        if name_token.value != var:
            raise self._error(
                f"loop update changes {name_token.value!r}, expected "
                f"{var!r}", name_token)
        if self._match(TokenType.OP, "++"):
            return 1
        if self._match(TokenType.OP, "--"):
            return -1
        if self._match(TokenType.OP, "+="):
            return self._parse_signed_int("loop step")
        if self._match(TokenType.OP, "-="):
            return -self._parse_signed_int("loop step")
        if self._match(TokenType.OP, "="):
            base = self._expect(TokenType.IDENT, context="loop update")
            if base.value != var:
                raise self._error(
                    f"loop update must have the form {var} = {var} + c",
                    base)
            if self._match(TokenType.OP, "+"):
                return self._parse_signed_int("loop step")
            if self._match(TokenType.OP, "-"):
                return -self._parse_signed_int("loop step")
            raise self._error("loop update must add a constant")
        raise self._error("unsupported loop update clause")

    # ------------------------------------------------------------------
    # Grammar: statements and expressions
    # ------------------------------------------------------------------
    def _parse_statement(self) -> tuple[str, _Expr, _Expr | None] | None:
        """Parse one statement; returns ``(op, target/expr, rhs)``.

        ``op`` is ``'expr'`` for a bare expression statement (rhs None),
        or the assignment operator text for assignments.
        """
        if self._match(TokenType.OP, ";"):
            return None
        left = self._parse_expr()
        for op in ("=", "+=", "-=", "*=", "/="):
            op_token = self._match(TokenType.OP, op)
            if op_token is not None:
                right = self._parse_expr()
                self._expect(TokenType.OP, ";", context="assignment")
                if not isinstance(left, (_Var, _ArrayRef)):
                    raise self._error(
                        "left-hand side of assignment must be a variable "
                        "or array element", op_token)
                return (op, left, right)
        self._expect(TokenType.OP, ";", context="expression statement")
        return ("expr", left, None)

    def _parse_expr(self) -> _Expr:
        left = self._parse_term()
        while True:
            token = self._peek()
            if self._match(TokenType.OP, "+"):
                left = _BinOp("+", left, self._parse_term(), token)
            elif self._match(TokenType.OP, "-"):
                left = _BinOp("-", left, self._parse_term(), token)
            else:
                return left

    def _parse_term(self) -> _Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if self._match(TokenType.OP, "*"):
                left = _BinOp("*", left, self._parse_unary(), token)
            elif self._match(TokenType.OP, "/"):
                left = _BinOp("/", left, self._parse_unary(), token)
            else:
                return left

    def _parse_unary(self) -> _Expr:
        token = self._peek()
        if self._match(TokenType.OP, "-"):
            return _UnaryOp("-", self._parse_unary(), token)
        if self._match(TokenType.OP, "+"):
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> _Expr:
        primary = self._parse_primary()
        if self._check(TokenType.OP, "["):
            if not isinstance(primary, _Var):
                raise self._error("only identifiers can be subscripted")
            self._advance()
            index = self._parse_expr()
            close = self._expect(TokenType.OP, "]", context="subscript")
            return _ArrayRef(primary.name, index, close)
        return primary

    def _parse_primary(self) -> _Expr:
        token = self._peek()
        if token.type is TokenType.INT:
            self._advance()
            return _Num(int(token.value))
        if token.type is TokenType.IDENT:
            self._advance()
            return _Var(token.value, token)
        if self._match(TokenType.OP, "("):
            inner = self._parse_expr()
            self._expect(TokenType.OP, ")", context="parenthesized expression")
            return inner
        raise self._error(f"expected an expression, found {token}")

    # ------------------------------------------------------------------
    # Semantic pass: record accesses in evaluation order
    # ------------------------------------------------------------------
    def _record_statement(self,
                          statement: tuple[str, _Expr, _Expr | None]) -> None:
        op, left, right = statement
        if op == "expr":
            self._record_expr(left, is_write=False)
            return
        # Assignment: RHS first, then (for compound ops) the LHS read,
        # then the LHS write.
        assert right is not None
        self._record_expr(right, is_write=False)
        if op != "=":
            self._record_expr(left, is_write=False)
        self._record_expr(left, is_write=True)

    def _record_expr(self, node: _Expr, is_write: bool) -> None:
        if isinstance(node, _Num):
            return
        if isinstance(node, _Var):
            self._record_scalar(node, is_write)
            return
        if isinstance(node, _ArrayRef):
            # C evaluation: the index is computed before the element is
            # touched.  The index may only involve scalars/loop variable,
            # not other array accesses.
            self._check_index_pure(node.index)
            affine = self._to_affine(node.index)
            if node.array not in self._arrays:
                if node.array in self._declared_scalars:
                    raise self._error(
                        f"{node.array!r} declared scalar but subscripted",
                        node.token)
                self._arrays[node.array] = ArrayDecl(node.array)
            self._accesses.append(
                ArrayAccess(node.array, affine, is_write=is_write))
            return
        if isinstance(node, _UnaryOp):
            self._record_expr(node.operand, is_write)
            return
        if isinstance(node, _BinOp):
            self._record_expr(node.left, False)
            self._record_expr(node.right, False)
            return
        raise self._error(f"internal: unknown AST node {node!r}")

    def _record_scalar(self, node: _Var, is_write: bool) -> None:
        assert self._loop_header is not None
        name = node.name
        if name == self._loop_header.var:
            if is_write:
                raise self._error(
                    f"loop variable {name!r} must not be assigned in the "
                    f"body", node.token)
            return
        if name == self._loop_header.bound_symbol:
            return
        self._scalar_uses.append(ScalarUse(name, is_write=is_write))

    def _check_index_pure(self, node: _Expr) -> None:
        if isinstance(node, _ArrayRef):
            raise self._error("array accesses inside subscripts are not "
                              "supported", node.token)
        if isinstance(node, _UnaryOp):
            self._check_index_pure(node.operand)
        elif isinstance(node, _BinOp):
            self._check_index_pure(node.left)
            self._check_index_pure(node.right)

    def _to_affine(self, node: _Expr) -> AffineExpr:
        """Evaluate a subscript AST to an affine expression in the loop
        variable; anything else is a parse error."""
        assert self._loop_header is not None
        var = self._loop_header.var
        if isinstance(node, _Num):
            return AffineExpr.constant(node.value, var)
        if isinstance(node, _Var):
            if node.name != var:
                raise self._error(
                    f"subscript uses {node.name!r}; only the loop variable "
                    f"{var!r} and constants are allowed", node.token)
            return AffineExpr.variable(var)
        if isinstance(node, _UnaryOp):
            return -self._to_affine(node.operand)
        if isinstance(node, _BinOp):
            left = self._to_affine(node.left)
            right = self._to_affine(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                if left.is_constant:
                    return right * left.offset
                if right.is_constant:
                    return left * right.offset
                raise self._error("subscript is not affine in the loop "
                                  "variable", node.token)
            raise self._error(
                f"operator {node.op!r} not allowed in subscripts",
                node.token)
        raise self._error(f"internal: unknown subscript node {node!r}")

    def _iteration_count(self, header: _LoopHeader) -> int | None:
        if header.bound_value is None:
            return None
        start, bound, step = header.start, header.bound_value, header.step
        if step > 0:
            limit = bound - start
            if header.relation == "<=":
                return max(0, limit // step + 1)
            return max(0, -(-limit // step))  # ceil(limit / step)
        # Decreasing loop with '<'/'<=' never terminates sensibly unless
        # it starts below the bound; model the count conservatively.
        if header.relation == "<=":
            return 0 if start > bound else None
        return 0 if start >= bound else None


def reference_parse_kernel(source: str, name: str = "kernel") -> Kernel:
    """Parse ``source`` the way the recursive-descent parser did."""
    return Parser(source, name=name).parse()
