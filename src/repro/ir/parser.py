"""Parser for the C-like kernel language.

The grammar (whitespace and comments handled by the lexer)::

    kernel     := decl* for_loop
    decl       := 'int' declarator (',' declarator)* ';'
    declarator := IDENT ('[' INT ']')?
    for_loop   := 'for' '(' IDENT '=' sint ';' IDENT ('<'|'<=') bound ';'
                  update ')' '{' stmt* '}'
    sint       := ('+'|'-')? INT
    bound      := sint | IDENT
    update     := '++' IDENT
                | IDENT ('++' | '--' | ('+='|'-=') sint
                         | '=' IDENT ('+'|'-') sint)
    stmt       := ';' | expr (('='|'+='|'-='|'*='|'/=') expr)? ';'
    expr       := operand (binop operand)*
    binop      := '*' | '/' | '+' | '-'
    operand    := ('+'|'-') operand | primary ('[' expr ']')?
    primary    := INT | IDENT | '(' expr ')'

``expr`` is parsed by precedence climbing over this table; every
binary operator is left-associative::

    precedence 2 (binds tighter):  '*'  '/'
    precedence 1:                  '+'  '-'

so ``a - b * c - d`` groups as ``(a - (b * c)) - d``.

Array subscripts must be affine in the loop variable (``i``, ``i+3``,
``2*i-1``, or a constant).  Accesses are recorded in C evaluation order:
for an assignment the right-hand side is evaluated first, then the
left-hand side location is written (for compound assignments the
location is read first, then written).

Arrays need not be declared: any subscripted identifier is implicitly
declared, matching the paper's bare example loop.

The parser reads the token texts of :func:`~repro.ir.lexer.token_texts`
and tells a token's kind from its text.  Lines and columns are worked
out only when a :class:`~repro.errors.ParseError` is raised: an error
is placed at a token index, and :func:`~repro.ir.lexer.tokenize` gives
that token's position.  Lexing errors come first, then syntax errors,
then those of the semantic pass.
"""

from __future__ import annotations

from string import ascii_letters
from typing import NamedTuple

from repro.errors import ParseError
from repro.ir.expr import AffineExpr
from repro.ir.lexer import KEYWORDS, TokenType, token_texts, tokenize
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
class _Num(NamedTuple):
    value: int


class _Var(NamedTuple):
    name: str
    token: int


class _ArrayRef(NamedTuple):
    array: str
    index: "_Expr"
    token: int


class _UnaryOp(NamedTuple):
    op: str
    operand: "_Expr"
    token: int


class _BinOp(NamedTuple):
    op: str
    left: "_Expr"
    right: "_Expr"
    token: int


_Expr = _Num | _Var | _ArrayRef | _UnaryOp | _BinOp

#: Binary operator precedence; a higher number binds tighter.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

_ASSIGNMENT_OPS = frozenset({"=", "+=", "-=", "*=", "/="})

#: First characters of identifier (and keyword) and of literal texts.
#: ASCII only, as the lexer's: ``str.isdigit`` would take ``'²'``.
_WORD_START = frozenset(ascii_letters + "_")
_DIGITS = frozenset("0123456789")


def _describe(text: str) -> str:
    """A token text as an error message names it."""
    return repr(text) if text else "end of input"


class _LoopHeader(NamedTuple):
    var: str
    start: int
    relation: str
    bound_value: int | None
    bound_symbol: str | None
    step: int


class Parser:
    """Parser state over a token text list (see module docstring for
    grammar).

    Tokens are tested by their text alone: operator and keyword texts
    are never identifier or literal texts, an identifier starts with a
    letter or ``_``, a literal with a digit, and only EOF has the empty
    text.  AST nodes keep their token's index; :meth:`_error` places it
    at a line and column with :func:`~repro.ir.lexer.tokenize`, so only
    a failing parse pays for positions.
    """

    def __init__(self, source: str, name: str = "kernel"):
        self._texts = token_texts(source)
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
    def _peek(self) -> str:
        return self._texts[self._pos]

    def _is_ident(self) -> bool:
        """Whether the next token is an identifier."""
        text = self._texts[self._pos]
        return text[:1] in _WORD_START and text not in KEYWORDS

    def _match(self, value: str) -> bool:
        """Consume the next token if its text is ``value``."""
        if self._texts[self._pos] != value:
            return False
        self._pos += 1
        return True

    def _expect(self, value: str, context: str = "") -> int:
        """Consume the next token, whose text must be ``value``; returns
        its index."""
        pos = self._pos
        if self._texts[pos] != value:
            raise self._expected(value, context)
        self._pos = pos + 1
        return pos

    def _expect_ident(self, context: str) -> int:
        """Consume an identifier; returns its index."""
        if not self._is_ident():
            raise self._expected(TokenType.IDENT.value, context)
        self._pos += 1
        return self._pos - 1

    def _expect_int(self, context: str) -> int:
        """Consume an integer literal; returns its value."""
        text = self._texts[self._pos]
        if text[:1] not in _DIGITS:
            raise self._expected(TokenType.INT.value, context)
        self._pos += 1
        return int(text)

    def _expected(self, expected: str, context: str) -> ParseError:
        where = f" in {context}" if context else ""
        return self._error(f"expected {expected!r}{where}, found "
                           f"{_describe(self._peek())}")

    def _error(self, message: str, token: int | None = None) -> ParseError:
        """A :class:`ParseError` at token index ``token`` (the next
        token by default)."""
        where = tokenize(self._source)[self._pos if token is None
                                       else token]
        return ParseError(message, where.line, where.column)

    # ------------------------------------------------------------------
    # Grammar: top level
    # ------------------------------------------------------------------
    def parse(self) -> Kernel:
        """Parse the whole source into a :class:`Kernel`."""
        while self._peek() == "int":
            self._parse_declaration()
        if self._peek() != "for":
            raise self._error("expected a 'for' loop")
        header, statements = self._parse_for_loop()
        if self._peek():
            raise self._error(f"expected {TokenType.EOF.value!r} after the "
                              f"loop, found {_describe(self._peek())}")

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
        self._expect("int")
        while True:
            name_token = self._expect_ident("declaration")
            name = self._texts[name_token]
            if name in self._arrays or name in self._declared_scalars:
                raise self._error(f"{name!r} declared twice", name_token)
            if self._match("["):
                length = self._expect_int("array length")
                self._expect("]", context="array declaration")
                self._arrays[name] = ArrayDecl(name, length=length)
            else:
                self._declared_scalars[name] = None
            if not self._match(","):
                break
        self._expect(";", context="declaration")

    # ------------------------------------------------------------------
    # Grammar: the for loop
    # ------------------------------------------------------------------
    def _parse_for_loop(self) -> tuple[_LoopHeader, list[tuple[str, _Expr, _Expr | None]]]:
        self._expect("for")
        self._expect("(", context="for loop")

        var = self._texts[self._expect_ident("loop initializer")]
        self._expect("=", context="loop initializer")
        start = self._parse_signed_int("loop start value")
        self._expect(";", context="for loop")

        cond_var = self._expect_ident("loop condition")
        if self._texts[cond_var] != var:
            raise self._error(
                f"loop condition tests {self._texts[cond_var]!r}, expected "
                f"the loop variable {var!r}", cond_var)
        relation = self._peek()
        if relation not in ("<", "<="):
            raise self._error("loop condition must use '<' or '<='")
        self._pos += 1
        bound_value: int | None = None
        bound_symbol: str | None = None
        if self._is_ident():
            bound_symbol = self._peek()
            self._pos += 1
        else:
            bound_value = self._parse_signed_int("loop bound")
        self._expect(";", context="for loop")

        step = self._parse_update(var)
        self._expect(")", context="for loop")

        self._expect("{", context="loop body")
        statements: list[tuple[str, _Expr, _Expr | None]] = []
        while not self._match("}"):
            if not self._peek():
                raise self._error("unterminated loop body (missing '}')")
            statement = self._parse_statement()
            if statement is not None:
                statements.append(statement)

        header = _LoopHeader(var=var, start=start, relation=relation,
                             bound_value=bound_value,
                             bound_symbol=bound_symbol, step=step)
        return header, statements

    def _parse_signed_int(self, context: str) -> int:
        sign = -1 if self._peek() == "-" else 1
        if self._peek() in ("-", "+"):
            self._pos += 1
        return sign * self._expect_int(context)

    def _parse_update(self, var: str) -> int:
        """Parse the loop update clause; returns the step."""
        prefix = self._match("++")
        name = self._expect_ident("loop update")
        if self._texts[name] != var:
            raise self._error(
                f"loop update changes {self._texts[name]!r}, expected "
                f"{var!r}", name)
        if prefix:
            return 1
        if self._match("++"):
            return 1
        if self._match("--"):
            return -1
        if self._match("+="):
            return self._parse_signed_int("loop step")
        if self._match("-="):
            return -self._parse_signed_int("loop step")
        if self._match("="):
            base = self._expect_ident("loop update")
            if self._texts[base] != var:
                raise self._error(
                    f"loop update must have the form {var} = {var} + c",
                    base)
            if self._match("+"):
                return self._parse_signed_int("loop step")
            if self._match("-"):
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
        if self._match(";"):
            return None
        left = self._parse_expr(1)
        op_token = self._pos
        op = self._texts[op_token]
        if op not in _ASSIGNMENT_OPS:
            self._expect(";", context="expression statement")
            return ("expr", left, None)
        self._pos += 1
        right = self._parse_expr(1)
        self._expect(";", context="assignment")
        if not isinstance(left, (_Var, _ArrayRef)):
            raise self._error("left-hand side of assignment must be a "
                              "variable or array element", op_token)
        return (op, left, right)

    def _parse_expr(self, min_precedence: int) -> _Expr:
        """Precedence climbing: an operand, then every binary operator
        binding at least as tight as ``min_precedence`` with its right
        operand (left-associative, so the right side climbs one
        higher)."""
        left = self._parse_operand()
        texts = self._texts
        while True:
            token = self._pos
            op = texts[token]
            precedence = _PRECEDENCE.get(op, 0)
            if precedence < min_precedence:
                return left
            self._pos = token + 1
            left = _BinOp(op, left, self._parse_expr(precedence + 1), token)

    def _parse_operand(self) -> _Expr:
        """A unary-signed operand: a primary, optionally subscripted."""
        texts = self._texts
        token = self._pos
        text = texts[token]
        if text == "-":
            self._pos = token + 1
            return _UnaryOp("-", self._parse_operand(), token)
        if text == "+":
            self._pos = token + 1
            return self._parse_operand()
        first = text[:1]
        if first in _DIGITS:
            self._pos = token + 1
            primary: _Expr = _Num(int(text))
        elif first in _WORD_START and text not in KEYWORDS:
            self._pos = token + 1
            primary = _Var(text, token)
        elif text == "(":
            self._pos = token + 1
            primary = self._parse_expr(1)
            self._expect(")", context="parenthesized expression")
        else:
            raise self._error(
                f"expected an expression, found {_describe(text)}")
        if texts[self._pos] != "[":
            return primary
        if not isinstance(primary, _Var):
            raise self._error("only identifiers can be subscripted")
        self._pos += 1
        index = self._parse_expr(1)
        close = self._expect("]", context="subscript")
        return _ArrayRef(primary.name, index, close)

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
            coefficient, offset = self._to_affine(node.index)
            if node.array not in self._arrays:
                if node.array in self._declared_scalars:
                    raise self._error(
                        f"{node.array!r} declared scalar but subscripted",
                        node.token)
                self._arrays[node.array] = ArrayDecl(node.array)
            affine = AffineExpr(coefficient, offset, self._loop_header.var)
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

    def _to_affine(self, node: _Expr) -> tuple[int, int]:
        """Evaluate a subscript AST to ``(coefficient, offset)`` of an
        affine expression in the loop variable; anything else is a
        parse error."""
        assert self._loop_header is not None
        if isinstance(node, _Num):
            return 0, node.value
        if isinstance(node, _Var):
            var = self._loop_header.var
            if node.name != var:
                raise self._error(
                    f"subscript uses {node.name!r}; only the loop variable "
                    f"{var!r} and constants are allowed", node.token)
            return 1, 0
        if isinstance(node, _UnaryOp):
            coefficient, offset = self._to_affine(node.operand)
            return -coefficient, -offset
        if isinstance(node, _BinOp):
            left_coefficient, left_offset = self._to_affine(node.left)
            right_coefficient, right_offset = self._to_affine(node.right)
            if node.op == "+":
                return (left_coefficient + right_coefficient,
                        left_offset + right_offset)
            if node.op == "-":
                return (left_coefficient - right_coefficient,
                        left_offset - right_offset)
            if node.op == "*":
                if left_coefficient == 0:
                    return (right_coefficient * left_offset,
                            right_offset * left_offset)
                if right_coefficient == 0:
                    return (left_coefficient * right_offset,
                            left_offset * right_offset)
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


def parse_kernel(source: str, name: str = "kernel") -> Kernel:
    """Parse kernel source text into a :class:`~repro.ir.types.Kernel`.

    Example
    -------
    >>> kernel = parse_kernel('''
    ...     for (i = 2; i <= N; i++) {
    ...         A[i+1]; A[i]; A[i+2]; A[i-1]; A[i+1]; A[i]; A[i-2];
    ...     }
    ... ''')
    >>> kernel.pattern.offsets()
    (1, 0, 2, -1, 1, 0, -2)
    """
    return Parser(source, name=name).parse()
