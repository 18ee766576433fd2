"""The character-at-a-time kernel lexer, kept as a test-local oracle.

This is the tokenizer as it was before :mod:`repro.ir.lexer` became
one compiled pattern.  The differential tests compare
:func:`repro.ir.lexer.tokenize` against it token for token on ASCII
sources, and its :class:`~repro.errors.ParseError` messages, lines and
columns word for word.  Do not optimise it.

It differs from the frontend on non-ASCII input by design: it scans
with ``str.isdigit``/``str.isalpha``, which accept Unicode digits such
as ``'²'`` that ``int()`` then rejects.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.ir.lexer import Token, TokenType

KEYWORDS = frozenset({"for", "int"})

#: Multi-character operators, longest first so maximal munch works.
_MULTI_CHAR = ("<=", ">=", "==", "!=", "++", "--", "+=", "-=", "*=", "/=")
_SINGLE_CHAR = "+-*/%<>=;,(){}[]"


class Lexer:
    """Hand-written scanner producing a list of :class:`Token`."""

    def __init__(self, source: str):
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    # ------------------------------------------------------------------
    # Character-level helpers
    # ------------------------------------------------------------------
    def _peek(self, ahead: int = 0) -> str:
        index = self._pos + ahead
        return self._source[index] if index < len(self._source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
            self._pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._source):
            char = self._peek()
            if char.isspace():
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                open_line, open_column = self._line, self._column
                self._advance(2)
                while self._pos < len(self._source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise ParseError("unterminated /* comment",
                                     open_line, open_column)
            else:
                return

    # ------------------------------------------------------------------
    # Tokenization
    # ------------------------------------------------------------------
    def tokens(self) -> list[Token]:
        """Scan the whole input; always ends with an EOF token."""
        result: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._source):
                result.append(Token(TokenType.EOF, "", self._line,
                                    self._column))
                return result
            result.append(self._next_token())

    def _next_token(self) -> Token:
        line, column = self._line, self._column
        char = self._peek()

        if char.isdigit():
            start = self._pos
            while self._peek().isdigit():
                self._advance()
            if self._peek().isalpha() or self._peek() == "_":
                raise ParseError(
                    f"malformed number near "
                    f"{self._source[start:self._pos + 1]!r}", line, column)
            return Token(TokenType.INT, self._source[start:self._pos],
                         line, column)

        if char.isalpha() or char == "_":
            start = self._pos
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
            text = self._source[start:self._pos]
            kind = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENT
            return Token(kind, text, line, column)

        for op in _MULTI_CHAR:
            if self._source.startswith(op, self._pos):
                self._advance(len(op))
                return Token(TokenType.OP, op, line, column)

        if char in _SINGLE_CHAR:
            self._advance()
            return Token(TokenType.OP, char, line, column)

        raise ParseError(f"unexpected character {char!r}", line, column)


def reference_tokenize(source: str) -> list[Token]:
    """Scan ``source`` with the reference lexer."""
    return Lexer(source).tokens()
