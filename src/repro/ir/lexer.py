"""Tokenizer for the C-like kernel language.

The language is the minimal C subset the paper writes its examples in:
``int`` declarations, one counted ``for`` loop, and expression/assignment
statements over array references ``A[i+1]`` and scalar variables.  Both
``/* ... */`` and ``// ...`` comments are accepted.

Tokens are ASCII: integer literals are ``[0-9]+`` and identifiers are
C's ``[A-Za-z_][A-Za-z0-9_]*``.  Whitespace is anything ``str.isspace``
accepts, and comments may hold any text.  Any other character -- a
Unicode digit such as ``'²'`` included -- is a :class:`ParseError`
naming its line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, unique

from repro.errors import ParseError

KEYWORDS = frozenset({"for", "int"})


@unique
class TokenType(Enum):
    """Lexical token categories."""

    INT = "int-literal"
    IDENT = "identifier"
    KEYWORD = "keyword"
    OP = "operator"
    EOF = "end-of-input"


@dataclass(frozen=True)
class Token:
    """One lexical token with its 1-based source position."""

    type: TokenType
    value: str
    line: int
    column: int

    def __str__(self) -> str:
        if self.type is TokenType.EOF:
            return "end of input"
        return f"{self.value!r}"


#: The whole token language as one pattern, tried at each position in
#: turn.  Comments come before operators so ``//`` and ``/*`` never scan
#: as division, and two-character operators before their one-character
#: prefixes (maximal munch).  Whatever starts no token is ``bad``.
_TOKEN_PATTERN = re.compile(r"""
      (?P<space>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<open_comment>/\*)
    | (?P<int>[0-9]+)(?P<int_suffix>[A-Za-z_])?
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|==|!=|\+\+|--|\+=|-=|\*=|/=|[-+*/%<>=;,(){}\[\]])
    | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

#: Error message templates of the pattern's error groups, formatted
#: with the matched text.
_ERRORS = {"int_suffix": "malformed number near {!r}",
           "open_comment": "unterminated /* comment",
           "bad": "unexpected character {!r}"}


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into tokens; the list always ends with EOF.

    Raises
    ------
    ParseError
        On an unterminated ``/*`` comment (at its opening), a number
        run into a letter, or a character that starts no token.
    """
    tokens: list[Token] = []
    line = 1
    line_start = 0  # index of the first character of ``line``
    for match in _TOKEN_PATTERN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "space" or kind == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
            continue
        column = match.start() - line_start + 1
        if kind == "op":
            tokens.append(Token(TokenType.OP, text, line, column))
        elif kind == "word":
            tokens.append(Token(TokenType.KEYWORD if text in KEYWORDS
                                else TokenType.IDENT, text, line, column))
        elif kind == "int":
            tokens.append(Token(TokenType.INT, text, line, column))
        else:
            raise ParseError(_ERRORS[kind].format(text), line, column)
    tokens.append(Token(TokenType.EOF, "", line,
                        len(source) - line_start + 1))
    return tokens
