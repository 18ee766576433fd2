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

Tokens are plain tuples (:class:`Token` is a ``NamedTuple``), one per
match of a single compiled pattern that also skips the whitespace and
comments in front of each token.
"""

from __future__ import annotations

import re
from enum import Enum, unique
from typing import NamedTuple

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


class Token(NamedTuple):
    """One lexical token with its 1-based source position."""

    type: TokenType
    value: str
    line: int
    column: int

    def __str__(self) -> str:
        if self.type is TokenType.EOF:
            return "end of input"
        return f"{self.value!r}"


#: The whole token language as one pattern: one match per token, the
#: last one the empty ``eof`` at the end of the source.  The prefix
#: skips the whitespace and complete comments before the token, so
#: ``//`` and ``/*`` never scan as division; an unterminated ``/*``
#: is left for ``open_comment``, which is tried before the operators.
#: Two-character operators come before their one-character prefixes
#: (maximal munch).  Whatever starts no token is ``bad``, so the group
#: after the prefix matches at every position and the greedy prefix is
#: never backtracked into.
_TOKEN_PATTERN = re.compile(r"""
    (?:\s+|//[^\n]*|/\*.*?\*/)*
    (?:
      (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<open_comment>/\*)
    | (?P<op><=|>=|==|!=|\+\+|--|\+=|-=|\*=|/=|[-+*/%<>=;,(){}\[\]])
    | (?P<int>[0-9]+)(?P<int_suffix>[A-Za-z_])?
    | (?P<bad>.)
    | (?P<eof>\Z)
    )
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
    append = tokens.append
    line = 1
    line_start = 0  # index of the first character of ``line``
    end = 0  # where the previous token ended
    for match in _TOKEN_PATTERN.finditer(source):
        kind = match.lastgroup
        text = match.group(kind)
        stop = match.end()
        start = stop - len(text)
        if start != end:  # whitespace or comments were skipped
            newlines = source.count("\n", end, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", end, start) + 1
        end = stop
        column = start - line_start + 1
        if kind == "word":
            append(Token(TokenType.KEYWORD if text in KEYWORDS
                         else TokenType.IDENT, text, line, column))
        elif kind == "op":
            append(Token(TokenType.OP, text, line, column))
        elif kind == "int":
            append(Token(TokenType.INT, text, line, column))
        elif kind == "eof":
            # Return at once: ``finditer`` would match ``eof`` again,
            # empty, after a match that ends at the end of the source.
            append(Token(TokenType.EOF, "", line, column))
            return tokens
        else:
            if kind == "int_suffix":  # report the whole literal
                start = match.start("int")
                text = source[start:end]
                column = start - line_start + 1
            raise ParseError(_ERRORS[kind].format(text), line, column)
    raise AssertionError("the token pattern always ends with eof")
