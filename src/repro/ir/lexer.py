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

The parser reads :func:`token_texts`: the token texts alone, from one
``findall``.  :func:`tokenize` gives each token its type, line and
column (:class:`Token` is a ``NamedTuple``); the parser calls it only
to place an error.  Both scan with a pattern built from the one token
grammar, whose prefix skips the whitespace and comments in front of
each token.
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


#: The token language.  Each match of ``_SKIP`` and one alternative of
#: ``_TOKEN`` is a token, the last one the empty ``eof`` at the end of
#: the source.  ``_SKIP`` takes the whitespace and complete comments
#: before the token, so ``//`` and ``/*`` never scan as division; an
#: unterminated ``/*`` is left for ``open_comment``, which is tried
#: before the operators.  Two-character operators come before their
#: one-character prefixes (maximal munch).  Whatever starts no token is
#: ``bad``, so the alternatives match at every position and the greedy
#: ``_SKIP`` is never backtracked into.  Each kind of token is a named
#: group.  An error group also takes the rest of the source, so an
#: error ends a scan, and only the last text before the end can be one.
_SKIP = r"(?:\s+|//[^\n]*|/\*.*?\*/)*"
_TOKEN = r"""
      (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<open_comment>/\*).*
    | (?P<op><=|>=|==|!=|\+\+|--|\+=|-=|\*=|/=|[-+*/%<>=;,(){}\[\]])
    | (?P<int>[0-9]+)(?:(?P<int_suffix>[A-Za-z_]).*)?
    | (?P<bad>.).*
    | (?P<eof>\Z)
"""
_FLAGS = re.VERBOSE | re.DOTALL

#: :func:`tokenize`'s pattern: ``lastgroup`` names the token's kind.
_TOKEN_PATTERN = re.compile(f"{_SKIP}(?:{_TOKEN})", _FLAGS)

#: :func:`token_texts`' pattern: the kinds' groups made non-capturing
#: and the token captured, so ``findall`` gives one text per token.
_TEXT_PATTERN = re.compile(
    f"{_SKIP}({re.sub(r'[(][?]P<[a-z_]+>', '(?:', _TOKEN)})", _FLAGS)

#: Error message templates of the pattern's error groups, formatted
#: with the erroneous text.
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
        # A malformed number is reported at its whole literal.
        start = match.start("int" if kind == "int_suffix" else kind)
        if start != end:  # whitespace or comments were skipped
            newlines = source.count("\n", end, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", end, start) + 1
        end = match.end(kind)
        text = source[start:end]
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
            raise ParseError(_ERRORS[kind].format(text), line, column)
    raise AssertionError("the token pattern always ends with eof")


def token_texts(source: str) -> list[str]:
    """The texts of ``source``'s tokens, ending with ``""`` for the end
    of input: ``[token.value for token in tokenize(source)]``, from one
    ``findall`` and without positions.

    Raises
    ------
    ParseError
        As :func:`tokenize` does, which it calls to place the error.
    """
    texts = _TEXT_PATTERN.findall(source)
    # ``findall`` matches the empty end of input a second time after a
    # match that skipped to the end of the source.
    if len(texts) > 1 and not texts[-2]:
        texts.pop()
    if len(texts) > 1 \
            and _TOKEN_PATTERN.match(texts[-2]).lastgroup in _ERRORS:
        tokenize(source)
        raise AssertionError(f"tokenize accepted {texts[-2]!r}")
    return texts
