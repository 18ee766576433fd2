"""Differential oracle for the single-pattern lexer.

:func:`repro.ir.lexer.tokenize` scans with one compiled pattern;
:func:`_reference_lexer.reference_tokenize` is the character-at-a-time
scanner it replaced.  On ASCII sources both must give equal token
lists, or raise :class:`~repro.errors.ParseError` with the same
message, line and column.  (Off ASCII they differ on purpose: the
reference accepts Unicode digits -- see ``tests/test_lexer.py``.)
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from _reference_lexer import reference_tokenize

from repro.errors import ParseError
from repro.ir.lexer import tokenize
from repro.workloads.kernels import KERNELS

#: Every ASCII character, control characters included.
ASCII = "".join(map(chr, range(128)))

#: Whitespace as ``str.isspace`` sees it, the file separators included.
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"

#: Characters that start no token.
STRAY = "@$#`!?~^&|\\\"'.:\x00\x7f"

#: Lexically interesting fragments, glued together without separators
#: as often as not, so maximal munch and token boundaries get probed.
FRAGMENTS = (
    "for", "int", "forint", "i", "_x", "A1", "N", "0", "7", "42", "12ab",
    "3_", "<=", ">=", "==", "!=", "++", "--", "+=", "-=", "*=", "/=", "!",
    *"+-*/%<>=;,(){}[]", "//", "/*", "*/", "/*/", "// note\n",
    "/* one\nor two\nlines */", "/**/", "\n", "\r\n", "\t", *STRAY,
)


def outcome(lexer, source: str):
    """``("ok", tokens)`` or ``("error", message, line, column)``."""
    try:
        return ("ok", lexer(source))
    except ParseError as error:
        return ("error", str(error), error.line, error.column)


def assert_agree(source: str):
    fast = outcome(tokenize, source)
    assert fast == outcome(reference_tokenize, source), repr(source)
    return fast


token_soup = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS),
              st.text(alphabet=WHITESPACE, min_size=1, max_size=3)),
    max_size=40).map("".join)


@st.composite
def mutated_kernels(draw):
    """A library kernel with a few random edits: fragments (comments
    across lines, an unterminated ``/*``, stray characters) inserted,
    slices deleted, characters replaced."""
    source = KERNELS[draw(st.sampled_from(sorted(KERNELS)))].source
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(source)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            piece = draw(st.one_of(st.sampled_from(FRAGMENTS),
                                   st.text(alphabet=ASCII, max_size=4)))
            source = source[:at] + piece + source[at:]
        elif edit == "delete":
            source = source[:at] + source[at + draw(st.integers(1, 8)):]
        else:
            source = source[:at] + draw(st.sampled_from(ASCII)) \
                + source[at + 1:]
    return source


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_library_kernels_tokenize_identically(name):
    assert assert_agree(KERNELS[name].source)[0] == "ok"


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(token_soup)
    @example("a /* never closed\n\n b")
    @example("x //* line comment, not a block\n y")
    @example("/*/ still open */ z")
    @example("i+++1 <== 12ab")
    @example("A[i]\r\n\x0b\x1c@")
    def test_token_soup(self, source):
        assert_agree(source)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=ASCII, max_size=60))
    def test_arbitrary_ascii(self, source):
        assert_agree(source)

    @settings(max_examples=200, deadline=None)
    @given(mutated_kernels())
    def test_mutated_library_kernels(self, source):
        assert_agree(source)

    @pytest.mark.parametrize("source, message", [
        ("a\n  /* open", "line 2, column 3: unterminated /* comment"),
        ("x = 12ab;", "line 1, column 5: malformed number near '12a'"),
        ("x\n\t@", "line 2, column 2: unexpected character '@'"),
    ])
    def test_every_error_kind_agrees(self, source, message):
        assert assert_agree(source)[1] == message
