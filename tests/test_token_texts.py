"""The parser's lazy error positions.

The parser reads :func:`repro.ir.lexer.token_texts` and places an error
only when it raises, by looking its token index up in
:func:`repro.ir.lexer.tokenize`.  So the texts must be exactly the
tokens' values, and every :class:`~repro.errors.ParseError` must carry
the message, line and column of the recursive-descent oracle in
``_reference_parser.py`` -- also where comments span lines, tabs and
``\\r\\n`` sit in front of the failing token.  The sources are the
parser differential's (generated, expression and library kernels) with
comments and whitespace put in their gaps, then its malformed edits.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from test_lexer_differential import outcome
from test_parser_differential import (
    LIBRARY,
    assert_agree,
    expression_kernels,
    generated_kernels,
    mutated,
)

from repro.ir.lexer import token_texts, tokenize

#: Comments and whitespace that separate tokens: block comments over
#: several lines, line comments, tabs and ``\r\n``.
TRIVIA = ("/* spans\n two lines */", "/*\r\n\t*/", "/**/",
          "// to the end of the line\n", "//\r\n", "\t", "\r\n",
          "\t\r\n\t", " /* a */\t// b\r\n")


@st.composite
def with_trivia(draw, sources):
    """One of ``sources`` with some of its whitespace characters each
    replaced by a piece of :data:`TRIVIA`."""
    source = draw(sources)
    gaps = [at for at, char in enumerate(source) if char.isspace()]
    if not gaps:
        return source
    for at in sorted(set(draw(st.lists(st.sampled_from(gaps),
                                       max_size=8))), reverse=True):
        source = source[:at] + draw(st.sampled_from(TRIVIA)) \
            + source[at + 1:]
    return source


SOURCES = mutated(with_trivia(st.one_of(generated_kernels(),
                                        expression_kernels(), LIBRARY)))


class TestTokenTexts:
    @settings(max_examples=300, deadline=None)
    @given(SOURCES)
    @example("a /* one\r\n two */\t// three\r\n")
    @example("x\r\n\t/* open")
    def test_texts_are_the_token_values(self, source):
        tokens = outcome(tokenize, source)
        texts = outcome(token_texts, source)
        if tokens[0] == "ok":
            assert texts == ("ok", [token.value for token in tokens[1]])
        else:
            assert texts == tokens

    @pytest.mark.parametrize("source", ["", " ", "\r\n", "/**/",
                                        "// only a comment"])
    def test_no_tokens_is_just_the_end_of_input(self, source):
        assert token_texts(source) == [""]


class TestErrorPositions:
    @settings(max_examples=300, deadline=None)
    @given(SOURCES)
    def test_errors_match_the_reference(self, source):
        assert_agree(source)

    @pytest.mark.parametrize("source, error", [
        ("for (i = 0; i < 8; i++) {\r\n\tA[i];\r\n}\r\n\tB",
         ("line 4, column 2: expected 'end-of-input' in after the loop, "
          "found 'B'", 4, 2)),
        ("for (i = 0; i < 8; i++) { A[i]; } /* x\n */ @",
         ("line 2, column 5: unexpected character '@'", 2, 5)),
    ])
    def test_an_error_on_the_last_token(self, source, error):
        assert assert_agree(source) == ("error", *error)

    @pytest.mark.parametrize("source, error", [
        ("for (i = 0; i < 8; i++) {\n  A[i];\n  // trailing comment\n",
         ("line 4, column 1: unterminated loop body (missing '}')", 4, 1)),
        ("for (i = 0; i < 8; i++) { A[i] = /* spans\n two lines */",
         ("line 2, column 14: expected an expression, found end of "
          "input", 2, 14)),
    ])
    def test_an_error_at_the_end_of_input_after_a_comment(self, source,
                                                          error):
        assert assert_agree(source) == ("error", *error)
