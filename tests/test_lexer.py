"""Unit tests for the kernel-language tokenizer."""

import socket

import pytest

from repro.batch.service import recv_frame, send_frame
from repro.batch.serving import CompileService
from repro.errors import ParseError
from repro.ir.lexer import Token, TokenType, tokenize
from repro.ir.parser import parse_kernel


def kinds(source: str) -> list[tuple[TokenType, str]]:
    return [(token.type, token.value) for token in tokenize(source)]


class TestBasics:
    def test_empty_input_is_just_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_identifier_and_int(self):
        assert kinds("abc 42")[:2] == [
            (TokenType.IDENT, "abc"), (TokenType.INT, "42")]

    def test_keywords(self):
        assert kinds("for int forint")[:3] == [
            (TokenType.KEYWORD, "for"), (TokenType.KEYWORD, "int"),
            (TokenType.IDENT, "forint")]

    def test_underscore_identifiers(self):
        assert kinds("_x x_1")[:2] == [
            (TokenType.IDENT, "_x"), (TokenType.IDENT, "x_1")]

    def test_all_single_char_operators(self):
        source = "+ - * / % < > = ; , ( ) { } [ ]"
        tokens = tokenize(source)
        assert [t.value for t in tokens[:-1]] == source.split()

    def test_multi_char_operators_maximal_munch(self):
        assert kinds("<= >= == != ++ -- += -=")[:8] == [
            (TokenType.OP, "<="), (TokenType.OP, ">="),
            (TokenType.OP, "=="), (TokenType.OP, "!="),
            (TokenType.OP, "++"), (TokenType.OP, "--"),
            (TokenType.OP, "+="), (TokenType.OP, "-=")]

    def test_plus_plus_vs_plus(self):
        # i+++1 scans as i ++ + 1 (C's maximal munch).
        assert [value for _t, value in kinds("i+++1")[:-1]] == \
            ["i", "++", "+", "1"]


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\n b")[:2] == [
            (TokenType.IDENT, "a"), (TokenType.IDENT, "b")]

    def test_block_comment(self):
        assert kinds("a /* anything\n at all */ b")[:2] == [
            (TokenType.IDENT, "a"), (TokenType.IDENT, "b")]

    def test_block_comment_not_nested(self):
        tokens = kinds("/* outer /* inner */ b")
        assert tokens[0] == (TokenType.IDENT, "b")

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(ParseError, match="unterminated"):
            tokenize("a /* oops")


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            tokenize("x\n  @")
        assert info.value.line == 2
        assert info.value.column == 3


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("a $ b")

    def test_malformed_number(self):
        with pytest.raises(ParseError, match="malformed number"):
            tokenize("12ab")

    def test_token_str(self):
        token = Token(TokenType.IDENT, "xyz", 1, 1)
        assert "xyz" in str(token)
        eof = tokenize("")[0]
        assert str(eof) == "end of input"


class TestNonAsciiDigits:
    """``str.isdigit`` accepts Unicode digits that ``int()`` rejects or
    reads as ASCII; integer literals are ``[0-9]+`` only."""

    def test_superscript_bound_is_a_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_kernel("for (i = 0; i < ²; i++) { A[i]; }")
        assert "unexpected character '²'" in str(info.value)
        assert (info.value.line, info.value.column) == (1, 17)

    def test_arabic_indic_digit_is_not_read_as_a_digit(self):
        # Not 13 iterations: the literal stops at the ASCII '1'.
        with pytest.raises(ParseError) as info:
            parse_kernel("for (i = 0; i < 1٣; i++) { A[i]; }")
        assert "unexpected character '٣'" in str(info.value)
        assert (info.value.line, info.value.column) == (1, 18)

    @pytest.mark.parametrize("digit", ["٣", "²", "０", "߁"])
    def test_unicode_digit_positions(self, digit):
        with pytest.raises(ParseError) as info:
            tokenize(f"A[i]\n  x = {digit};")
        assert (info.value.line, info.value.column) == (2, 7)

    def test_ascii_literals_still_scan(self):
        assert kinds("0 1234567890")[:2] == [
            (TokenType.INT, "0"), (TokenType.INT, "1234567890")]

    def test_serve_answers_a_parse_error_frame(self):
        with CompileService() as service, socket.create_connection(
                service.address, timeout=30.0) as sock:
            send_frame(sock, {"op": "compile", "source":
                              "for (i = 0; i < ²; i++) { A[i]; }"})
            answer = recv_frame(sock)
        assert answer["ok"] is False
        assert answer["error"] == ("ParseError: line 1, column 17: "
                                   "unexpected character '²'")
