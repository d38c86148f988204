"""Unit tests for the MiniC lexer."""

import sys
from pathlib import Path

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import Lexer, tokenize
from repro.lang.source import SourceFile
from repro.lang.tokens import Token, TokenKind
from repro.systems.registry import get_system, system_names

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "runtime"))
from test_engine_fuzz import ProgramGenerator  # noqa: E402


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]  # drop EOF


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        toks = tokenize("int foo while_ _bar")
        assert toks[0].kind is TokenKind.KW_INT
        assert toks[1].kind is TokenKind.IDENT
        assert toks[1].text == "foo"
        assert toks[2].kind is TokenKind.IDENT  # while_ is not a keyword
        assert toks[3].kind is TokenKind.IDENT

    def test_null_keyword_is_uppercase(self):
        toks = tokenize("NULL null")
        assert toks[0].kind is TokenKind.KW_NULL
        assert toks[1].kind is TokenKind.IDENT

    def test_decimal_integer(self):
        tok = tokenize("12345")[0]
        assert tok.kind is TokenKind.INT_LIT
        assert tok.value == 12345

    def test_hex_integer(self):
        tok = tokenize("0xFF")[0]
        assert tok.value == 255

    def test_octal_integer(self):
        tok = tokenize("0755")[0]
        assert tok.value == 0o755

    def test_integer_suffixes_ignored(self):
        assert tokenize("10L")[0].value == 10
        assert tokenize("10UL")[0].value == 10

    def test_float_literal(self):
        tok = tokenize("3.25")[0]
        assert tok.kind is TokenKind.FLOAT_LIT
        assert tok.value == 3.25

    def test_float_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-1")[0].value == 0.25

    def test_char_literal(self):
        assert tokenize("'a'")[0].value == ord("a")
        assert tokenize("'\\n'")[0].value == ord("\n")
        assert tokenize("'\\0'")[0].value == 0

    def test_string_literal(self):
        tok = tokenize('"hello world"')[0]
        assert tok.kind is TokenKind.STRING_LIT
        assert tok.value == "hello world"

    def test_string_escapes(self):
        assert tokenize(r'"a\tb\n"')[0].value == "a\tb\n"
        assert tokenize(r'"\x41"')[0].value == "A"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("@")


class TestOperators:
    def test_multi_char_operators_longest_match(self):
        assert kinds("a <<= b") == [
            TokenKind.IDENT,
            TokenKind.SHL_ASSIGN,
            TokenKind.IDENT,
        ]
        assert kinds("a << b") == [TokenKind.IDENT, TokenKind.SHL, TokenKind.IDENT]
        assert kinds("a->b") == [TokenKind.IDENT, TokenKind.ARROW, TokenKind.IDENT]

    def test_comparison_operators(self):
        assert kinds("< <= > >= == !=") == [
            TokenKind.LT,
            TokenKind.LE,
            TokenKind.GT,
            TokenKind.GE,
            TokenKind.EQ,
            TokenKind.NE,
        ]

    def test_increment_vs_plus(self):
        assert kinds("a++ + ++b") == [
            TokenKind.IDENT,
            TokenKind.PLUS_PLUS,
            TokenKind.PLUS,
            TokenKind.PLUS_PLUS,
            TokenKind.IDENT,
        ]


class TestTrivia:
    def test_line_comments_skipped(self):
        assert kinds("a // comment\n b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_block_comments_skipped(self):
        assert kinds("a /* x\ny */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* oops")

    def test_preprocessor_lines_skipped(self):
        assert kinds('#include "x.h"\nint a;') == [
            TokenKind.KW_INT,
            TokenKind.IDENT,
            TokenKind.SEMI,
        ]

    def test_locations_track_lines_and_columns(self):
        toks = tokenize("a\n  b")
        assert toks[0].location.line == 1
        assert toks[0].location.column == 1
        assert toks[1].location.line == 2
        assert toks[1].location.column == 3


def stepped(text: str) -> list[Token]:
    """The character-stepping path alone: `next_token` until EOF."""
    lexer = Lexer(SourceFile("t.c", text))
    out = [lexer.next_token()]
    while out[-1].kind is not TokenKind.EOF:
        out.append(lexer.next_token())
    return out


def scanned(text: str) -> list[Token]:
    return Lexer(SourceFile("t.c", text)).tokens()


class TestScannerParity:
    """`tokens()` scans common tokens with one regex and must yield
    exactly what stepping `next_token` yields, locations included."""

    def test_system_sources_and_generated_programs(self):
        texts = [
            text
            for name in system_names()
            for _, text in dict(get_system(name).sources).items()
        ]
        texts += [ProgramGenerator(seed).program().source() for seed in range(50)]
        for text in texts:
            assert scanned(text) == stepped(text)

    @pytest.mark.parametrize("text", [
        "a/b a/=b a/*c*/b x//y\nz",
        ".5 1. 1.5e3 a.b a...b 0 00 017 0x1F 10UL 1f 1e3 2.5e-1",
        'x = "plain"; y = "esc\\n"; c = \'q\';',
        "int é = ٣; café_2",
        "# define X\n\t\r\n  a",
        "",
    ])
    def test_tricky_spellings(self, text):
        assert scanned(text) == stepped(text)

    @pytest.mark.parametrize("text", [
        "int a;\n  b /* never closed",
        'x = 1;\ny = "oops',
        'x = "bad \\q escape";',
        "s = '\\x';",
        "c = '';",
        "c = 'ab';",
        "a = b @ c;",
        "a\n\n   $",
    ])
    def test_lex_errors_keep_message_and_location(self, text):
        with pytest.raises(LexError) as expected:
            stepped(text)
        with pytest.raises(LexError) as got:
            scanned(text)
        assert got.value.message == expected.value.message
        assert got.value.location == expected.value.location
