"""Hand-written lexer for MiniC.

Supports C-style line and block comments, decimal/hex/octal integers
with optional unsigned/long suffixes, floats, character and string
literals with the common escapes, and the full C operator set used by
the parser.

`Lexer.tokens` scans the common tokens - trivia, identifiers, plain
decimal integers, escape-free strings and operators - with one
compiled regular expression, and hands every other position to the
character-stepping `Lexer.next_token`, which owns escapes, character
literals, hex/octal/float numbers and every `LexError`.  Both yield the
same tokens and locations.
"""

from __future__ import annotations

import re

from repro.lang.errors import LexError
from repro.lang.source import Location, SourceFile
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_SIMPLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}

# Longest-match-first operator table.
_OPERATORS: list[tuple[str, TokenKind]] = [
    ("...", TokenKind.ELLIPSIS),
    ("<<=", TokenKind.SHL_ASSIGN),
    (">>=", TokenKind.SHR_ASSIGN),
    ("->", TokenKind.ARROW),
    ("++", TokenKind.PLUS_PLUS),
    ("--", TokenKind.MINUS_MINUS),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("&&", TokenKind.AND_AND),
    ("||", TokenKind.OR_OR),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("&=", TokenKind.AMP_ASSIGN),
    ("|=", TokenKind.PIPE_ASSIGN),
    ("^=", TokenKind.CARET_ASSIGN),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (";", TokenKind.SEMI),
    (",", TokenKind.COMMA),
    (".", TokenKind.DOT),
    ("?", TokenKind.QUESTION),
    (":", TokenKind.COLON),
    ("=", TokenKind.ASSIGN),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
    ("!", TokenKind.NOT),
    ("&", TokenKind.AMP),
    ("|", TokenKind.PIPE),
    ("^", TokenKind.CARET),
    ("~", TokenKind.TILDE),
]
_OPERATOR_KINDS = dict(_OPERATORS)

# What may not follow a regex-scanned identifier: a longer identifier
# or a non-ASCII character (`str.isalnum` and `str.isdigit` accept
# some).  An integer may not be followed by those, nor by the suffix,
# fraction or exponent `_lex_number` would read.
_IDENT_END = r"(?![0-9A-Za-z_]|[^\x00-\x7f])"
_INT_END = r"(?![0-9A-Za-z_.]|[^\x00-\x7f])"


def _operator_pattern(text: str) -> str:
    if text == "/":
        return "/(?![/*])"  # `//` and `/*` open comments, never an operator
    if text == ".":
        return r"\.(?![0-9]|[^\x00-\x7f])"  # `.5` is a number
    return re.escape(text)


# Groups, in `lastindex` order: trivia, identifier, decimal integer,
# escape-free string, operator (longest match first, as in _OPERATORS).
_TOKEN_RE = re.compile(
    r"((?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/|#[^\n]*)+)"
    rf"|([A-Za-z_][A-Za-z0-9_]*{_IDENT_END})"
    rf"|((?:[1-9][0-9]*|0){_INT_END})"
    r'|("[^"\\\n]*")'
    "|(" + "|".join(_operator_pattern(text) for text, _ in _OPERATORS) + ")",
    re.DOTALL,
)
_TRIVIA, _IDENT, _INT, _STRING = 1, 2, 3, 4


class Lexer:
    """Streams :class:`Token` objects from a :class:`SourceFile`."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.text = source.text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _location(self) -> Location:
        return Location(self.source.name, self.line, self.col)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        if idx < len(self.text):
            return self.text[idx]
        return ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.text):
                return
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                loc = self._location()
                self._advance(2)
                while self.pos < len(self.text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", loc)
            elif ch == "#":
                # Preprocessor-style lines (#include, #define markers in
                # subject sources) are treated as comments.
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def tokens(self) -> list[Token]:
        text = self.text
        filename = self.source.name
        end = len(text)
        pos, line = self.pos, self.line
        line_start = pos - self.col + 1
        match = _TOKEN_RE.match
        result = []
        while pos < end:
            m = match(text, pos)
            if m is None:
                self.pos, self.line, self.col = pos, line, pos - line_start + 1
                token = self.next_token()
                result.append(token)
                if token.kind is TokenKind.EOF:
                    return result
                pos, line = self.pos, self.line
                line_start = pos - self.col + 1
                continue
            group = m.lastindex
            stop = m.end()
            if group == _TRIVIA:
                newlines = text.count("\n", pos, stop)
                if newlines:
                    line += newlines
                    line_start = text.rindex("\n", pos, stop) + 1
                pos = stop
                continue
            word = text[pos:stop]
            loc = Location(filename, line, pos - line_start + 1)
            if group == _IDENT:
                token = Token(KEYWORDS.get(word, TokenKind.IDENT), word, loc)
            elif group == _INT:
                token = Token(TokenKind.INT_LIT, word, loc, value=int(word))
            elif group == _STRING:
                token = Token(TokenKind.STRING_LIT, word, loc, value=word[1:-1])
            else:
                token = Token(_OPERATOR_KINDS[word], word, loc)
            result.append(token)
            pos = stop
        self.pos, self.line, self.col = pos, line, pos - line_start + 1
        result.append(Token(TokenKind.EOF, "", self._location()))
        return result

    def next_token(self) -> Token:
        self._skip_trivia()
        loc = self._location()
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", loc)

        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._lex_ident(loc)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number(loc)
        if ch == '"':
            return self._lex_string(loc)
        if ch == "'":
            return self._lex_char(loc)

        for text, kind in _OPERATORS:
            if self.text.startswith(text, self.pos):
                self._advance(len(text))
                return Token(kind, text, loc)
        raise LexError(f"unexpected character {ch!r}", loc)

    def _lex_ident(self, loc: Location) -> Token:
        start = self.pos
        while self.pos < len(self.text) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.text[start : self.pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        return Token(kind, text, loc)

    def _lex_number(self, loc: Location) -> Token:
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            text = self.text[start : self.pos]
            value = int(text, 16)
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == "." and self._peek(1).isdigit():
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() in "eE" and (
                self._peek(1).isdigit()
                or (self._peek(1) in "+-" and self._peek(2).isdigit())
            ):
                is_float = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
            text = self.text[start : self.pos]
            if is_float:
                value = float(text)
            elif text.startswith("0") and len(text) > 1:
                value = int(text, 8)
            else:
                value = int(text, 10)
        # Consume (and ignore) C integer-suffix letters.
        while self._peek() and self._peek() in "uUlLfF":
            if self._peek() in "fF" and not is_float:
                break
            self._advance()
        full = self.text[start : self.pos]
        kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
        return Token(kind, full, loc, value=value)

    def _lex_escape(self, loc: Location) -> str:
        self._advance()  # the backslash
        esc = self._peek()
        if esc == "x":
            self._advance()
            digits = ""
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                digits += self._peek()
                self._advance()
            if not digits:
                raise LexError("empty hex escape", loc)
            return chr(int(digits, 16))
        if esc in _SIMPLE_ESCAPES:
            self._advance()
            return _SIMPLE_ESCAPES[esc]
        raise LexError(f"unknown escape sequence \\{esc}", loc)

    def _lex_string(self, loc: Location) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexError("unterminated string literal", loc)
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                chars.append(self._lex_escape(loc))
            else:
                chars.append(ch)
                self._advance()
        value = "".join(chars)
        return Token(TokenKind.STRING_LIT, f'"{value}"', loc, value=value)

    def _lex_char(self, loc: Location) -> Token:
        self._advance()  # opening quote
        ch = self._peek()
        if ch == "\\":
            value = self._lex_escape(loc)
        elif ch and ch != "'":
            value = ch
            self._advance()
        else:
            raise LexError("empty character literal", loc)
        if self._peek() != "'":
            raise LexError("unterminated character literal", loc)
        self._advance()
        return Token(TokenKind.CHAR_LIT, f"'{value}'", loc, value=ord(value))


def tokenize(text: str) -> list[Token]:
    """Tokenize `text` (named ``<string>`` in locations), returning the
    token list ending with EOF."""
    return Lexer(SourceFile("<string>", text)).tokens()
