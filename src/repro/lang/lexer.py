"""Lexer for the mini-Fortran loop language.

The language is line-oriented: newlines terminate statements (like
Fortran), ``#`` starts a comment to end of line.  Each line is scanned
by one compiled regex.
"""

from __future__ import annotations

import re

from repro.lang.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenKind

__all__ = ["tokenize"]

# One match per token, with the blanks before it, which give its column.
# A token is decimal digits (exactly the characters int() reads), a word
# (a word character that is not a decimal digit, then word characters;
# ``\w`` is ``str.isalnum`` plus ``_``), a two-character operator, or any
# other single character.  tokenize() rejects a word that starts with a
# numeral other than a decimal digit (``²``, ``½``), and a single
# character that is no operator or delimiter.
_TOKEN = re.compile(r"([ \t\r]*)(\d+|[^\W\d]\w*|<=|>=|==|!=|[^ \t\r])")

# An operator's or delimiter's kind is its text; a keyword's is KEYWORD.
_FIXED_KINDS = {text: text for text in ("<=", ">=", "==", "!=", *"+-*=<>()[],")}
_FIXED_KINDS.update((word, TokenKind.KEYWORD) for word in KEYWORDS)

_INT = TokenKind.INT
_IDENT = TokenKind.IDENT
_NEWLINE = TokenKind.NEWLINE


def tokenize(source: str) -> list[Token]:
    """Turn source text into a token list ending with EOF.

    Consecutive newlines collapse into one NEWLINE token; a trailing
    NEWLINE is guaranteed before EOF so the parser can treat lines
    uniformly.  A column counts every character before it on its line,
    a tab or carriage return as one, except a comment's: the NEWLINE
    after a comment, and EOF after a final one, sit at the ``#``.
    """
    tokens: list[Token] = []
    append = tokens.append
    make = tuple.__new__
    findall = _TOKEN.findall
    fixed_kind = _FIXED_KINDS.get
    # split() yields at least one line, so the loop sets number and end.
    for number, line in enumerate(source.split("\n"), 1):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut]
        column = 1
        for blanks, text in findall(line):
            column += len(blanks)
            kind = fixed_kind(text)
            if kind is None:
                first = text[0]
                if first.isdecimal():
                    kind = _INT
                elif first.isalpha() or first == "_":
                    kind = _IDENT
                else:
                    raise LexError(f"unexpected character {first!r}", number, column)
            append(make(Token, (kind, text, number, column)))
            column += len(text)
        end = len(line) + 1
        if tokens and tokens[-1].kind != _NEWLINE:
            append(make(Token, (_NEWLINE, "\\n", number, end)))
    tokens.append(Token(TokenKind.EOF, "", number, end))
    return tokens
