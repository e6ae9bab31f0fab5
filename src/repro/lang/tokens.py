"""Token definitions for the mini-Fortran loop language."""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Token", "TokenKind", "KEYWORDS"]


class TokenKind:
    """Token categories.  Plain strings keep match sites readable."""

    INT = "int"
    IDENT = "ident"
    KEYWORD = "keyword"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    ASSIGN = "="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQEQ = "=="
    NE = "!="
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    NEWLINE = "newline"
    EOF = "eof"


KEYWORDS = frozenset(
    {"for", "to", "step", "do", "end", "read", "if", "then", "else"}
)


class Token(NamedTuple):
    """One token, a named tuple: the lexer builds it with
    ``tuple.__new__(Token, (kind, text, line, column))``, no call to a
    Python ``__new__`` or ``__init__``."""

    kind: str
    text: str
    line: int
    column: int

    @property
    def int_value(self) -> int:
        if self.kind != TokenKind.INT:
            raise ValueError(f"not an integer token: {self}")
        return int(self.text)

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"
