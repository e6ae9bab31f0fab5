"""Recursive-descent parser for the mini-Fortran loop language.

Grammar (newline-terminated statements)::

    program   := stmt*
    stmt      := read | loop | assign
    read      := "read" "(" IDENT ")"
    loop      := "for" IDENT "=" expr "to" expr ["step" INT] "do"
                    stmt* "end" ["for"]
    assign    := lvalue "=" expr
    lvalue    := IDENT ("[" expr "]")*
    expr      := term (("+" | "-") term)*
    term      := unary ("*" unary)*
    unary     := ["-"] atom
    atom      := INT | IDENT ("[" expr "]")* | "(" expr ")"
"""

from __future__ import annotations

from repro.lang.ast_nodes import (
    Access,
    Assign,
    BinOp,
    Expr,
    ForLoop,
    IfStmt,
    Name,
    Num,
    Read,
    SourceProgram,
    Stmt,
)
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

__all__ = ["parse", "Parser"]

_INT = TokenKind.INT
_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_NEWLINE = TokenKind.NEWLINE
_EOF = TokenKind.EOF
_COMPARISONS = frozenset({"<", "<=", ">", ">=", "==", "!="})


def parse(source: str, name: str = "<source>") -> SourceProgram:
    """Parse source text into a :class:`SourceProgram`."""
    program = Parser(tokenize(source)).parse_program()
    program.name = name
    program.source_lines = source.count("\n") + 1
    return program


class Parser:
    """Recursive descent over the token list, read by index.

    ``self._tokens[self._pos]`` is the next token, and each rule
    compares its kind inline; an operator's or delimiter's kind is its
    text.  A rule moves past a token only once it has matched a kind
    other than EOF, so the index never leaves the list.
    """

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def _expect(self, kind: str, text: str | None = None) -> Token:
        """Read the next token, which must be ``kind`` (never EOF) and,
        if given, ``text``."""
        token = self._tokens[self._pos]
        if token.kind != kind or (text is not None and token.text != text):
            raise ParseError(
                f"expected {text or kind!r}, found {token.text!r}",
                token.line,
                token.column,
            )
        self._pos += 1
        return token

    # -- grammar ----------------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        return SourceProgram(body=self._block(()))

    def _block(self, stops: tuple[str, ...]) -> list[Stmt]:
        """Statements up to one of the keywords ``stops``, left unread;
        with no stops (the program), up to EOF."""
        out: list[Stmt] = []
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            kind = token.kind
            if kind == _NEWLINE:
                self._pos += 1
            elif kind == _EOF:
                if stops:
                    raise ParseError(
                        f"missing {' or '.join(repr(s) for s in stops)}",
                        token.line,
                        token.column,
                    )
                return out
            elif kind == _KEYWORD and token.text in stops:
                return out
            else:
                out.append(self._statement(token))

    def _statement(self, token: Token) -> Stmt:
        """The statement ``token``, the next token, starts."""
        kind = token.kind
        if kind == _IDENT:
            return self._assign(token)
        if kind == _KEYWORD:
            if token.text == "for":
                return self._for_loop(token)
            if token.text == "if":
                return self._if_stmt(token)
            if token.text == "read":
                return self._read(token)
        raise ParseError(
            f"expected a statement, found {token.text!r}",
            token.line,
            token.column,
        )

    def _if_stmt(self, keyword: Token) -> IfStmt:
        self._pos += 1
        left = self._expression()
        op_token = self._tokens[self._pos]
        if op_token.kind not in _COMPARISONS:
            raise ParseError(
                f"expected a comparison operator, found {op_token.text!r}",
                op_token.line,
                op_token.column,
            )
        self._pos += 1
        right = self._expression()
        self._expect(_KEYWORD, "then")
        self._end_of_statement()
        then_body = self._block(("end", "else"))
        else_body: list[Stmt] = []
        token = self._tokens[self._pos]
        if token.kind == _KEYWORD and token.text == "else":
            self._pos += 1
            self._end_of_statement()
            else_body = self._block(("end",))
        self._end("if")
        return IfStmt(
            op=op_token.text,
            left=left,
            right=right,
            then_body=then_body,
            else_body=else_body,
            line=keyword.line,
        )

    def _read(self, keyword: Token) -> Read:
        self._pos += 1
        self._expect("(")
        ident = self._expect(_IDENT)
        self._expect(")")
        self._end_of_statement()
        return Read(ident.text, line=keyword.line)

    def _for_loop(self, keyword: Token) -> ForLoop:
        self._pos += 1
        var = self._expect(_IDENT)
        self._expect("=")
        lower = self._expression()
        self._expect(_KEYWORD, "to")
        upper = self._expression()
        step = 1
        token = self._tokens[self._pos]
        if token.kind == _KEYWORD and token.text == "step":
            self._pos += 1
            negative = self._tokens[self._pos].kind == "-"
            if negative:
                self._pos += 1
            step_token = self._expect(_INT)
            step = -step_token.int_value if negative else step_token.int_value
            if step == 0:
                raise ParseError(
                    "loop step must be non-zero", step_token.line, step_token.column
                )
        self._expect(_KEYWORD, "do")
        self._end_of_statement()
        body = self._block(("end",))
        self._end("for")
        return ForLoop(var.text, lower, upper, step, body, line=keyword.line)

    def _end(self, closer: str) -> None:
        """``end``, an optional ``closer`` keyword, then the statement end."""
        self._expect(_KEYWORD, "end")
        token = self._tokens[self._pos]
        if token.kind == _KEYWORD and token.text == closer:
            self._pos += 1
        self._end_of_statement()

    def _assign(self, ident: Token) -> Assign:
        self._pos += 1
        if self._tokens[self._pos].kind == "[":
            target = self._access(ident.text)
        else:
            target = Name(ident.text)
        equals = self._expect("=")
        expr = self._expression()
        self._end_of_statement()
        return Assign(target, expr, line=equals.line)

    def _access(self, array: str) -> Access:
        """The subscripts after the name ``array``, already read; the
        next token is ``[``."""
        tokens = self._tokens
        subs: list[Expr] = []
        while tokens[self._pos].kind == "[":
            self._pos += 1
            subs.append(self._expression())
            self._expect("]")
        return Access(array, tuple(subs))

    def _end_of_statement(self) -> None:
        """A NEWLINE ends a statement; EOF or an ``end`` ends it unread."""
        token = self._tokens[self._pos]
        kind = token.kind
        if kind == _NEWLINE:
            self._pos += 1
        elif kind != _EOF and not (kind == _KEYWORD and token.text == "end"):
            raise ParseError(
                f"expected {_NEWLINE!r}, found {token.text!r}",
                token.line,
                token.column,
            )

    # -- expressions --------------------------------------------------------------

    def _expression(self) -> Expr:
        """``term (("+" | "-") term)*``, each term ``unary ("*" unary)*``."""
        tokens = self._tokens
        unary = self._unary
        expr = op = None
        while True:
            term = unary()
            while tokens[self._pos].kind == "*":
                self._pos += 1
                term = BinOp("*", term, unary())
            expr = term if op is None else BinOp(op, expr, term)
            op = tokens[self._pos].kind
            if op != "+" and op != "-":
                return expr
            self._pos += 1

    def _unary(self) -> Expr:
        """``["-"] atom``, the atom read inline."""
        tokens = self._tokens
        token = tokens[self._pos]
        kind = token.kind
        if kind == _IDENT:
            self._pos += 1
            if tokens[self._pos].kind == "[":
                return self._access(token.text)
            return Name(token.text)
        if kind == _INT:
            self._pos += 1
            return Num(int(token.text))
        if kind == "-":
            self._pos += 1
            return BinOp("-", Num(0), self._unary())
        if kind == "(":
            self._pos += 1
            expr = self._expression()
            self._expect(")")
            return expr
        raise ParseError(
            f"expected an expression, found {token.text!r}",
            token.line,
            token.column,
        )
