"""C-subset frontend: lower C loop nests to the mini-Fortran AST.

A hand-written lexer and recursive-descent parser (mirroring the
:mod:`repro.lang` architecture) for the loop-nest subset of C::

    for (i = lo; i < hi; i++) { A[i][j] = B[i][j] + 1; }

Recognized surface:

* function definitions (each is an extraction context; nests inside
  are named after the function), preprocessor lines and comments are
  skipped at the lexer level;
* ``for`` headers ``(var = lo; var REL hi; STEP)`` where ``REL`` is one
  of ``< <= > >=`` (matching the step direction) and ``STEP`` is
  ``var++ / ++var / var-- / --var / var += k / var -= k /
  var = var + k`` with a literal integer ``k``;
* element stores/loads ``A[i][j]``, compound assignment
  (``A[i] += ...``, read-modify-write), ``++``/``--`` statements,
  scalar declarations with initializers (exact when affine, otherwise
  poisoned so dependent subscripts are refused);
* ``if``/``else`` conservatively (both branches potentially execute).

Pointers are excluded by contract: declarators with ``*``, unary
``* &``, ``->`` and ``.`` member access all produce a ``pointer`` skip
record, and a name declared as a pointer poisons every later subscript
that uses it as an array base.  A right-hand side outside the affine
operator set (``/ % << ...``, calls) degrades to the sum of its array
reads, exactly like the Python frontend.

Statement-level failures never abort the file: the parser records a
:class:`~repro.frontends.base.SkipRecord` and re-synchronizes at the
next ``;`` or block boundary, so one rejected construct cannot hide
the analyzable nests around it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.frontends.base import (
    OPAQUE_ARRAY,
    SkipReason,
    SkipRecord,
    SourceSpan,
    Untranslatable,
)
from repro.lang.ast_nodes import (
    Access,
    Assign,
    BinOp,
    Expr,
    ForLoop,
    IfStmt,
    Name,
    Num,
    SourceProgram,
    Stmt,
)

__all__ = ["translate_c"]


def translate_c(
    text: str, name: str = "<source>"
) -> tuple[SourceProgram, list[SkipRecord], list[tuple[str, SourceSpan]]]:
    """Translate C source into the mini-Fortran AST.

    Returns the translated program, the skip records, and one
    ``(context, span)`` record per outermost loop nest, in source
    order.  Unparseable regions produce ``parse-error`` skip records;
    only a file that ends inside a function body raises
    :class:`Untranslatable` (``parse-error``), which
    :func:`~repro.frontends.extract.extract_source` reports as a
    file-level parse failure.
    """
    translator = _CTranslator(_tokenize(text))
    body = translator.translation_unit()
    program = SourceProgram(
        body=body, name=name, source_lines=text.count("\n") + 1
    )
    return program, translator.skipped, translator.nest_spans


# -- lexer -------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "int" | "float" | "punct" | "literal" | "eof"
    text: str
    line: int


_PUNCT = (
    "<<=", ">>=", "->", "++", "--", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "(", ")", "[", "]", "{", "}", ";", ",", "=", "+", "-", "*", "/",
    "%", "<", ">", "!", "~", "&", "|", "^", "?", ":", ".",
)


# A preprocessing number (C11 6.4.8): a digit, or a dot and a digit,
# then word characters, dots and signed exponents.  It is one token
# even where it is no valid constant (``0x1e+2``, ``1for``).
_PP_NUMBER = re.compile(r"\.?\d(?:[eEpP][+-]|[\w.])*")
# A floating constant without a dot: an exponent, decimal or hex.
_FLOAT_LITERAL = re.compile(
    r"(?:\d+[eE]|0[xX][0-9a-fA-F]+[pP])[+-]?\d+[fFlL]?"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line = 0, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            i = text.find("\n", i)
            i = n if i < 0 else i
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            line += text.count("\n", i, end)
            i = end
            continue
        if ch == "#":
            # Preprocessor line, honoring backslash continuations.
            while i < n:
                end = text.find("\n", i)
                if end < 0:
                    i = n
                    break
                cont = text[i:end].rstrip().endswith("\\")
                line += 1
                i = end + 1
                if not cont:
                    break
            continue
        if ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            tokens.append(_Token("literal", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
            continue
        number = _PP_NUMBER.match(text, i)
        if number:
            word = number.group()
            float_ = "." in word or _FLOAT_LITERAL.fullmatch(word)
            tokens.append(_Token("float" if float_ else "int", word, line))
            i = number.end()
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line))
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(_Token("punct", punct, line))
                i += len(punct)
                break
        else:
            tokens.append(_Token("punct", ch, line))
            i += 1
    tokens.append(_Token("eof", "", line))
    return tokens


# A C integer constant: hex, binary, octal (a leading 0) or decimal
# digits, then an optional unsigned and long/long-long suffix.
_INT_LITERAL = re.compile(
    r"(0[xX][0-9a-fA-F]+|0[bB][01]+|0[0-7]*|[1-9][0-9]*)"
    r"(?:[uU](?:ll|LL|[lL])?|(?:ll|LL|[lL])[uU]?)?"
)


def _int_value(token: _Token) -> int:
    """An integer literal's value; a malformed one is ``parse-error``."""
    match = _INT_LITERAL.fullmatch(token.text)
    if match is None:
        raise Untranslatable(
            SkipReason.PARSE_ERROR,
            f"malformed integer literal {token.text!r}",
            token.line,
        )
    digits = match.group(1)
    if digits[0] == "0" and digits[1:2].isdigit():
        return int(digits, 8)
    return int(digits, 0)


# -- tiny C expression AST ----------------------------------------------------


class _CExpr:
    __slots__ = ()


@dataclass(frozen=True)
class _CNum(_CExpr):
    value: int
    line: int


@dataclass(frozen=True)
class _CFloat(_CExpr):
    text: str
    line: int


@dataclass(frozen=True)
class _CName(_CExpr):
    ident: str
    line: int


@dataclass(frozen=True)
class _CIndex(_CExpr):
    base: _CExpr
    index: _CExpr
    line: int


@dataclass(frozen=True)
class _CCall(_CExpr):
    name: str
    args: tuple[_CExpr, ...]
    line: int


@dataclass(frozen=True)
class _CUnary(_CExpr):
    op: str
    operand: _CExpr
    line: int


@dataclass(frozen=True)
class _CBin(_CExpr):
    op: str
    left: _CExpr
    right: _CExpr
    line: int


def _c_children(node: _CExpr) -> tuple[_CExpr, ...]:
    if isinstance(node, _CIndex):
        return (node.base, node.index)
    if isinstance(node, _CCall):
        return node.args
    if isinstance(node, _CUnary):
        return (node.operand,)
    if isinstance(node, _CBin):
        return (node.left, node.right)
    return ()


_TYPE_WORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "float", "double",
        "signed", "unsigned", "const", "volatile", "static", "register",
        "restrict", "inline", "extern", "auto", "struct", "union", "enum",
        "size_t", "ssize_t", "ptrdiff_t", "bool", "_Bool",
        "int8_t", "int16_t", "int32_t", "int64_t",
        "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    }
)

_CONTROL_WORDS = frozenset(
    {"for", "if", "else", "while", "do", "switch", "case", "default",
     "goto", "break", "continue", "return", "sizeof", "typedef"}
)

# Multiplicative/additive binary level table, loosest first; only the
# affine subset (+ - *) survives translation, the rest exists so reads
# inside e.g. `x / 2` are still collected.
_BINARY_LEVELS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)


class _CTranslator:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.skipped: list[SkipRecord] = []
        self.nest_spans: list[tuple[str, SourceSpan]] = []
        self.pointer_names: set[str] = set()
        self.rebound_names: set[str] = set()
        self.last_line = 1

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.cur
        if token.kind != "eof":
            self.pos += 1
            self.last_line = token.line
        return token

    def check(self, kind: str, text: str | None = None) -> bool:
        token = self.cur
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> _Token:
        if not self.check(kind, text):
            token = self.cur
            raise Untranslatable(
                SkipReason.PARSE_ERROR,
                f"expected {text or kind!r}, found {token.text or 'EOF'!r}",
                token.line,
            )
        return self.advance()

    def skip(self, reason: str, line: int, detail: str) -> None:
        self.skipped.append(SkipRecord(reason, line, detail))

    def _skip_balanced(self, open_text: str, close_text: str) -> None:
        """Consume from an already-consumed opener to its match."""
        depth = 1
        while depth and not self.check("eof"):
            token = self.advance()
            if token.kind == "punct":
                if token.text == open_text:
                    depth += 1
                elif token.text == close_text:
                    depth -= 1

    def _skip_statement(self) -> None:
        """Re-synchronize after a failed statement."""
        if self.accept("punct", "{"):
            self._skip_balanced("{", "}")
            return
        while not self.check("eof"):
            if self.check("punct", "}"):
                return
            token = self.advance()
            if token.kind == "punct":
                if token.text == ";":
                    return
                if token.text == "(":
                    self._skip_balanced("(", ")")
                elif token.text == "[":
                    self._skip_balanced("[", "]")
                elif token.text == "{":
                    self._skip_balanced("{", "}")

    # -- top level ---------------------------------------------------------

    def translation_unit(self) -> list[Stmt]:
        out: list[Stmt] = []
        while not self.check("eof"):
            function = self._try_function_header()
            if function is not None:
                out.extend(self.statement(function, depth=0))
                continue
            if self.check("ident") or self.check("punct", "{"):
                out.extend(self.guarded_statement("<file>", depth=0))
            else:
                self.advance()
        return out

    def _try_function_header(self) -> str | None:
        """Consume ``type name(params)`` if a body follows; else rewind."""
        start = self.pos
        name: str | None = None
        while self.check("ident") or self.check("punct", "*"):
            token = self.advance()
            if token.kind == "ident":
                if token.text in _CONTROL_WORDS:
                    self.pos = start
                    return None
                name = token.text
        if name is None or not self.check("punct", "("):
            self.pos = start
            return None
        self.advance()
        self._skip_balanced("(", ")")
        if self.check("punct", "{"):
            return name
        self.pos = start
        return None

    # -- statements --------------------------------------------------------

    def guarded_statement(self, context: str, depth: int) -> list[Stmt]:
        before = self.pos
        try:
            return self.statement(context, depth)
        except Untranslatable as err:
            self.skip(err.reason, err.line or self.cur.line, err.detail)
            if self.pos == before:
                self.advance()  # guarantee progress
            self._skip_statement()
            return []

    def statement(self, context: str, depth: int) -> list[Stmt]:
        if self.accept("punct", ";"):
            return []
        if self.accept("punct", "{"):
            out: list[Stmt] = []
            while not self.check("punct", "}") and not self.check("eof"):
                out.extend(self.guarded_statement(context, depth))
            self.expect("punct", "}")
            return out
        token = self.cur
        if token.kind == "ident":
            if token.text == "for":
                return self.for_statement(context, depth)
            if token.text == "if":
                return self.if_statement(context, depth)
            if token.text in ("while", "do", "switch", "goto", "typedef"):
                self.skip(
                    SkipReason.UNSUPPORTED_STATEMENT,
                    token.line,
                    f"{token.text} statement outside the analyzable subset",
                )
                self.advance()
                self._skip_statement()
                return []
            if token.text in ("break", "continue"):
                self.skip(
                    SkipReason.CONTROL_FLOW,
                    token.line,
                    f"{token.text} ignored (iteration space over-approximated)",
                )
                self.advance()
                self.accept("punct", ";")
                return []
            if token.text == "return":
                self.advance()
                self._skip_statement()
                return []  # no array writes; nothing to model
            if self._at_declaration():
                return self.declaration()
        return self.expression_statement()

    def _at_declaration(self) -> bool:
        token = self.cur
        if token.kind != "ident":
            return False
        if token.text in _TYPE_WORDS:
            return True
        # `size_t n = ...` style typedef names: ident followed by
        # another ident (or `* ident`) can only be a declaration.
        after = self.tokens[self.pos + 1]
        if after.kind == "ident" and after.text not in _CONTROL_WORDS:
            return True
        if after.kind == "punct" and after.text == "*":
            third = self.tokens[self.pos + 2]
            return third.kind == "ident"
        return False

    def declaration(self) -> list[Stmt]:
        out: list[Stmt] = []
        while self.check("ident") and (
            self.cur.text in _TYPE_WORDS
            or self.tokens[self.pos + 1].kind == "ident"
            or self.tokens[self.pos + 1].text == "*"
        ):
            if self.tokens[self.pos + 1].kind == "punct" and self.tokens[
                self.pos + 1
            ].text not in ("*",):
                break
            self.advance()
        while True:
            pointer = False
            while self.accept("punct", "*"):
                pointer = True
            name_token = self.expect("ident")
            is_array = False
            while self.accept("punct", "["):
                self._skip_balanced("[", "]")
                is_array = True
            if pointer:
                self.pointer_names.add(name_token.text)
                self.skip(
                    SkipReason.POINTER,
                    name_token.line,
                    f"pointer declarator {name_token.text!r} "
                    "(aliasing not modeled)",
                )
                out.append(
                    Assign(
                        Name(name_token.text),
                        Access(OPAQUE_ARRAY, (Num(name_token.line),)),
                        line=name_token.line,
                    )
                )
                if self.accept("punct", "="):
                    self._skip_initializer()
            elif self.accept("punct", "="):
                if self.check("punct", "{") or is_array:
                    self._skip_initializer()
                else:
                    value = self.c_expression()
                    out.extend(
                        self.scalar_store(
                            name_token.text, value, name_token.line
                        )
                    )
            if self.accept("punct", ","):
                continue
            self.expect("punct", ";")
            return out

    def _skip_initializer(self) -> None:
        if self.accept("punct", "{"):
            self._skip_balanced("{", "}")
            return
        depth = 0
        while not self.check("eof"):
            token = self.cur
            if token.kind == "punct":
                if token.text in ("(", "[", "{"):
                    depth += 1
                elif token.text in (")", "]", "}"):
                    if depth == 0:
                        return
                    depth -= 1
                elif depth == 0 and token.text in (",", ";"):
                    return
            self.advance()

    def if_statement(self, context: str, depth: int) -> list[Stmt]:
        keyword = self.expect("ident", "if")
        self.expect("punct", "(")
        self._skip_balanced("(", ")")  # condition ignored, like lowering
        then_body = self.guarded_statement(context, depth)
        else_body: list[Stmt] = []
        if self.accept("ident", "else"):
            else_body = self.guarded_statement(context, depth)
        if not then_body and not else_body:
            return []
        return [
            IfStmt(
                op="<",
                left=Num(0),
                right=Num(1),
                then_body=then_body,
                else_body=else_body,
                line=keyword.line,
            )
        ]

    # -- for loops ---------------------------------------------------------

    def for_statement(self, context: str, depth: int) -> list[Stmt]:
        keyword = self.expect("ident", "for")
        line = keyword.line
        paren_pos = self.pos
        self.expect("punct", "(")
        try:
            var, lower = self._for_init()
            upper, relop_dir = self._for_condition(var)
            step = self._for_step(var)
            self.expect("punct", ")")
        except Untranslatable as err:
            self.skip(err.reason, err.line or line, err.detail)
            self.pos = paren_pos
            self.advance()
            self._skip_balanced("(", ")")
            self._skip_statement()  # nest body dropped with the header
            return []
        if (step > 0) != (relop_dir > 0):
            self.skip(
                SkipReason.MALFORMED_LOOP,
                line,
                f"loop test direction disagrees with step {step}",
            )
            self._skip_statement()
            return []
        body = self.guarded_statement(context, depth + 1)
        loop = ForLoop(var, lower, upper, step, body, line=line)
        if depth == 0:
            self.nest_spans.append((context, SourceSpan(line, self.last_line)))
        return [loop]

    def _for_init(self) -> tuple[str, Expr]:
        while self.check("ident") and self.cur.text in _TYPE_WORDS:
            self.advance()
        var_token = self.expect("ident")
        self.expect("punct", "=")
        lower = self.translate(self.c_expression())
        if self.check("punct", ","):
            raise Untranslatable(
                SkipReason.MALFORMED_LOOP,
                "multiple initializers in for header",
                var_token.line,
            )
        self.expect("punct", ";")
        return var_token.text, lower

    def _for_condition(self, var: str) -> tuple[Expr, int]:
        """``(inclusive upper bound, direction)`` from ``var REL expr``."""
        test_token = self.expect("ident")
        if test_token.text != var:
            raise Untranslatable(
                SkipReason.MALFORMED_LOOP,
                f"loop test does not compare the loop variable {var!r}",
                test_token.line,
            )
        relop = self.cur
        if relop.text not in ("<", "<=", ">", ">="):
            raise Untranslatable(
                SkipReason.MALFORMED_LOOP,
                f"loop test operator {relop.text!r} outside < <= > >=",
                relop.line,
            )
        self.advance()
        bound = self.translate(self.c_expression())
        self.expect("punct", ";")
        # C limits are exclusive for strict tests; mini-Fortran bounds
        # are inclusive (DO semantics), in both directions.
        if relop.text == "<":
            return BinOp("-", bound, Num(1)), 1
        if relop.text == "<=":
            return bound, 1
        if relop.text == ">":
            return BinOp("+", bound, Num(1)), -1
        return bound, -1

    def _for_step(self, var: str) -> int:
        line = self.cur.line
        if self.accept("punct", "++"):
            self.expect("ident", var)
            return 1
        if self.accept("punct", "--"):
            self.expect("ident", var)
            return -1
        self.expect("ident", var)
        if self.accept("punct", "++"):
            return 1
        if self.accept("punct", "--"):
            return -1
        if self.check("punct", "+=") or self.check("punct", "-="):
            sign = 1 if self.advance().text == "+=" else -1
            return sign * self._literal_step(line)
        if self.accept("punct", "="):
            self.expect("ident", var)
            if self.check("punct", "+") or self.check("punct", "-"):
                sign = 1 if self.advance().text == "+" else -1
                return sign * self._literal_step(line)
        raise Untranslatable(
            SkipReason.MALFORMED_LOOP,
            f"loop step does not increment {var!r} by a constant",
            line,
        )

    def _literal_step(self, line: int) -> int:
        token = self.cur
        if token.kind != "int":
            raise Untranslatable(
                SkipReason.NON_LITERAL_STEP,
                "loop step is not an integer literal",
                line,
            )
        self.advance()
        value = _int_value(token)
        if value == 0:
            raise Untranslatable(SkipReason.ZERO_STEP, "loop step is zero", line)
        return value

    # -- assignments -------------------------------------------------------

    def expression_statement(self) -> list[Stmt]:
        line = self.cur.line
        if self.check("punct", "++") or self.check("punct", "--"):
            op = "+" if self.advance().text == "++" else "-"
            target = self.c_postfix()
            self.expect("punct", ";")
            return self._guarded_store(target, "=", self._rmw(target, op, line), line)
        lhs = self.c_expression()
        token = self.cur
        if token.kind == "punct" and token.text in (
            "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
        ):
            self.advance()
            rhs = self.c_expression()
            self.expect("punct", ";")
            return self._guarded_store(lhs, token.text, rhs, line)
        if token.kind == "punct" and token.text in ("++", "--"):
            self.advance()
            op = "+" if token.text == "++" else "-"
            self.expect("punct", ";")
            return self._guarded_store(lhs, "=", self._rmw(lhs, op, line), line)
        self.expect("punct", ";")
        if any(isinstance(n, _CCall) for n in _c_walk(lhs)):
            self.skip(
                SkipReason.CALL_EXPRESSION,
                line,
                "call statement cannot write an analyzable reference",
            )
        return []  # pure expression statement: no writes, nothing to model

    @staticmethod
    def _rmw(target: _CExpr, op: str, line: int) -> _CExpr:
        """``x++`` / ``A[i]--`` as an explicit read-modify-write."""
        return _CBin(op, target, _CNum(1, line), line)

    def _guarded_store(
        self, lhs: _CExpr, op: str, rhs: _CExpr, line: int
    ) -> list[Stmt]:
        """Skip-not-raise once the terminating ``;`` has been consumed
        (a raise here would make recovery eat the *next* statement)."""
        try:
            return self.store(lhs, op, rhs, line)
        except Untranslatable as err:
            self.skip(err.reason, err.line or line, err.detail)
            return []

    def store(
        self, lhs: _CExpr, op: str, rhs: _CExpr, line: int
    ) -> list[Stmt]:
        if op != "=":
            base = {"+=": "+", "-=": "-", "*=": "*"}.get(op, "/")
            # Compound ops outside + - * are not affine, but the RMW
            # read of the target must still be collected — hand the
            # fallback a tree it will fail to translate exactly.
            rhs = _CBin(base, lhs, rhs, line)
        if isinstance(lhs, _CName):
            return self.scalar_store(lhs.ident, rhs, line)
        if not isinstance(lhs, _CIndex):
            raise Untranslatable(
                SkipReason.UNSUPPORTED_STATEMENT,
                "assignment target is neither a name nor a subscript",
                line,
            )
        access = self.c_access(lhs)
        expr = self.rhs(rhs, line)
        if expr is None:
            return []
        return [Assign(access, expr, line=line)]

    def scalar_store(self, name: str, value: _CExpr, line: int) -> list[Stmt]:
        """Exact affine scalar definition, or poison the name."""
        self.rebound_names.add(name)
        try:
            rhs: Expr = self.translate(value)
        except Untranslatable:
            rhs = Access(OPAQUE_ARRAY, (Num(line),))
        return [Assign(Name(name), rhs, line=line)]

    def rhs(self, value: _CExpr, line: int) -> Expr | None:
        """A store's right-hand side: exact, or the sum of its reads."""
        try:
            return self.translate(value)
        except Untranslatable:
            pass
        total: Expr = Num(0)
        for node in _c_walk(value, into_index=False):
            if isinstance(node, _CIndex):
                total = BinOp("+", total, self.c_access(node))
        return total

    # -- C expression grammar ----------------------------------------------

    def c_expression(self) -> _CExpr:
        return self._c_ternary()

    def _c_ternary(self) -> _CExpr:
        cond = self._c_binary(0)
        if self.check("punct", "?"):
            line = self.advance().line
            then = self.c_expression()
            self.expect("punct", ":")
            other = self._c_ternary()
            return _CBin("?:", cond, _CBin("?:", then, other, line), line)
        return cond

    def _c_binary(self, level: int) -> _CExpr:
        if level >= len(_BINARY_LEVELS):
            return self._c_unary()
        expr = self._c_binary(level + 1)
        ops = _BINARY_LEVELS[level]
        while self.cur.kind == "punct" and self.cur.text in ops:
            token = self.advance()
            right = self._c_binary(level + 1)
            expr = _CBin(token.text, expr, right, token.line)
        return expr

    def _c_unary(self) -> _CExpr:
        token = self.cur
        if token.kind == "punct" and token.text in (
            "-", "+", "!", "~", "*", "&", "++", "--",
        ):
            self.advance()
            return _CUnary(token.text, self._c_unary(), token.line)
        if token.kind == "ident" and token.text == "sizeof":
            self.advance()
            if self.accept("punct", "("):
                self._skip_balanced("(", ")")
            else:
                self._c_unary()
            return _CCall("sizeof", (), token.line)
        return self.c_postfix()

    def c_postfix(self) -> _CExpr:
        expr = self._c_primary()
        while True:
            token = self.cur
            if self.accept("punct", "["):
                index = self.c_expression()
                self.expect("punct", "]")
                expr = _CIndex(expr, index, token.line)
            elif self.check("punct", "(") and isinstance(expr, _CName):
                self.advance()
                args: list[_CExpr] = []
                if not self.check("punct", ")"):
                    args.append(self.c_expression())
                    while self.accept("punct", ","):
                        args.append(self.c_expression())
                self.expect("punct", ")")
                expr = _CCall(expr.ident, tuple(args), token.line)
            elif self.check("punct", ".") or self.check("punct", "->"):
                self.advance()
                member = self.expect("ident")
                expr = _CUnary(token.text, expr, member.line)
            elif self.check("punct", "++") or self.check("punct", "--"):
                break  # statement level decides what a postfix crement means
            else:
                break
        return expr

    def _c_primary(self) -> _CExpr:
        token = self.cur
        if token.kind == "int":
            self.advance()
            return _CNum(_int_value(token), token.line)
        if token.kind == "float":
            self.advance()
            return _CFloat(token.text, token.line)
        if token.kind == "literal":
            self.advance()
            return _CFloat(token.text, token.line)
        if token.kind == "ident":
            self.advance()
            return _CName(token.text, token.line)
        if self.accept("punct", "("):
            if self.check("ident") and self.cur.text in _TYPE_WORDS:
                self._skip_balanced("(", ")")  # cast: value semantics kept
                return self._c_unary()
            expr = self.c_expression()
            self.expect("punct", ")")
            return expr
        raise Untranslatable(
            SkipReason.PARSE_ERROR,
            f"expected an expression, found {token.text or 'EOF'!r}",
            token.line,
        )

    # -- C AST -> mini-Fortran AST -----------------------------------------

    def translate(self, node: _CExpr) -> Expr:
        if isinstance(node, _CNum):
            return Num(node.value)
        if isinstance(node, _CFloat):
            raise Untranslatable(
                SkipReason.FLOAT_INDEX,
                f"non-integer literal {node.text!r}",
                node.line,
            )
        if isinstance(node, _CName):
            return Name(node.ident)
        if isinstance(node, _CIndex):
            return self.c_access(node)
        if isinstance(node, _CCall):
            raise Untranslatable(
                SkipReason.CALL_EXPRESSION,
                f"call to {node.name!r} in a lowered position",
                node.line,
            )
        if isinstance(node, _CUnary):
            if node.op == "-":
                return BinOp("-", Num(0), self.translate(node.operand))
            if node.op == "+":
                return self.translate(node.operand)
            if node.op in ("*", "&", ".", "->"):
                raise Untranslatable(
                    SkipReason.POINTER,
                    f"pointer/member operator {node.op!r}",
                    node.line,
                )
            raise Untranslatable(
                SkipReason.UNSUPPORTED_EXPRESSION,
                f"unary operator {node.op!r}",
                node.line,
            )
        if isinstance(node, _CBin):
            if node.op in ("+", "-", "*"):
                return BinOp(
                    node.op,
                    self.translate(node.left),
                    self.translate(node.right),
                )
            raise Untranslatable(
                SkipReason.UNSUPPORTED_EXPRESSION,
                f"operator {node.op!r} is not affine",
                node.line,
            )
        raise Untranslatable(
            SkipReason.UNSUPPORTED_EXPRESSION,
            f"{type(node).__name__} expression",
            getattr(node, "line", 0),
        )

    def c_access(self, node: _CIndex) -> Access:
        """A subscript chain ``A[i][j]`` as one multi-dim access."""
        subs: list[Expr] = []
        current: _CExpr = node
        while isinstance(current, _CIndex):
            subs.insert(0, self.translate(current.index))
            current = current.base
        if not isinstance(current, _CName):
            raise Untranslatable(
                SkipReason.POINTER,
                "subscripted base is not a plain array name",
                node.line,
            )
        if current.ident in self.pointer_names:
            raise Untranslatable(
                SkipReason.POINTER,
                f"subscript through pointer {current.ident!r}",
                node.line,
            )
        if current.ident in self.rebound_names:
            raise Untranslatable(
                SkipReason.ALIAS,
                f"subscript through reassigned name {current.ident!r} "
                "(may alias another array)",
                node.line,
            )
        return Access(current.ident, tuple(subs))


def _c_walk(node: _CExpr, into_index: bool = True):
    """Pre-order walk; with ``into_index=False`` a subscript chain is
    yielded whole (its base and indices are part of the chained access
    and must not be double counted by the read collector)."""
    yield node
    if not into_index and isinstance(node, _CIndex):
        return
    for child in _c_children(node):
        yield from _c_walk(child, into_index)
