"""Python frontend: lower real Python loop nests to the mini-Fortran AST.

Walks a module with the stdlib :mod:`ast` parser and translates
``for``-loop nests over ``range(...)`` with subscripted reads/writes
into :class:`~repro.lang.ast_nodes.SourceProgram` — the exact shape the
mini-Fortran parser produces — so the existing prepass optimizer and
affine lowering run unchanged and the frontend inherits their
semantics bit-for-bit.

Supported surface, per the frontend contract (see
:mod:`repro.frontends.base`):

* ``for i in range(n)`` / ``range(lo, hi)`` / ``range(lo, hi, step)``
  with a literal integer step (negative steps included; the prepass
  normalizer rewrites them to step 1);
* subscripted stores and loads in all three common spellings —
  chained ``A[i][j]``, linearized ``A[i*64 + j]``, numpy-style
  ``A[i, j]`` — with index expressions linear in loop variables and
  literals;
* free loop-invariant names (``n`` in ``range(1, n)``) as symbolic
  terms, like a mini-Fortran ``read(n)``;
* augmented assignment (``acc[i] += a[i][j]``) as read-modify-write;
* scalar assignments: affine ones fold away in the optimizer's
  induction substitution; opaque ones poison the scalar so any
  subscript using it is rejected as not provably loop-invariant;
* ``if``/``else`` conservatively (both branches' references treated as
  potentially executed, conditions ignored — may over-report, never
  misses);
* a right-hand side the affine subset cannot express (calls,
  float math) degrades to the *sum of its array reads* when every read
  is itself affine — dependence testing only consumes the read set, so
  ``A[i] = math.sin(B[i])`` still contributes ``B[i] -> A[i]``.

Everything else — ``while``, slices, non-``range`` iterators, calls in
index positions, starred/tuple targets — is skipped with a stable
reason code, never silently dropped.
"""

from __future__ import annotations

import ast
import threading
import warnings

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

__all__ = ["translate_python"]

# warnings.catch_warnings swaps the process-wide filter list, and the
# daemon extracts Python in worker threads: one parse at a time.
_PARSE_LOCK = threading.Lock()


def translate_python(
    text: str, name: str = "<source>"
) -> tuple[SourceProgram, list[SkipRecord], list[tuple[str, SourceSpan]]]:
    """Translate Python source into the mini-Fortran AST.

    Returns the translated program, the skip records, and one
    ``(context, span)`` record per outermost extracted loop nest, all
    in source order.  Raises :class:`SyntaxError` when the text is not
    valid Python at all.
    """
    # Python warns about a malformed numeral such as ``1for`` before it
    # fails to parse; the caller's parse-error skip record reports it.
    with _PARSE_LOCK, warnings.catch_warnings():
        warnings.simplefilter("ignore", SyntaxWarning)
        module = ast.parse(text, filename=name)
    translator = _PyTranslator(_scalar_assigned_names(module))
    body = translator.body(module.body, "<module>", depth=0)
    program = SourceProgram(
        body=body, name=name, source_lines=text.count("\n") + 1
    )
    return program, translator.skipped, translator.nest_spans


def _scalar_assigned_names(module: ast.Module) -> frozenset[str]:
    """Names bound by plain/augmented assignment anywhere in the module.

    Subscripting through such a name (``row = A[i]; row[j] = x``) is a
    name-binding alias the affine model cannot express, so accesses
    whose *base* is a rebound name are refused (``alias``).  Names used
    only as scalars or subscript indices are unaffected.
    """
    out: set[str] = set()
    for node in ast.walk(module):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return frozenset(out)


class _PyTranslator:
    def __init__(self, rebound_names: frozenset[str] = frozenset()) -> None:
        self.rebound_names = rebound_names
        self.skipped: list[SkipRecord] = []
        self.nest_spans: list[tuple[str, SourceSpan]] = []

    def skip(self, reason: str, line: int, detail: str) -> None:
        self.skipped.append(SkipRecord(reason, line, detail))

    # -- statements --------------------------------------------------------

    def body(
        self, stmts: list[ast.stmt], context: str, depth: int
    ) -> list[Stmt]:
        out: list[Stmt] = []
        for node in stmts:
            out.extend(self.statement(node, context, depth))
        return out

    def statement(
        self, node: ast.stmt, context: str, depth: int
    ) -> list[Stmt]:
        if isinstance(node, ast.For):
            return self.for_loop(node, context, depth)
        if isinstance(node, ast.Assign):
            return self.assign(node)
        if isinstance(node, ast.AugAssign):
            return self.aug_assign(node)
        if isinstance(node, ast.AnnAssign):
            return self.ann_assign(node)
        if isinstance(node, ast.If):
            # Control flow is conservatively ignored for dependence
            # testing (both branches potentially execute), mirroring
            # the mini-Fortran lowering of `if`.
            then_body = self.body(node.body, context, depth)
            else_body = self.body(node.orelse, context, depth)
            if not then_body and not else_body:
                return []
            return [
                IfStmt(
                    op="<",
                    left=Num(0),
                    right=Num(1),
                    then_body=then_body,
                    else_body=else_body,
                    line=node.lineno,
                )
            ]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Each function is its own extraction context with a fresh
            # loop stack; nests inside are named after it.
            return self.body(node.body, node.name, depth=0)
        if isinstance(node, ast.ClassDef):
            return self.body(node.body, f"{context}.{node.name}", depth=0)
        if isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant):
                return []  # docstring / bare literal: nothing to model
            self.skip(
                SkipReason.UNSUPPORTED_STATEMENT,
                node.lineno,
                f"expression statement ({ast.dump(node.value)[:40]}...) "
                "cannot write an analyzable reference",
            )
            return []
        if isinstance(node, (ast.Break, ast.Continue)):
            # Dropping these *enlarges* the modeled iteration space:
            # conservative for dependence (may over-report, never
            # misses), but worth surfacing.
            self.skip(
                SkipReason.CONTROL_FLOW,
                node.lineno,
                f"{type(node).__name__.lower()} ignored "
                "(iteration space over-approximated)",
            )
            return []
        if isinstance(
            node,
            (
                ast.Import,
                ast.ImportFrom,
                ast.Pass,
                ast.Return,
                ast.Global,
                ast.Nonlocal,
                ast.Assert,
                ast.Delete,
            ),
        ):
            return []  # no array writes; nothing to model
        self.skip(
            SkipReason.UNSUPPORTED_STATEMENT,
            node.lineno,
            f"{type(node).__name__} statement outside the analyzable subset",
        )
        return []

    def for_loop(
        self, node: ast.For, context: str, depth: int
    ) -> list[Stmt]:
        line = node.lineno
        if node.orelse:
            self.skip(
                SkipReason.UNSUPPORTED_STATEMENT,
                line,
                "for/else loop (else clause not modeled)",
            )
            return []
        if not isinstance(node.target, ast.Name):
            self.skip(
                SkipReason.NON_NAME_TARGET,
                line,
                "loop target is not a plain variable name",
            )
            return []
        bounds = self.range_bounds(node.iter, line)
        if bounds is None:
            return []
        lower, upper, step = bounds
        body = self.body(node.body, context, depth + 1)
        loop = ForLoop(node.target.id, lower, upper, step, body, line=line)
        if depth == 0:
            end = getattr(node, "end_lineno", None) or line
            self.nest_spans.append((context, SourceSpan(line, end)))
        return [loop]

    def range_bounds(
        self, iter_node: ast.expr, line: int
    ) -> tuple[Expr, Expr, int] | None:
        """``(lower, inclusive upper, step)`` of a ``range(...)`` call."""
        if not (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "range"
        ):
            self.skip(
                SkipReason.NON_RANGE_LOOP,
                line,
                "for loop does not iterate over range(...)",
            )
            return None
        if iter_node.keywords or not 1 <= len(iter_node.args) <= 3:
            self.skip(
                SkipReason.NON_RANGE_LOOP,
                line,
                "range(...) call outside the 1-3 positional-argument form",
            )
            return None
        step = 1
        if len(iter_node.args) == 3:
            step_value = _literal_int(iter_node.args[2])
            if step_value is None:
                self.skip(
                    SkipReason.NON_LITERAL_STEP,
                    line,
                    "range step is not an integer literal",
                )
                return None
            if step_value == 0:
                self.skip(SkipReason.ZERO_STEP, line, "range step is zero")
                return None
            step = step_value
        try:
            if len(iter_node.args) == 1:
                lower: Expr = Num(0)
                limit = self.expr(iter_node.args[0])
            else:
                lower = self.expr(iter_node.args[0])
                limit = self.expr(iter_node.args[1])
        except Untranslatable as err:
            self.skip(
                SkipReason.NONAFFINE_BOUND,
                line,
                f"loop bound: {err.detail}",
            )
            return None
        # range's limit is exclusive; the mini-Fortran upper bound is
        # inclusive (DO semantics), in both step directions.
        if step > 0:
            upper = BinOp("-", limit, Num(1))
        else:
            upper = BinOp("+", limit, Num(1))
        return lower, upper, step

    def assign(self, node: ast.Assign) -> list[Stmt]:
        if len(node.targets) != 1:
            self.skip(
                SkipReason.UNSUPPORTED_STATEMENT,
                node.lineno,
                "chained assignment (a = b = ...)",
            )
            return []
        return self.store(node.targets[0], node.value, node.lineno)

    def ann_assign(self, node: ast.AnnAssign) -> list[Stmt]:
        if node.value is None:
            return []  # bare annotation declares nothing we model
        return self.store(node.target, node.value, node.lineno)

    def aug_assign(self, node: ast.AugAssign) -> list[Stmt]:
        """``target op= value`` as an explicit read-modify-write."""
        line = node.lineno
        op = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}.get(type(node.op))
        if op is None:
            # Outside the affine operator set (/=, //=, ...): the
            # value's exact form is unrepresentable, but the *reads*
            # are target + value reads — hand the read-collection
            # fallback an addition it will fail to fully translate.
            synthetic = ast.BinOp(
                left=node.target, op=ast.Div(), right=node.value
            )
            ast.copy_location(synthetic, node)
            ast.fix_missing_locations(synthetic)
            return self.store(node.target, synthetic, line)
        rmw = ast.BinOp(left=node.target, op=node.op, right=node.value)
        ast.copy_location(rmw, node)
        ast.fix_missing_locations(rmw)
        return self.store(node.target, rmw, line)

    def store(
        self, target: ast.expr, value: ast.expr, line: int
    ) -> list[Stmt]:
        if isinstance(target, ast.Name):
            return self.scalar_store(target.id, value, line)
        if not isinstance(target, ast.Subscript):
            self.skip(
                SkipReason.UNSUPPORTED_STATEMENT,
                line,
                "assignment target is neither a name nor a subscript",
            )
            return []
        try:
            access = self.access(target)
        except Untranslatable as err:
            self.skip(err.reason, line, f"store target: {err.detail}")
            return []
        rhs = self.rhs(value, line)
        if rhs is None:
            return []
        return [Assign(access, rhs, line=line)]

    def scalar_store(self, name: str, value: ast.expr, line: int) -> list[Stmt]:
        """A scalar definition: translate exactly, or poison the name.

        An affine definition participates in the optimizer's induction
        substitution (closed forms fold into subscripts).  A definition
        the subset cannot express still *must* be recorded — otherwise
        the lowering stage would wrongly treat the scalar as
        loop-invariant — so it becomes a read of the opaque marker
        array, which can never fold.
        """
        try:
            rhs: Expr = self.expr(value)
        except Untranslatable:
            rhs = Access(OPAQUE_ARRAY, (Num(line),))
        return [Assign(Name(name), rhs, line=line)]

    def rhs(self, value: ast.expr, line: int) -> Expr | None:
        """A store's right-hand side: exact, or the sum of its reads."""
        try:
            return self.expr(value)
        except Untranslatable:
            pass
        reads: list[Expr] = []
        try:
            for node in ast.walk(value):
                if isinstance(node, ast.Subscript) and not _nested_subscript(
                    node, value
                ):
                    reads.append(self.access(node))
        except Untranslatable as err:
            self.skip(err.reason, line, err.detail)
            return None
        total: Expr = Num(0)
        for read in reads:
            total = BinOp("+", total, read)
        return total

    # -- expressions -------------------------------------------------------

    def expr(self, node: ast.expr) -> Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                raise Untranslatable(
                    SkipReason.FLOAT_INDEX,
                    f"non-integer literal {node.value!r}",
                    node.lineno,
                )
            return Num(node.value)
        if isinstance(node, ast.Name):
            return Name(node.id)
        if isinstance(node, ast.BinOp):
            op = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}.get(
                type(node.op)
            )
            if op is None:
                raise Untranslatable(
                    SkipReason.UNSUPPORTED_EXPRESSION,
                    f"operator {type(node.op).__name__} is not affine",
                    node.lineno,
                )
            return BinOp(op, self.expr(node.left), self.expr(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return BinOp("-", Num(0), self.expr(node.operand))
            if isinstance(node.op, ast.UAdd):
                return self.expr(node.operand)
            raise Untranslatable(
                SkipReason.UNSUPPORTED_EXPRESSION,
                f"unary {type(node.op).__name__}",
                node.lineno,
            )
        if isinstance(node, ast.Subscript):
            return self.access(node)
        if isinstance(node, ast.Call):
            raise Untranslatable(
                SkipReason.CALL_EXPRESSION,
                "function call in a lowered position",
                node.lineno,
            )
        raise Untranslatable(
            SkipReason.UNSUPPORTED_EXPRESSION,
            f"{type(node).__name__} expression",
            getattr(node, "lineno", 0),
        )

    def access(self, node: ast.Subscript) -> Access:
        """Chained / numpy-style subscripts as one multi-dim access."""
        subs: list[Expr] = []
        current: ast.expr = node
        while isinstance(current, ast.Subscript):
            slice_node = current.slice
            if isinstance(slice_node, (ast.Slice, ast.Starred)):
                raise Untranslatable(
                    SkipReason.SLICE_SUBSCRIPT,
                    "slice subscript (A[i:j]) is not an element access",
                    current.lineno,
                )
            if isinstance(slice_node, ast.Tuple):
                dims = [self.expr(element) for element in slice_node.elts]
            else:
                dims = [self.expr(slice_node)]
            subs = dims + subs
            current = current.value
        if not isinstance(current, ast.Name):
            raise Untranslatable(
                SkipReason.UNSUPPORTED_EXPRESSION,
                "subscripted base is not a plain array name",
                node.lineno,
            )
        if current.id in self.rebound_names:
            raise Untranslatable(
                SkipReason.ALIAS,
                f"subscript through rebound name {current.id!r} "
                "(may alias another array)",
                node.lineno,
            )
        return Access(current.id, tuple(subs))


def _literal_int(node: ast.expr) -> int | None:
    """The integer value of a (possibly negated) literal, else None."""
    sign = 1
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            sign = -1
            node = node.operand
        elif isinstance(node.op, ast.UAdd):
            node = node.operand
        else:
            return None
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return sign * node.value
    return None


def _nested_subscript(node: ast.Subscript, root: ast.expr) -> bool:
    """Is ``node`` the inner link of a chained ``A[i][j]`` access?

    The read-collection fallback walks every Subscript in an opaque
    right-hand side; for ``A[i][j]`` the walk yields both the full
    chain and its inner ``A[i]`` link, which must not be double
    counted.  A subscript is "nested" when it appears as the *value*
    of another subscript anywhere in the tree.
    """
    for parent in ast.walk(root):
        if isinstance(parent, ast.Subscript) and parent.value is node:
            return True
    return False
