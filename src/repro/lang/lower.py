"""Lowering the source AST to the affine loop-nest IR.

Runs after the prepass optimizer (:mod:`repro.opt`), which is
responsible for making subscripts and bounds affine wherever possible
(constant propagation, induction-variable and forward substitution,
loop normalization).  Lowering then:

* converts expressions to :class:`~repro.ir.affine.AffineExpr`;
* builds one IR :class:`~repro.ir.program.Statement` per array
  assignment, carrying its enclosing :class:`~repro.ir.loops.LoopNest`;
* treats any remaining free scalar as a *symbolic term* — but only if
  it is loop-invariant.  A scalar that is still assigned inside an
  enclosing loop after optimization cannot be summarized affinely;
* keeps one rank per array (:func:`rank_conflict`): a statement whose
  references use an array at another rank than an earlier reference,
  in the statement or in an earlier lowered statement, cannot be put
  to the dependence tests;
* refuses the loop shapes :mod:`repro.ir.loops` rejects: a repeated
  loop variable, and a bound that names its own loop's variable or
  one an inner loop binds.

A statement that cannot be lowered is a
:class:`~repro.lang.errors.LowerError` in strict mode; in permissive
mode it is skipped and reported.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.ir.affine import AffineExpr
from repro.ir.arrays import AccessKind, ArrayRef
from repro.ir.loops import Loop, LoopNest
from repro.ir.program import Program, Statement
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
    walk_statements,
)
from repro.lang.errors import LowerError

__all__ = [
    "lower",
    "LowerResult",
    "lower_expr",
    "line_label",
    "label_line",
    "skip_line",
    "rank_conflict",
    "RANK_WORDING",
]


@dataclass
class LowerResult:
    """IR program plus lowering diagnostics."""

    program: Program
    symbols: frozenset[str]
    skipped: list[str] = field(default_factory=list)


def line_label(line: int) -> str:
    """The label of a statement lowered from source ``line``."""
    return f"line{line}"


def label_line(label: str) -> int:
    """The source line a :func:`line_label` label names."""
    return int(label[len("line") :])


def _skip_message(message: str, line: int) -> str:
    return f"line {line}: {message}"


def skip_line(skipped: str) -> int:
    """The source line a :attr:`LowerResult.skipped` message names."""
    return int(skipped[len("line ") : skipped.index(":")])


#: The words every :func:`rank_conflict` message holds.
RANK_WORDING = "used with rank"


def rank_conflict(refs: Iterable[ArrayRef], ranks: dict[str, int]) -> str | None:
    """The rank rule: one rank per array.

    Returns the message for the first of ``refs`` whose array has
    another rank in ``ranks`` or in an earlier of ``refs``.  With no
    conflict, records every ref's rank in ``ranks`` and returns None.
    """
    new: dict[str, int] = {}
    for ref in refs:
        seen = ranks.get(ref.array, new.get(ref.array))
        if seen is None:
            new[ref.array] = ref.rank
        elif seen != ref.rank:
            return (
                f"array {ref.array!r} {RANK_WORDING} {ref.rank} after rank {seen}"
            )
    ranks.update(new)
    return None


def lower_expr(expr: Expr, line: int = 0) -> AffineExpr:
    """Convert an expression tree to affine form, or raise LowerError."""
    if isinstance(expr, Num):
        return AffineExpr(expr.value)
    if isinstance(expr, Name):
        return AffineExpr.variable(expr.ident)
    if isinstance(expr, BinOp):
        left = lower_expr(expr.left, line)
        right = lower_expr(expr.right, line)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            if left.is_constant:
                return right * left.constant
            if right.is_constant:
                return left * right.constant
            raise LowerError("non-affine product of two variables", line)
        raise LowerError(f"unknown operator {expr.op!r}", line)
    if isinstance(expr, Access):
        raise LowerError(
            f"array element {expr.array}[...] in an affine position", line
        )
    raise LowerError(f"cannot lower expression {expr!r}", line)


class _Lowerer:
    def __init__(self, source: SourceProgram, strict: bool):
        self.source = source
        self.strict = strict
        self.program = Program(source.name, source_lines=source.source_lines)
        self.skipped: list[str] = []
        self.read_symbols: set[str] = set()
        self.ranks: dict[str, int] = {}  # each lowered array's rank
        # Scalars still assigned anywhere after optimization are not
        # provably loop-invariant; subscripts using them are rejected.
        self.scalar_defs: set[str] = set()
        self._collect_scalar_defs()

    def _collect_scalar_defs(self) -> None:
        for stmt in walk_statements(self.source.body):
            if isinstance(stmt, Assign) and isinstance(stmt.target, Name):
                self.scalar_defs.add(stmt.target.ident)

    def run(self) -> LowerResult:
        self._lower_body(self.source.body, [])
        return LowerResult(
            program=self.program,
            symbols=frozenset(self.read_symbols),
            skipped=self.skipped,
        )

    def _lower_body(self, stmts: list[Stmt], loop_stack: list[Loop]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Read):
                self.read_symbols.add(stmt.ident)
            elif isinstance(stmt, ForLoop):
                self._lower_loop(stmt, loop_stack)
            elif isinstance(stmt, IfStmt):
                # Control flow is conservatively ignored for dependence
                # testing: references of both branches are treated as
                # potentially executed (may over-report, never misses).
                self._lower_body(stmt.then_body, loop_stack)
                self._lower_body(stmt.else_body, loop_stack)
            elif isinstance(stmt, Assign):
                self._lower_assign(stmt, loop_stack)
            else:
                raise LowerError(f"unexpected statement {stmt!r}")

    def _lower_loop(self, loop: ForLoop, loop_stack: list[Loop]) -> None:
        if loop.step != 1:
            self._problem(
                f"loop {loop.var!r} has unnormalized step {loop.step}",
                loop.line,
            )
            return
        lower = self._affine_or_none(loop.lower, loop.line, loop_stack)
        upper = self._affine_or_none(loop.upper, loop.line, loop_stack)
        if lower is None or upper is None:
            return
        try:
            ir_loop = Loop(loop.var, lower, upper)
        except ValueError as err:  # a bound that names its own variable
            self._problem(str(err), loop.line)
            return
        loop_stack.append(ir_loop)
        try:
            self._lower_body(loop.body, loop_stack)
        finally:
            loop_stack.pop()

    def _lower_assign(self, stmt: Assign, loop_stack: list[Loop]) -> None:
        if isinstance(stmt.target, Name):
            # A surviving scalar assignment: nothing to lower; uses of
            # this scalar in subscripts are validated at use sites.
            return
        assert isinstance(stmt.target, Access)
        try:
            nest = LoopNest(list(loop_stack))
        except ValueError as err:  # a repeated or rebound loop variable
            self._problem(str(err), stmt.line)
            return
        write = self._lower_ref(
            stmt.target, AccessKind.WRITE, stmt.line, loop_stack
        )
        if write is None:
            return
        reads: list[ArrayRef] = []
        ok = True
        for access in _collect_accesses(stmt.expr):
            ref = self._lower_ref(access, AccessKind.READ, stmt.line, loop_stack)
            if ref is None:
                ok = False
                break
            reads.append(ref)
        if not ok:
            return
        conflict = rank_conflict((write, *reads), self.ranks)
        if conflict is not None:
            self._problem(conflict, stmt.line)
            return
        self.program.add(
            Statement(nest, write, tuple(reads), label=line_label(stmt.line))
        )

    def _lower_ref(
        self,
        access: Access,
        kind: str,
        line: int,
        loop_stack: list[Loop],
    ) -> ArrayRef | None:
        subs: list[AffineExpr] = []
        for sub in access.subscripts:
            lowered = self._affine_or_none(sub, line, loop_stack)
            if lowered is None:
                return None
            subs.append(lowered)
        return ArrayRef(access.array, tuple(subs), kind)

    def _affine_or_none(
        self, expr: Expr, line: int, loop_stack: list[Loop]
    ) -> AffineExpr | None:
        try:
            lowered = lower_expr(expr, line)
        except LowerError as err:
            self._problem(str(err), line)
            return None
        loop_vars = {loop.var for loop in loop_stack}
        for name in lowered.variables():
            if name in loop_vars:
                continue
            if name in self.scalar_defs:
                # The scalar is assigned somewhere and was not turned
                # into a closed form by the optimizer: not provably
                # loop-invariant.
                self._problem(
                    f"subscript/bound uses scalar {name!r} that is "
                    "assigned in the program (not loop-invariant)",
                    line,
                )
                return None
        return lowered

    def _problem(self, message: str, line: int) -> None:
        if self.strict:
            raise LowerError(message, line)
        self.skipped.append(_skip_message(message, line))


def _collect_accesses(expr: Expr) -> list[Access]:
    """Array reads appearing anywhere in an expression tree."""
    out: list[Access] = []

    def walk(node: Expr) -> None:
        if isinstance(node, Access):
            out.append(node)
            for sub in node.subscripts:
                walk(sub)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)

    walk(expr)
    return out


def lower(source: SourceProgram, strict: bool = True) -> LowerResult:
    """Lower a parsed (and preferably optimized) program to the IR."""
    return _Lowerer(source, strict).run()
