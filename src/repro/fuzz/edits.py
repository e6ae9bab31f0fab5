"""Seeded whole-program edit storms for the incremental engine.

The differential fuzzer (:mod:`repro.fuzz.generator`) makes single
*queries*; this module makes whole *programs* and then edits them the
way a user in an editor would — tweak a loop bound, nudge a subscript,
insert a statement, delete one — so the incremental re-analysis path
(:mod:`repro.core.incremental`) can be hammered against cold full
re-analysis after every keystroke-sized change.

Everything is driven by a caller-supplied :class:`random.Random`, so a
storm is reproducible from its seed: the 500-edit property suite and
the requery bound in ``tests/test_incremental.py`` and the CI
``incremental-smoke`` job all replay byte-identical programs.

Generated programs stay inside the mini-Fortran surface language:
constant step-1 bounds and affine subscripts with small coefficients,
so :func:`repro.lang.unparse.program_to_source` round-trips them and
the serve/watch layers can be exercised with real source text.
"""

from __future__ import annotations

import random

from repro.ir.affine import AffineExpr, const, var
from repro.ir.arrays import AccessKind, ArrayRef
from repro.ir.loops import Loop, LoopNest
from repro.ir.program import Program, Statement

__all__ = ["storm_program", "mutate", "EDIT_KINDS"]

EDIT_KINDS = ("bound", "subscript", "insert", "delete")

_VARS = ("i", "j", "k")


def _random_nest(rng: random.Random, max_depth: int = 2) -> LoopNest:
    depth = rng.randint(1, max_depth)
    loops = []
    for level in range(depth):
        lower = rng.randint(0, 3)
        upper = lower + rng.randint(4, 12)
        loops.append(Loop(_VARS[level], const(lower), const(upper)))
    return LoopNest(loops)


def _random_subscript(rng: random.Random, nest: LoopNest) -> AffineExpr:
    choice = rng.random()
    if choice < 0.15:
        return const(rng.randint(0, 6))  # constant subscript
    expr = var(rng.choice(nest.variables)) * rng.choice((1, 1, 1, 2, -1))
    expr = expr + rng.randint(-2, 3)
    if choice > 0.85 and nest.depth > 1:
        expr = expr + var(rng.choice(nest.variables))
    return expr


def _random_ref(
    rng: random.Random, arrays: int, nest: LoopNest, kind: str
) -> ArrayRef:
    index = rng.randrange(arrays)
    # Rank is a fixed function of the array name: every reference to
    # ``aN`` anywhere in any storm agrees, so pairs never rank-mismatch.
    rank = 2 if index % 3 == 0 else 1
    return ArrayRef(
        f"a{index}",
        tuple(_random_subscript(rng, nest) for _ in range(rank)),
        kind,
    )


def _random_statement(rng: random.Random, arrays: int) -> Statement:
    nest = _random_nest(rng)
    write = _random_ref(rng, arrays, nest, AccessKind.WRITE)
    reads = tuple(
        _random_ref(rng, arrays, nest, AccessKind.READ)
        for _ in range(rng.randint(1, 2))
    )
    return Statement(nest=nest, write=write, reads=reads)


def storm_program(
    seed: int, statements: int = 12, arrays: int = 6, name: str = "storm"
) -> Program:
    """A reproducible random program for edit-storm campaigns.

    ``arrays`` controls pair density: fewer arrays means more sites
    collide on the same name and more testable pairs per statement.
    """
    rng = random.Random(seed)
    program = Program(name=name)
    for _ in range(statements):
        program.add(_random_statement(rng, arrays))
    return program


# -- mutations ----------------------------------------------------------------


def _mutate_bound(rng: random.Random, stmt: Statement) -> Statement:
    level = rng.randrange(stmt.nest.depth)
    loops = list(stmt.nest.loops)
    loop = loops[level]
    lower = loop.lower.as_constant()
    upper = loop.upper.as_constant()
    if rng.random() < 0.5:
        upper = max(lower + 1, upper + rng.choice((-3, -2, -1, 1, 2, 3)))
    else:
        lower = max(0, min(upper - 1, lower + rng.choice((-1, 1))))
    loops[level] = Loop(loop.var, const(lower), const(upper))
    return Statement(
        nest=LoopNest(loops),
        write=stmt.write,
        reads=stmt.reads,
        label=stmt.label,
    )


def _tweak_expr(rng: random.Random, expr: AffineExpr) -> AffineExpr:
    if rng.random() < 0.7 or not expr.variables():
        return expr + rng.choice((-2, -1, 1, 2))
    name = rng.choice(sorted(expr.variables()))
    return expr + var(name) * rng.choice((-1, 1))


def _mutate_subscript(rng: random.Random, stmt: Statement) -> Statement:
    refs = list(stmt.refs())
    target = rng.randrange(len(refs))
    ref = refs[target]
    dim = rng.randrange(ref.rank)
    subscripts = list(ref.subscripts)
    subscripts[dim] = _tweak_expr(rng, subscripts[dim])
    new_ref = ArrayRef(ref.array, tuple(subscripts), ref.kind)
    if stmt.write is not None and target == 0:
        return Statement(stmt.nest, new_ref, stmt.reads, stmt.label)
    reads = list(stmt.reads)
    reads[target - (1 if stmt.write is not None else 0)] = new_ref
    return Statement(stmt.nest, stmt.write, tuple(reads), stmt.label)


def mutate(
    program: Program, rng: random.Random, arrays: int = 6
) -> tuple[Program, str]:
    """One editor-sized change; returns the new program + a description.

    The input program is never modified (statements are immutable and
    the statement list is copied), so callers can keep every version of
    a storm alive for replay.
    """
    statements = list(program.statements)
    kind = rng.choice(EDIT_KINDS)
    if kind == "delete" and len(statements) <= 2:
        kind = "insert"
    if kind == "insert":
        index = rng.randint(0, len(statements))
        statements.insert(index, _random_statement(rng, arrays))
        description = f"insert statement at {index}"
    elif kind == "delete":
        index = rng.randrange(len(statements))
        del statements[index]
        description = f"delete statement {index}"
    elif kind == "bound":
        index = rng.randrange(len(statements))
        statements[index] = _mutate_bound(rng, statements[index])
        description = f"mutate bounds of statement {index}"
    else:
        index = rng.randrange(len(statements))
        statements[index] = _mutate_subscript(rng, statements[index])
        description = f"mutate subscript of statement {index}"
    return Program(program.name, statements, program.source_lines), description
