"""Greedy minimization of failing fuzz cases.

Given a case and a predicate ("does this still exhibit the bug?"),
:func:`shrink_case` repeatedly tries structure-reducing edits and keeps
any strictly-cheaper variant the predicate accepts.  Edits, roughly in
order of how much they remove:

* drop the innermost loop of a nest, substituting its variable with
  the loop's lower bound (stays affine, so the case remains valid);
* drop a subscript dimension from both references;
* eliminate a symbolic unknown by substituting its oracle value;
* pin a loop to a single iteration (``upper := lower``) or halve a
  constant iteration range;
* zero a subscript coefficient;
* shrink subscript and bound constants toward zero.

The loop is greedy with restarts: after any accepted edit the full edit
list is retried on the smaller case, until a fixpoint or ``max_evals``
predicate evaluations.  Cost is a deterministic structural measure
(:func:`case_cost`), so shrinking the same case with the same predicate
always yields the same minimum.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import replace

from repro.fuzz.generator import FuzzCase
from repro.ir.affine import AffineExpr
from repro.ir.arrays import ArrayRef
from repro.ir.loops import Loop, LoopNest

__all__ = ["case_cost", "shrink_case"]

MAX_EVALS = 400  # predicate evaluations before a shrink gives up


def case_cost(case: FuzzCase) -> int:
    """Structural size of a case (lower is simpler).

    Loops dominate (each costs 4), then subscript dimensions (2 each),
    then the magnitudes of every coefficient and constant in subscripts
    and bounds, then symbolic unknowns (2 each).
    """
    cost = 4 * (case.nest1.depth + case.nest2.depth)
    cost += 2 * (case.ref1.rank + case.ref2.rank)
    for ref in (case.ref1, case.ref2):
        for sub in ref.subscripts:
            cost += abs(sub.constant) + sum(abs(c) for c in sub.terms.values())
    for nest in (case.nest1, case.nest2):
        for loop in nest:
            for bound in (loop.lower, loop.upper):
                cost += abs(bound.constant)
                cost += sum(abs(c) for c in bound.terms.values())
    cost += 2 * len(case.env)
    return cost


def shrink_case(
    case: FuzzCase,
    predicate: Callable[[FuzzCase], bool],
    max_evals: int = MAX_EVALS,
) -> FuzzCase:
    """The smallest variant of ``case`` still accepted by ``predicate``.

    Greedy descent: try candidates in decreasing-aggressiveness order,
    keep the first strictly-cheaper one that still fails, restart.  The
    predicate is never called on the original case (assumed failing)
    and at most ``max_evals`` times in total; a predicate that raises
    counts as "no longer fails" so shrinking can't crash the harness.
    """
    best = case
    best_cost = case_cost(case)
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _candidates(best):
            if evals >= max_evals:
                break
            candidate_cost = case_cost(candidate)
            if candidate_cost >= best_cost:
                continue
            evals += 1
            try:
                still_fails = predicate(candidate)
            except Exception:
                still_fails = False
            if still_fails:
                best, best_cost = candidate, candidate_cost
                improved = True
                break
    return best


# -- edit enumeration -------------------------------------------------------


def _candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """All single-edit variants, most aggressive reductions first."""
    yield from _drop_innermost_loops(case)
    yield from _drop_dimensions(case)
    yield from _drop_symbols(case)
    yield from _pin_loops(case)
    yield from _zero_coefficients(case)
    yield from _shrink_constants(case)


def _subst_ref(ref: ArrayRef, name: str, value: AffineExpr) -> ArrayRef:
    return ArrayRef(
        ref.array,
        tuple(sub.substitute(name, value) for sub in ref.subscripts),
        ref.kind,
    )


def _subst_nest(nest: LoopNest, name: str, value: AffineExpr) -> LoopNest:
    return LoopNest(
        [
            Loop(
                loop.var,
                loop.lower.substitute(name, value),
                loop.upper.substitute(name, value),
            )
            for loop in nest
        ]
    )


def _prune_env(case: FuzzCase) -> FuzzCase:
    """Drop env entries for symbols the case no longer mentions."""
    used = (
        case.ref1.variables()
        | case.ref2.variables()
        | case.nest1.symbols()
        | case.nest2.symbols()
    )
    env = {name: value for name, value in case.env.items() if name in used}
    if env != case.env:
        return replace(case, env=env)
    return case


def _drop_innermost_loops(case: FuzzCase) -> Iterator[FuzzCase]:
    """Remove a nest's innermost loop, pinning its variable to the
    lower bound.  When both nests end in the identical loop, dropping
    it from both sides at once preserves the shared-prefix structure.
    """
    both_droppable = (
        case.nest1.depth
        and case.nest2.depth
        and case.nest1.loops[-1] == case.nest2.loops[-1]
    )
    if both_droppable:
        loop = case.nest1.loops[-1]
        yield _prune_env(
            replace(
                case,
                ref1=_subst_ref(case.ref1, loop.var, loop.lower),
                nest1=LoopNest(case.nest1.loops[:-1]),
                ref2=_subst_ref(case.ref2, loop.var, loop.lower),
                nest2=LoopNest(case.nest2.loops[:-1]),
            )
        )
    if case.nest1.depth:
        loop = case.nest1.loops[-1]
        yield _prune_env(
            replace(
                case,
                ref1=_subst_ref(case.ref1, loop.var, loop.lower),
                nest1=LoopNest(case.nest1.loops[:-1]),
            )
        )
    if case.nest2.depth:
        loop = case.nest2.loops[-1]
        yield _prune_env(
            replace(
                case,
                ref2=_subst_ref(case.ref2, loop.var, loop.lower),
                nest2=LoopNest(case.nest2.loops[:-1]),
            )
        )


def _drop_dimensions(case: FuzzCase) -> Iterator[FuzzCase]:
    if case.ref1.rank != case.ref2.rank or case.ref1.rank <= 1:
        return
    for dim in range(case.ref1.rank):
        sub1 = case.ref1.subscripts[:dim] + case.ref1.subscripts[dim + 1 :]
        sub2 = case.ref2.subscripts[:dim] + case.ref2.subscripts[dim + 1 :]
        yield _prune_env(
            replace(
                case,
                ref1=ArrayRef(case.ref1.array, sub1, case.ref1.kind),
                ref2=ArrayRef(case.ref2.array, sub2, case.ref2.kind),
            )
        )


def _drop_symbols(case: FuzzCase) -> Iterator[FuzzCase]:
    """Ground a symbolic unknown at its oracle value everywhere."""
    for name in sorted(case.env):
        value = AffineExpr(case.env[name])
        env = {k: v for k, v in case.env.items() if k != name}
        yield replace(
            case,
            ref1=_subst_ref(case.ref1, name, value),
            nest1=_subst_nest(case.nest1, name, value),
            ref2=_subst_ref(case.ref2, name, value),
            nest2=_subst_nest(case.nest2, name, value),
            env=env,
        )


def _nests_with_loop(
    case: FuzzCase, which: int, position: int, new_loop: Loop
) -> tuple[LoopNest, LoopNest]:
    """Replace one loop; mirror the edit when the other nest shares it."""
    nests = [list(case.nest1.loops), list(case.nest2.loops)]
    old = nests[which][position]
    nests[which][position] = new_loop
    other = 1 - which
    if position < len(nests[other]) and nests[other][position] == old:
        nests[other][position] = new_loop
    return LoopNest(nests[0]), LoopNest(nests[1])


def _pin_loops(case: FuzzCase) -> Iterator[FuzzCase]:
    for which, nest in enumerate((case.nest1, case.nest2)):
        for position, loop in enumerate(nest):
            if loop.upper == loop.lower:
                continue
            # Pin to a single iteration.
            nest1, nest2 = _nests_with_loop(
                case, which, position, Loop(loop.var, loop.lower, loop.lower)
            )
            yield replace(case, nest1=nest1, nest2=nest2)
            # Halve a constant iteration range.
            if loop.lower.is_constant and loop.upper.is_constant:
                gap = loop.upper.constant - loop.lower.constant
                if gap > 1:
                    new_upper = AffineExpr(loop.lower.constant + gap // 2)
                    nest1, nest2 = _nests_with_loop(
                        case, which, position, Loop(loop.var, loop.lower, new_upper)
                    )
                    yield replace(case, nest1=nest1, nest2=nest2)


def _zero_coefficients(case: FuzzCase) -> Iterator[FuzzCase]:
    for which, ref in enumerate((case.ref1, case.ref2)):
        for dim, sub in enumerate(ref.subscripts):
            for name in sorted(sub.terms):
                terms = {k: v for k, v in sub.terms.items() if k != name}
                new_sub = AffineExpr(sub.constant, terms)
                subscripts = (
                    ref.subscripts[:dim] + (new_sub,) + ref.subscripts[dim + 1 :]
                )
                new_ref = ArrayRef(ref.array, subscripts, ref.kind)
                field = "ref1" if which == 0 else "ref2"
                yield _prune_env(replace(case, **{field: new_ref}))


def _toward_zero(value: int) -> int:
    return value // 2 if value > 0 else -((-value) // 2)


def _shrink_constants(case: FuzzCase) -> Iterator[FuzzCase]:
    # Subscript constants.
    for which, ref in enumerate((case.ref1, case.ref2)):
        for dim, sub in enumerate(ref.subscripts):
            if sub.constant == 0:
                continue
            new_sub = AffineExpr(_toward_zero(sub.constant), dict(sub.terms))
            subscripts = (
                ref.subscripts[:dim] + (new_sub,) + ref.subscripts[dim + 1 :]
            )
            new_ref = ArrayRef(ref.array, subscripts, ref.kind)
            field = "ref1" if which == 0 else "ref2"
            yield replace(case, **{field: new_ref})
    # Loop-bound constants (shift both ends toward zero together so the
    # trip count — and often the failure — is preserved).
    for which, nest in enumerate((case.nest1, case.nest2)):
        for position, loop in enumerate(nest):
            for lower_c, upper_c in _bound_shifts(loop):
                new_loop = Loop(
                    loop.var,
                    AffineExpr(lower_c, dict(loop.lower.terms)),
                    AffineExpr(upper_c, dict(loop.upper.terms)),
                )
                nest1, nest2 = _nests_with_loop(case, which, position, new_loop)
                yield replace(case, nest1=nest1, nest2=nest2)


def _bound_shifts(loop: Loop) -> Iterator[tuple[int, int]]:
    lo, hi = loop.lower.constant, loop.upper.constant
    if lo != 0 and _toward_zero(lo) != lo:
        shift = _toward_zero(lo) - lo
        yield lo + shift, hi + shift
    if hi != 0 and _toward_zero(hi) != hi:
        yield lo, _toward_zero(hi)
    if lo != 0:
        yield 0, hi - lo
