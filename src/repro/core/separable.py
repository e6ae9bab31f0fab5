"""Dimension-by-dimension direction vectors (paper section 6, last idea).

Burke and Cytron's optimization for "nice" cases::

    for i ... for j ...
        a[i + 1][j] = a[i][j]

``i`` and ``j`` are not interrelated, so each component of the
direction vector can be computed independently: 3 small tests per level
instead of up to ``3^depth`` hierarchical refinements, and the vector
set is the Cartesian product of the per-level direction sets.

A problem qualifies when the levels genuinely do not interact:

* the two references share their whole loop nest (``n1 == n2 ==
  n_common``) and there are no symbolic terms;
* every loop bound is a constant (rectangular nest — a trapezoid
  couples levels through its bounds);
* every subscript equation touches exactly one level's variable pair,
  and no level is touched by two equations.

Under those conditions the per-level subproblems have disjoint
variables, so the product construction is exact.
"""

from __future__ import annotations

from repro.core.result import DirectionResult
from repro.deptests.base import Verdict
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.robust.budget import NULL_SCOPE, BudgetScope
from repro.system.constraints import ConstraintSystem, LinearConstraint
from repro.system.depsystem import DependenceProblem, Direction
from repro.system.transform import gcd_transform

__all__ = ["is_separable", "separable_directions"]


def is_separable(problem: DependenceProblem) -> bool:
    """Can direction vectors be computed dimension by dimension?"""
    if problem.symbols:
        return False
    if not (problem.n1 == problem.n2 == problem.n_common):
        return False
    if any(c.num_vars_used > 1 for c in problem.bounds.constraints):
        return False
    touched: set[int] = set()
    for coeffs, _rhs in problem.equations:
        levels = set()
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            if j < problem.n1:
                levels.add(j)
            elif j < problem.n1 + problem.n2:
                levels.add(j - problem.n1)
            else:
                return False  # symbol in an equation
        if len(levels) > 1:
            return False
        if levels:
            (level,) = levels
            if level in touched:
                return False
            touched.add(level)
    return True


def _level_problem(
    problem: DependenceProblem, level: int
) -> DependenceProblem:
    """The 2-variable subproblem of one common level."""
    i1, i2 = problem.var1(level), problem.var2(level)
    names = (problem.names[i1], problem.names[i2])

    def project(coeffs) -> tuple[int, int]:
        return (coeffs[i1], coeffs[i2])

    equations = [
        (project(coeffs), rhs)
        for coeffs, rhs in problem.equations
        if coeffs[i1] != 0 or coeffs[i2] != 0
    ]
    bounds = ConstraintSystem(names)
    for con in problem.bounds.constraints:
        used = con.variables()
        if used and all(v in (i1, i2) for v in used):
            bounds.add_constraint(LinearConstraint(project(con.coeffs), con.bound))
    return DependenceProblem(
        names=names,
        equations=equations,
        bounds=bounds,
        n1=1,
        n2=1,
        n_common=1,
        symbols=(),
    )


def separable_directions(
    analyzer,
    problem: DependenceProblem,
    sink: TraceSink = NULL_SINK,
    scope: BudgetScope = NULL_SCOPE,
    stage_ns: dict[str, int] | None = None,
) -> DirectionResult:
    """Per-level direction sets, combined as a Cartesian product.

    Levels with no subscript equation get their feasible directions
    straight from the bounds (no test at all); constrained levels cost
    at most three small tests each.  Test invocations are recorded in
    the analyzer's direction statistics, as in hierarchical refinement,
    and their per-test nanoseconds add into ``stage_ns`` when given.
    """
    for coeffs, rhs in problem.equations:
        if all(c == 0 for c in coeffs) and rhs != 0:
            # Degenerate constant dimension that cannot match.
            return DirectionResult(
                vectors=frozenset(), n_common=problem.n_common
            )
    per_level: list[set[str]] = []
    tests = 0
    for level in range(problem.n_common):
        scope.tick()
        sub = _level_problem(problem, level)
        if not sub.equations:
            per_level.append(_unconstrained_directions(sub))
            continue
        outcome = gcd_transform(sub)
        if outcome.independent:
            return DirectionResult(
                vectors=frozenset(), n_common=problem.n_common
            )
        feasible: set[str] = set()
        for direction in Direction.ALL:
            decision = analyzer._run_cascade(
                outcome.transformed.with_rows(sub.direction_rows(0, direction)),
                record=False,
                sink=sink,
                scope=scope,
                stage_ns=stage_ns,
            )
            tests += 1
            independent = decision.result.verdict is Verdict.INDEPENDENT
            analyzer.stats.record_direction_test(
                decision.result.test_name, independent
            )
            if not independent:
                feasible.add(direction)
        if not feasible:
            return DirectionResult(
                vectors=frozenset(),
                n_common=problem.n_common,
                tests_performed=tests,
            )
        per_level.append(feasible)

    vectors: set[tuple[str, ...]] = {()}
    for feasible in per_level:
        vectors = {
            prefix + (direction,)
            for prefix in vectors
            for direction in sorted(feasible)
        }
    return DirectionResult(
        vectors=frozenset(vectors),
        n_common=problem.n_common,
        tests_performed=tests,
    )


def _unconstrained_directions(sub: DependenceProblem) -> set[str]:
    """Feasible directions of a level untouched by any subscript.

    Derived from the bounds alone: ``<`` needs two distinct feasible
    iterations, ``=`` needs one, and the ranges of ``i`` and ``i'`` are
    identical (same loop).
    """
    intervals = sub.bounds.single_variable_intervals()
    lo = max(iv.lo for iv in intervals)
    hi = min(iv.hi for iv in intervals)
    if lo > hi:
        return set()
    out = {Direction.EQ}
    if hi > lo:
        out |= {Direction.LT, Direction.GT}
    return out
