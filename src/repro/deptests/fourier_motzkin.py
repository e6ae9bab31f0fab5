"""Fourier-Motzkin elimination with integer sampling (paper section 3.5).

The backup test of the cascade.  It decides the *real* relaxation
exactly: eliminating a variable ``v`` replaces its lower/upper bound
pairs by their cross-multiplied combinations, an exact projection of
the feasible region.  If the projection is empty the integer system is
certainly independent.

If a real solution exists, back-substitution walks the eliminations in
reverse, picking the integer at the middle of each variable's allowed
range.  Two refinements recover exactness in common cases:

* If some step's range contains no integer *and the range's bounds are
  constants* (no previously chosen variable influences them — in
  particular at the first back-substitution step), then no integer
  solution exists at all: INDEPENDENT, exactly.  This is the paper's
  special case.
* Otherwise the fractional variable is branched on (``v <= floor`` /
  ``v >= ceil`` companion systems) — classic branch-and-bound, bounded
  by a node budget.  Only a blown budget produces an inexact UNKNOWN
  (treated as dependent); the paper never needed explicit branching on
  its workload and neither do we on ours.

All arithmetic is exact: eliminations cross-multiply integers (with gcd
renormalization, a valid integer tightening), and interval endpoints
during back-substitution are :class:`fractions.Fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.deptests.base import CascadeTest, TestResult, Verdict
from repro.obs.events import FmBranch, FmSample
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.robust.budget import NULL_SCOPE, BudgetScope
from repro.system.constraints import ConstraintSystem, LinearConstraint

__all__ = ["FourierMotzkinTest"]

# Unbounded range ends are represented as None (no sentinel magnitude:
# symbolic bounds can legitimately exceed any finite sentinel).


@dataclass
class _Elimination:
    """One eliminated variable with its bounding constraints."""

    var: int
    lowers: list[LinearConstraint]  # coeff of var < 0: var >= .../...
    uppers: list[LinearConstraint]  # coeff of var > 0: var <= .../...


class FourierMotzkinTest(CascadeTest):
    """Exact real elimination + integer heuristics + branch-and-bound."""

    name = "fourier_motzkin"

    def __init__(self, max_branch_nodes: int = 256):
        self.max_branch_nodes = max_branch_nodes

    def applicable(self, system: ConstraintSystem) -> bool:
        return True

    def _decide(
        self, system: ConstraintSystem, sink: TraceSink, scope: BudgetScope
    ) -> TestResult:
        budget = [self.max_branch_nodes]
        verdict, witness = self._solve(
            list(system.constraints), system.n_vars, budget, sink, scope=scope
        )
        if verdict is Verdict.DEPENDENT:
            return TestResult(verdict, self.name, witness=witness)
        if verdict is Verdict.UNKNOWN:
            return TestResult(verdict, self.name, exact=False)
        return TestResult(Verdict.INDEPENDENT, self.name)

    # -- core solver ----------------------------------------------------------

    def _solve(
        self,
        constraints: list[LinearConstraint],
        n_vars: int,
        budget: list[int],
        sink: TraceSink = NULL_SINK,
        depth: int = 0,
        scope: BudgetScope = NULL_SCOPE,
    ) -> tuple[Verdict, tuple[int, ...] | None]:
        eliminations, infeasible = self._eliminate_all(
            constraints, n_vars, scope
        )
        if infeasible:
            return Verdict.INDEPENDENT, None

        values: dict[int, int] = {}
        assigned = 0  # mask of the variables already given values
        for step in reversed(eliminations):
            lo, hi = self._range(step, values)
            int_lo = None if lo is None else _ceil(lo)
            int_hi = None if hi is None else _floor(hi)
            if int_lo is not None and int_hi is not None and int_lo > int_hi:
                # An empty integer range needs both ends finite; an
                # unbounded end always holds integers.
                if self._bounds_are_constant(step, assigned):
                    # No integer in a constant range: exactly independent.
                    if sink.enabled:
                        sink.emit(
                            FmSample(var=step.var, outcome="empty_constant_range")
                        )
                    return Verdict.INDEPENDENT, None
                return self._branch(
                    constraints,
                    n_vars,
                    step.var,
                    lo,
                    hi,
                    budget,
                    sink,
                    depth,
                    scope,
                )
            mid = _middle(lo, hi, int_lo, int_hi)
            if sink.enabled:
                sink.emit(
                    FmSample(var=step.var, outcome="integer_picked", value=mid)
                )
            values[step.var] = mid
            assigned |= 1 << step.var

        witness = tuple(values.get(v, 0) for v in range(n_vars))
        return Verdict.DEPENDENT, witness

    def _eliminate_all(
        self,
        constraints: list[LinearConstraint],
        n_vars: int,
        scope: BudgetScope = NULL_SCOPE,
    ) -> tuple[list[_Elimination], bool]:
        """Project out every variable; True flag means real-infeasible."""
        current = _dedupe(constraints)
        if any(c.is_contradiction for c in current):
            return [], True
        remaining = set(range(n_vars))
        eliminations: list[_Elimination] = []
        while remaining:
            # Elimination can square the constraint count per variable
            # and cross-multiplication grows coefficients — the two
            # blowup axes a budget bounds (plus the wall clock).
            scope.tick()
            var = self._pick_variable(current, remaining)
            remaining.discard(var)
            bit = 1 << var
            lowers: list[LinearConstraint] = []
            uppers: list[LinearConstraint] = []
            others: list[LinearConstraint] = []
            for c in current:
                if not c.mask & bit:
                    others.append(c)
                elif c.coeffs[var] < 0:
                    lowers.append(c)
                else:
                    uppers.append(c)
            eliminations.append(_Elimination(var, lowers, uppers))
            combos: list[LinearConstraint] = []
            for low in lowers:
                a_l = low.coeffs[var]  # < 0
                for up in uppers:
                    a_u = up.coeffs[var]  # > 0
                    # a_u * low + (-a_l) * up eliminates var exactly.
                    coeffs = [
                        a_u * cl - a_l * cu
                        for cl, cu in zip(low.coeffs, up.coeffs)
                    ]
                    bound = a_u * low.bound - a_l * up.bound
                    combos.append(LinearConstraint.make(coeffs, bound))
            current = _dedupe(others + combos)
            scope.check_constraints(len(current))
            if scope.budget.max_coeff_bits is not None:
                for con in combos:
                    for value in con.coeffs:
                        scope.check_coeff(value)
                    scope.check_coeff(con.bound)
            if any(c.is_contradiction for c in current):
                return eliminations, True
        if any(c.is_contradiction for c in current):
            return eliminations, True
        return eliminations, False

    @staticmethod
    def _pick_variable(
        constraints: list[LinearConstraint], remaining: set[int]
    ) -> int:
        """Chernikova-style greedy order: minimize the p*q fill-in."""
        best_var = min(remaining)
        best_cost = None
        for var in sorted(remaining):
            bit = 1 << var
            p = q = 0
            for c in constraints:
                if c.mask & bit:
                    if c.coeffs[var] < 0:
                        p += 1
                    else:
                        q += 1
            cost = p * q - (p + q)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_var = var
        return best_var

    @staticmethod
    def _range(
        step: _Elimination, values: dict[int, int]
    ) -> tuple[Fraction | None, Fraction | None]:
        """The variable's allowed interval; None means unbounded."""
        lo: Fraction | None = None
        hi: Fraction | None = None
        for con in step.lowers:
            a = con.coeffs[step.var]
            rest = sum(
                c * values[j]
                for j, c in enumerate(con.coeffs)
                if j != step.var and c != 0
            )
            bound = Fraction(con.bound - rest, a)  # a < 0 flips to lower bound
            if lo is None or bound > lo:
                lo = bound
        for con in step.uppers:
            a = con.coeffs[step.var]
            rest = sum(
                c * values[j]
                for j, c in enumerate(con.coeffs)
                if j != step.var and c != 0
            )
            bound = Fraction(con.bound - rest, a)
            if hi is None or bound < hi:
                hi = bound
        return lo, hi

    @staticmethod
    def _bounds_are_constant(step: _Elimination, assigned: int) -> bool:
        """True if no already-assigned variable occurs in the step's bounds.

        ``assigned`` is a mask of the variables already given values.
        """
        others = assigned & ~(1 << step.var)
        return not any(con.mask & others for con in step.lowers + step.uppers)

    def _branch(
        self,
        constraints: list[LinearConstraint],
        n_vars: int,
        var: int,
        lo: Fraction,
        hi: Fraction,
        budget: list[int],
        sink: TraceSink = NULL_SINK,
        depth: int = 0,
        scope: BudgetScope = NULL_SCOPE,
    ) -> tuple[Verdict, tuple[int, ...] | None]:
        """Branch-and-bound on a variable whose range holds no integer."""
        # Governed limits raise (degrading the whole query); the legacy
        # list budget below keeps its historical soft behavior of
        # returning an inexact UNKNOWN instead.
        scope.tick()
        scope.check_depth(depth)
        scope.charge_fm_node()
        if budget[0] <= 0:
            return Verdict.UNKNOWN, None
        budget[0] -= 1
        split = (lo + hi) / 2
        floor_val = math.floor(split)
        if sink.enabled:
            sink.emit(
                FmBranch(
                    var=var,
                    depth=depth,
                    split_floor=floor_val,
                    budget_left=budget[0],
                )
            )
        unknown_seen = False
        for extra in (
            _upper_bound_constraint(n_vars, var, floor_val),
            _lower_bound_constraint(n_vars, var, floor_val + 1),
        ):
            verdict, witness = self._solve(
                constraints + [extra], n_vars, budget, sink, depth + 1, scope
            )
            if verdict is Verdict.DEPENDENT:
                return verdict, witness
            if verdict is Verdict.UNKNOWN:
                unknown_seen = True
        if unknown_seen:
            return Verdict.UNKNOWN, None
        return Verdict.INDEPENDENT, None


def _upper_bound_constraint(n_vars: int, var: int, bound: int) -> LinearConstraint:
    coeffs = [0] * n_vars
    coeffs[var] = 1
    return LinearConstraint.make(coeffs, bound)


def _lower_bound_constraint(n_vars: int, var: int, bound: int) -> LinearConstraint:
    coeffs = [0] * n_vars
    coeffs[var] = -1
    return LinearConstraint.make(coeffs, -bound)


def _dedupe(constraints: list[LinearConstraint]) -> list[LinearConstraint]:
    """Drop trivial constraints and keep the tightest bound per coeff row."""
    best: dict[tuple[int, ...], LinearConstraint] = {}
    contradictions: list[LinearConstraint] = []
    for con in constraints:
        if con.is_trivial:
            continue
        if con.is_contradiction:
            contradictions.append(con)
            continue
        prev = best.get(con.coeffs)
        if prev is None or con.bound < prev.bound:
            best[con.coeffs] = con
    return contradictions + list(best.values())


def _ceil(value: Fraction) -> int:
    return math.ceil(value)


def _floor(value: Fraction) -> int:
    return math.floor(value)


def _middle(
    lo: Fraction | None,
    hi: Fraction | None,
    int_lo: int | None,
    int_hi: int | None,
) -> int:
    """The integer nearest the middle of [lo, hi], clamped into range."""
    if lo is None and hi is None:
        return 0
    if lo is None:
        return int_hi
    if hi is None:
        return int_lo
    mid = math.floor((lo + hi) / 2)
    return max(int_lo, min(int_hi, mid))
