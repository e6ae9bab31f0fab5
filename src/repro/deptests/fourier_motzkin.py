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

Direction refinement often knows an integer point of the system
already: the witness of the node it refines.
:meth:`FourierMotzkinTest.run_with_hint` checks such a point against
every row first.  When all of them hold it answers DEPENDENT with the
point as its witness and eliminates nothing; otherwise it eliminates as
:meth:`~repro.deptests.base.CascadeTest.run` does.  Elimination is
exact, so the verdict is the one elimination gives, except that a
system whose branch-and-bound would run out of budget gets an exact
DEPENDENT instead of an inexact UNKNOWN.

All arithmetic is exact and integral.  The solver works on plain rows
``(coeffs, bound)`` meaning ``coeffs . t <= bound``: eliminations
cross-multiply integers (with gcd renormalization, a valid integer
tightening, exactly as :meth:`LinearConstraint.make` does), and each
end of a back-substitution range is a ratio ``num / den`` with
``den > 0``, compared by cross-multiplication and rounded with integer
floor division.
"""

from __future__ import annotations

import math
import time
from operator import mul

from repro.deptests.base import CascadeTest, TestResult, Verdict
from repro.obs.events import FmBranch, FmSample
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.robust.budget import NULL_SCOPE, BudgetScope
from repro.system.constraints import ConstraintSystem

__all__ = ["FourierMotzkinTest"]

# A row ``(coeffs, bound)``: ``sum(coeffs[j] * t[j]) <= bound``, gcd-normalized.
Row = tuple[tuple[int, ...], int]
# One eliminated variable with its bounding rows: ``(var, lowers, uppers)``,
# lowers having a negative coefficient of ``var``, uppers a positive one.
Elimination = tuple[int, list[Row], list[Row]]
# Unbounded range ends are represented as None (no sentinel magnitude:
# symbolic bounds can legitimately exceed any finite sentinel); a finite
# end is a ratio ``(num, den)`` with ``den > 0``.
End = tuple[int, int] | None


class FourierMotzkinTest(CascadeTest):
    """Exact real elimination + integer heuristics + branch-and-bound."""

    name = "fourier_motzkin"

    def __init__(self, max_branch_nodes: int = 256):
        self.max_branch_nodes = max_branch_nodes

    def applicable(self, system: ConstraintSystem) -> bool:
        return True

    def run_with_hint(
        self,
        system: ConstraintSystem,
        hint: tuple[int, ...],
        sink: TraceSink = NULL_SINK,
        scope: BudgetScope = NULL_SCOPE,
    ) -> TestResult:
        """:meth:`run`, answered from ``hint`` when it satisfies every row.

        ``hint`` is an integer point over the system's variables.  If it
        satisfies every constraint, the system is DEPENDENT with ``hint``
        as its witness, no elimination runs, and the trace gets one
        ``witness_reused`` sample per variable.  Otherwise the hint is
        ignored and the system is eliminated as usual.
        """
        start = time.perf_counter_ns()
        if system.evaluate(hint):
            if sink.enabled:
                for var, value in enumerate(hint):
                    sink.emit(FmSample(var=var, outcome="witness_reused", value=value))
            result = TestResult(Verdict.DEPENDENT, self.name, witness=hint)
        else:
            result = self._decide(system, sink, scope)
        result.elapsed_ns = time.perf_counter_ns() - start
        return result

    def _decide(
        self, system: ConstraintSystem, sink: TraceSink, scope: BudgetScope
    ) -> TestResult:
        budget = [self.max_branch_nodes]
        rows = [(con.coeffs, con.bound) for con in system.constraints]
        verdict, witness = self._solve(rows, system.n_vars, budget, sink, scope=scope)
        if verdict is Verdict.DEPENDENT:
            return TestResult(verdict, self.name, witness=witness)
        if verdict is Verdict.UNKNOWN:
            return TestResult(verdict, self.name, exact=False)
        return TestResult(Verdict.INDEPENDENT, self.name)

    # -- core solver ----------------------------------------------------------

    def _solve(
        self,
        rows: list[Row],
        n_vars: int,
        budget: list[int],
        sink: TraceSink = NULL_SINK,
        depth: int = 0,
        scope: BudgetScope = NULL_SCOPE,
    ) -> tuple[Verdict, tuple[int, ...] | None]:
        eliminations = _eliminate_all(rows, n_vars, scope)
        if eliminations is None:
            return Verdict.INDEPENDENT, None

        values = [0] * n_vars
        for var, lowers, uppers in reversed(eliminations):
            lo, hi = _range(var, lowers, uppers, values)
            int_lo = None if lo is None else -(-lo[0] // lo[1])
            int_hi = None if hi is None else hi[0] // hi[1]
            if int_lo is not None and int_hi is not None and int_lo > int_hi:
                # An empty integer range needs both ends finite; an
                # unbounded end always holds integers.  Every variable
                # after this one in the order already has a value, so
                # the range is constant iff its rows mention only var.
                if all(
                    coeffs.count(0) == n_vars - 1 for coeffs, _ in lowers + uppers
                ):
                    # No integer in a constant range: exactly independent.
                    if sink.enabled:
                        sink.emit(FmSample(var=var, outcome="empty_constant_range"))
                    return Verdict.INDEPENDENT, None
                return self._branch(
                    rows, n_vars, var, lo, hi, budget, sink, depth, scope
                )
            if lo is None:
                mid = 0 if hi is None else int_hi
            elif hi is None:
                mid = int_lo
            else:
                # The integer nearest the middle, clamped into range.
                mid = max(int_lo, min(int_hi, _floor_middle(lo, hi)))
            if sink.enabled:
                sink.emit(FmSample(var=var, outcome="integer_picked", value=mid))
            values[var] = mid

        return Verdict.DEPENDENT, tuple(values)

    def _branch(
        self,
        rows: list[Row],
        n_vars: int,
        var: int,
        lo: tuple[int, int],
        hi: tuple[int, int],
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
        floor_val = _floor_middle(lo, hi)
        if sink.enabled:
            sink.emit(
                FmBranch(
                    var=var,
                    depth=depth,
                    split_floor=floor_val,
                    budget_left=budget[0],
                )
            )
        unit = [0] * n_vars
        unit[var] = 1
        below = (tuple(unit), floor_val)  # var <= floor
        unit[var] = -1
        above = (tuple(unit), -(floor_val + 1))  # var >= floor + 1
        unknown_seen = False
        for extra in (below, above):
            verdict, witness = self._solve(
                rows + [extra], n_vars, budget, sink, depth + 1, scope
            )
            if verdict is Verdict.DEPENDENT:
                return verdict, witness
            if verdict is Verdict.UNKNOWN:
                unknown_seen = True
        if unknown_seen:
            return Verdict.UNKNOWN, None
        return Verdict.INDEPENDENT, None


def _eliminate_all(
    rows: list[Row], n_vars: int, scope: BudgetScope = NULL_SCOPE
) -> list[Elimination] | None:
    """Project out every variable; None means real-infeasible."""
    # Drop trivial rows and keep the tightest bound per coefficient row.
    best: dict[tuple[int, ...], int] = {}
    for coeffs, bound in rows:
        if not any(coeffs):
            if bound < 0:
                return None
            continue
        prev = best.get(coeffs)
        if prev is None or bound < prev:
            best[coeffs] = bound
    current = list(best.items())
    check_bits = scope.budget.max_coeff_bits is not None
    remaining = list(range(n_vars))
    eliminations: list[Elimination] = []
    while remaining:
        # Elimination can square the constraint count per variable
        # and cross-multiplication grows coefficients — the two
        # blowup axes a budget bounds (plus the wall clock).
        scope.tick()
        var = _pick_variable(current, remaining)
        remaining.remove(var)
        lowers: list[Row] = []
        uppers: list[Row] = []
        best = {}
        for row in current:
            c = row[0][var]
            if not c:
                best[row[0]] = row[1]
            elif c < 0:
                lowers.append(row)
            else:
                uppers.append(row)
        eliminations.append((var, lowers, uppers))
        combos: list[Row] = []
        contradictions = 0
        for low, low_bound in lowers:
            a_l = -low[var]  # > 0
            for up, up_bound in uppers:
                a_u = up[var]  # > 0
                # a_u * low + a_l * up eliminates var exactly.
                coeffs = tuple([a_u * cl + a_l * cu for cl, cu in zip(low, up)])
                bound = a_u * low_bound + a_l * up_bound
                g = math.gcd(*coeffs)
                if g > 1:
                    coeffs = tuple([c // g for c in coeffs])
                    bound //= g
                if check_bits:
                    combos.append((coeffs, bound))
                if not g:  # all-zero row: trivial or a contradiction
                    if bound < 0:
                        contradictions += 1
                    continue
                prev = best.get(coeffs)
                if prev is None or bound < prev:
                    best[coeffs] = bound
        current = list(best.items())
        scope.check_constraints(len(current) + contradictions)
        if check_bits:
            for coeffs, bound in combos:
                for value in coeffs:
                    scope.check_coeff(value)
                scope.check_coeff(bound)
        if contradictions:
            return None
    return eliminations


def _pick_variable(current: list[Row], remaining: list[int]) -> int:
    """Chernikova-style greedy order: minimize the p*q fill-in.

    ``remaining`` is ascending, so ties go to the lowest index.
    """
    best_var = remaining[0]
    best_cost = None
    for var in remaining:
        p = q = 0
        for coeffs, _ in current:
            c = coeffs[var]
            if c < 0:
                p += 1
            elif c:
                q += 1
        cost = p * q - (p + q)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_var = var
    return best_var


def _range(
    var: int, lowers: list[Row], uppers: list[Row], values: list[int]
) -> tuple[End, End]:
    """The variable's allowed interval as two ratios; None means unbounded.

    ``values`` holds 0 for ``var`` and every unassigned variable, so a
    row's full dot product with it is the rest of the row.
    """
    lo = hi = None
    for coeffs, bound in lowers:
        # a*var + rest <= bound with a < 0: var >= (rest - bound) / -a.
        num = sum(map(mul, coeffs, values)) - bound
        den = -coeffs[var]
        if lo is None or num * lo[1] > lo[0] * den:
            lo = (num, den)
    for coeffs, bound in uppers:
        num = bound - sum(map(mul, coeffs, values))
        den = coeffs[var]
        if hi is None or num * hi[1] < hi[0] * den:
            hi = (num, den)
    return lo, hi


def _floor_middle(lo: tuple[int, int], hi: tuple[int, int]) -> int:
    """``floor((lo + hi) / 2)`` for two ratios with positive denominators."""
    return (lo[0] * hi[1] + hi[0] * lo[1]) // (2 * lo[1] * hi[1])
