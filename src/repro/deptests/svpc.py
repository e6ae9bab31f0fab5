"""The Single Variable Per Constraint test (paper section 3.2).

Applicable when every constraint mentions at most one variable.  Each
constraint is then just an upper or lower bound for that variable;
scanning once and keeping the tightest bound per variable decides the
system exactly: independent iff some variable's lower bound exceeds its
upper bound.

This is a superset of the classic single-loop single-dimension exact
test, and — thanks to Extended GCD preprocessing folding the equality
constraints away — it also covers many multi-dimensional and coupled
subscript patterns.  It decides the overwhelming majority of real cases
(Table 1) at O(constraints + variables) cost.
"""

from __future__ import annotations

from repro.deptests.base import CascadeTest, TestResult, Verdict
from repro.obs.sinks import TraceSink
from repro.robust.budget import BudgetScope
from repro.system.constraints import ConstraintSystem

__all__ = ["SvpcTest"]


class SvpcTest(CascadeTest):
    """Single Variable Per Constraint — the cheapest exact test."""

    name = "svpc"

    def applicable(self, system: ConstraintSystem) -> bool:
        return all(c.num_vars_used <= 1 for c in system.constraints)

    def _decide(
        self, system: ConstraintSystem, sink: TraceSink, scope: BudgetScope
    ) -> TestResult:
        # One linear scan: no budget check sites needed beyond run()'s.
        if not self.applicable(system):
            return TestResult(Verdict.NOT_APPLICABLE, self.name)
        if system.has_contradiction():
            return TestResult(Verdict.INDEPENDENT, self.name)
        intervals = system.single_variable_intervals()
        if any(interval.empty for interval in intervals):
            return TestResult(Verdict.INDEPENDENT, self.name)
        witness = tuple(interval.pick() for interval in intervals)
        return TestResult(Verdict.DEPENDENT, self.name, witness=witness)
