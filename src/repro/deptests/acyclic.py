"""The Acyclic test (paper section 3.3).

Handles systems where some constraints couple two or more variables,
provided the *constraint graph* is acyclic.  The graph has two nodes
per variable — ``+v`` ("v is bounded above through some constraint")
and ``-v`` ("bounded below") — and, for every multi-variable constraint
``sum a_k * t_k <= b`` and ordered pair of its variables ``(j, i)``, an
edge from ``(+j if a_j > 0 else -j)`` to ``(+i if a_i < 0 else -i)``:
satisfying ``t_j``'s bound through this constraint leans on ``t_i``
from the indicated side.

If the graph is acyclic, some variable occurs in multi-variable
constraints with a single sign only, i.e. it is constrained in just one
direction; pinning it to its extreme single-variable bound (or deleting
its constraints when that bound is infinite) preserves satisfiability
exactly.  Repeating this eliminates every variable, deciding the
system.  When a cycle exists, the elimination still disposes of every
variable outside the cycle, shrinking the system handed to the Loop
Residue and Fourier-Motzkin tests.

Extended GCD preprocessing is a prerequisite: an equality kept as two
inequalities always creates a two-node cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.deptests.base import CascadeTest, TestResult, Verdict
from repro.linalg.gcdext import floor_div
from repro.obs.sinks import TraceSink
from repro.robust.budget import NULL_SCOPE, BudgetScope
from repro.system.constraints import (
    NEG_INF,
    POS_INF,
    ConstraintSystem,
    LinearConstraint,
)

__all__ = ["AcyclicTest", "AcyclicElimination", "build_constraint_graph"]

# Step kinds recorded during elimination.
_PIN = "pin"
_DEFER_LOW = "defer_low"  # variable only bounded above; no finite lower bound
_DEFER_HIGH = "defer_high"


def build_constraint_graph(
    system: ConstraintSystem,
) -> list[tuple[tuple[str, int], tuple[str, int]]]:
    """Edges of the two-node-per-variable constraint graph.

    Nodes are ``("+", var)`` / ``("-", var)``; only multi-variable
    constraints contribute edges.
    """
    edges: list[tuple[tuple[str, int], tuple[str, int]]] = []
    for con in system.constraints:
        used = con.variables()
        if len(used) < 2:
            continue
        for j in used:
            tail = ("+", j) if con.coeffs[j] > 0 else ("-", j)
            for i in used:
                if i == j:
                    continue
                head = ("+", i) if con.coeffs[i] < 0 else ("-", i)
                edges.append((tail, head))
    return edges


def _graph_has_cycle(
    edges: list[tuple[tuple[str, int], tuple[str, int]]]
) -> bool:
    adjacency: dict[tuple[str, int], list[tuple[str, int]]] = {}
    nodes: set[tuple[str, int]] = set()
    for tail, head in edges:
        adjacency.setdefault(tail, []).append(head)
        nodes.add(tail)
        nodes.add(head)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(nodes, WHITE)

    def visit(node: tuple[str, int]) -> bool:
        color[node] = GRAY
        for nxt in adjacency.get(node, ()):
            if color[nxt] == GRAY:
                return True
            if color[nxt] == WHITE and visit(nxt):
                return True
        color[node] = BLACK
        return False

    return any(color[n] == WHITE and visit(n) for n in nodes)


@dataclass
class AcyclicElimination:
    """Outcome of running the elimination on a system.

    Exactly one of the following holds:

    * ``verdict is Verdict.INDEPENDENT`` — a contradiction surfaced.
    * ``verdict is Verdict.DEPENDENT`` — all variables eliminated;
      ``complete_witness(())`` yields a satisfying point.
    * ``verdict is None`` — a cycle blocked progress; ``residual`` holds
      the simplified system for the next test, and ``complete_witness``
      upgrades that test's witness to cover the eliminated variables.
    """

    n_vars: int
    verdict: Verdict | None = None
    residual: ConstraintSystem | None = None
    steps: list[tuple[str, int, object]] = field(default_factory=list)
    base_values: dict[int, int] = field(default_factory=dict)

    def complete_witness(
        self, residual_witness: tuple[int, ...] | None
    ) -> tuple[int, ...]:
        """Fill in eliminated variables around a witness for the residual."""
        values = list(residual_witness or [0] * self.n_vars)
        if len(values) != self.n_vars:
            raise ValueError("witness arity mismatch")
        for var, val in self.base_values.items():
            values[var] = val
        for kind, var, payload in reversed(self.steps):
            if kind == _PIN:
                values[var] = payload
            else:
                removed: list[LinearConstraint] = payload
                bounds = []
                for con in removed:
                    a = con.coeffs[var]
                    rest = sum(
                        c * values[j]
                        for j, c in enumerate(con.coeffs)
                        if j != var and c != 0
                    )
                    residue = con.bound - rest
                    if kind == _DEFER_LOW:  # a > 0:  var <= residue / a
                        bounds.append(floor_div(residue, a))
                    else:  # a < 0:  var >= residue / a  ==> ceil
                        bounds.append(-floor_div(residue, -a))
                values[var] = min(bounds) if kind == _DEFER_LOW else max(bounds)
        return tuple(values)


class AcyclicTest(CascadeTest):
    """Acyclic constraint-graph test — exact when the graph has no cycle."""

    name = "acyclic"

    def applicable(self, system: ConstraintSystem) -> bool:
        return not _graph_has_cycle(build_constraint_graph(system))

    def eliminate(
        self, system: ConstraintSystem, scope: BudgetScope = NULL_SCOPE
    ) -> AcyclicElimination:
        """Run the one-direction-variable elimination to completion or cycle."""
        result = AcyclicElimination(n_vars=system.n_vars)
        constraints = list(system.constraints)
        eliminated: set[int] = set()

        while True:
            scope.tick()
            constraints = [c for c in constraints if not c.is_trivial]
            if any(c.is_contradiction for c in constraints):
                result.verdict = Verdict.INDEPENDENT
                return result

            work = ConstraintSystem(system.names, constraints)
            intervals = work.single_variable_intervals()
            if any(iv.empty for iv in intervals):
                result.verdict = Verdict.INDEPENDENT
                return result

            multi = [c for c in constraints if c.num_vars_used >= 2]
            if not multi:
                result.verdict = Verdict.DEPENDENT
                for var in range(system.n_vars):
                    if var not in eliminated:
                        result.base_values[var] = intervals[var].pick()
                return result

            candidate = self._find_one_direction_variable(multi)
            if candidate is None:
                result.residual = ConstraintSystem(system.names, constraints)
                return result

            var, positive = candidate
            eliminated.add(var)
            extreme = intervals[var].lo if positive else intervals[var].hi
            if extreme in (NEG_INF, POS_INF):
                bit = 1 << var
                removed = [c for c in constraints if c.mask & bit]
                constraints = [c for c in constraints if not c.mask & bit]
                kind = _DEFER_LOW if positive else _DEFER_HIGH
                result.steps.append((kind, var, removed))
                continue
            value = int(extreme)
            constraints = [c.substitute(var, value) for c in constraints]
            result.steps.append((_PIN, var, value))

    @staticmethod
    def _find_one_direction_variable(
        multi: list[LinearConstraint],
    ) -> tuple[int, bool] | None:
        """A variable whose coefficients in ``multi`` all share one sign.

        Returns ``(var, positive)`` — positive=True means the variable is
        only bounded *above* through multi-variable constraints, so it may
        be pinned to its lower extreme.
        """
        signs: dict[int, int] = {}
        for con in multi:
            for var in con.variables():
                sign = 1 if con.coeffs[var] > 0 else -1
                prev = signs.get(var)
                if prev is None:
                    signs[var] = sign
                elif prev != sign:
                    signs[var] = 0
        for var, sign in sorted(signs.items()):
            if sign == 1:
                return var, True
            if sign == -1:
                return var, False
        return None

    def _decide(
        self, system: ConstraintSystem, sink: TraceSink, scope: BudgetScope
    ) -> TestResult:
        elimination = self.eliminate(system, scope)
        if elimination.verdict is Verdict.INDEPENDENT:
            return TestResult(Verdict.INDEPENDENT, self.name)
        if elimination.verdict is Verdict.DEPENDENT:
            witness = elimination.complete_witness(None)
            return TestResult(Verdict.DEPENDENT, self.name, witness=witness)
        # Cycle: hand the simplified system and the witness lift forward.
        return TestResult(
            Verdict.NOT_APPLICABLE,
            self.name,
            residual=elimination.residual,
            completion=elimination.complete_witness,
        )
