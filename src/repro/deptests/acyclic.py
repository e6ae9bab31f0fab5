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
from repro.system.constraints import ConstraintSystem, LinearConstraint

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
        """Run the one-direction-variable elimination to completion or cycle.

        Each round is one pass over the rows.  It gathers the tightest
        single-variable bounds and, from the multi-variable rows, two
        sign masks: the variables some row bounds from above (a
        positive coefficient) and those some row bounds from below.  A
        variable in exactly one mask is constrained in one direction
        only; the lowest such is eliminated.  Rows carry their positive
        mask beside them, and trivial rows are dropped as they appear.
        """
        n_vars = system.n_vars
        result = AcyclicElimination(n_vars=n_vars)
        rows = [
            (con, _positive_mask(con.coeffs) if con.mask & (con.mask - 1) else 0)
            for con in system.constraints
            if con.mask or con.bound < 0
        ]
        eliminated = 0

        while True:
            scope.tick()
            lows: list[int | None] = [None] * n_vars
            highs: list[int | None] = [None] * n_vars
            positive = negative = 0
            for con, pos in rows:
                mask = con.mask
                if mask & (mask - 1):
                    positive |= pos
                    negative |= mask ^ pos
                    continue
                if not mask:  # a contradiction: trivial rows are gone
                    result.verdict = Verdict.INDEPENDENT
                    return result
                var = mask.bit_length() - 1
                a = con.coeffs[var]
                if a > 0:
                    value = con.bound // a
                    if highs[var] is None or value < highs[var]:
                        highs[var] = value
                        if lows[var] is not None and value < lows[var]:
                            result.verdict = Verdict.INDEPENDENT
                            return result
                else:
                    # a*t <= b with a < 0  ==>  t >= ceil(b/a) = -floor(b/|a|).
                    value = -(con.bound // -a)
                    if lows[var] is None or value > lows[var]:
                        lows[var] = value
                        if highs[var] is not None and value > highs[var]:
                            result.verdict = Verdict.INDEPENDENT
                            return result

            if not positive | negative:  # no multi-variable row left
                result.verdict = Verdict.DEPENDENT
                for var in range(n_vars):
                    if not eliminated >> var & 1:
                        value = lows[var]
                        if value is None:
                            value = highs[var]
                        result.base_values[var] = 0 if value is None else value
                return result

            one_way = positive ^ negative
            if not one_way:
                result.residual = ConstraintSystem(
                    system.names, [con for con, _ in rows]
                )
                return result

            bit = one_way & -one_way
            var = bit.bit_length() - 1
            eliminated |= bit
            # Only bounded above through multi-variable rows: pin to the
            # lower extreme (and symmetrically).
            up_only = bool(positive & bit)
            extreme = lows[var] if up_only else highs[var]
            if extreme is None:
                removed = [con for con, _ in rows if con.mask & bit]
                rows = [row for row in rows if not row[0].mask & bit]
                kind = _DEFER_LOW if up_only else _DEFER_HIGH
                result.steps.append((kind, var, removed))
                continue
            pinned = []
            for row in rows:
                con = row[0]
                if con.mask & bit:
                    con = con.substitute(var, extreme)
                    if not con.mask and con.bound >= 0:
                        continue  # trivial
                    row = (con, row[1] & ~bit)
                pinned.append(row)
            rows = pinned
            result.steps.append((_PIN, var, extreme))

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


def _positive_mask(coeffs: tuple[int, ...]) -> int:
    """Bit ``i`` set iff ``coeffs[i] > 0``."""
    mask = 0
    bit = 1
    for c in coeffs:
        if c > 0:
            mask |= bit
        bit <<= 1
    return mask
