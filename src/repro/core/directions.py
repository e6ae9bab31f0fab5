"""Direction vectors via hierarchical refinement (paper section 6).

A direction vector assigns each common loop level one of ``<``, ``=``,
``>`` (or the wildcard ``*``); the references are dependent *with* that
vector iff the dependence system plus the corresponding iteration-order
constraints is satisfiable.  Following Burke and Cytron, the refinement
is hierarchical: test ``(*, *, ..., *)`` first; on dependence, split
the first wildcard three ways and recurse, pruning every subtree whose
root tests independent.

Unoptimized, this multiplies test counts enormously (Table 4: ~12,500
tests where plain queries needed 332).  Two prunings bring the cost
back down (Table 5: ~900):

* **unused-variable elimination** — a loop index appearing in no
  subscript (nor, transitively, in the bounds of one that does) gets
  direction ``*`` with no testing at all;
* **distance-vector pruning** — a level whose GCD distance is a known
  constant has its direction forced by the distance's sign.

Refinement also reuses what it has proved.  A dependent node's integer
witness has one definite direction at the next refined level, so it
already satisfies one of the node's three children.  All three get it as
a hint: when a child's system reaches the Fourier-Motzkin stage, the
stage first checks the hint against the rows it receives and, if they
all hold, answers DEPENDENT from it instead of eliminating (see
:meth:`DependenceAnalyzer._run_cascade`).  Those rows are Acyclic's
residual when Acyclic ran first, which a sibling's witness can satisfy
too; Acyclic's completion then lifts it to a witness of the whole
child.  The root may get a hint as well: the plain query's witness,
when the caller ran one on the same reduced system.  Every sub-query
still runs the same tests and is credited to the same one, so the test
counts do not move.

Refinement also implements the paper's *implicit branch and bound*: a
plain query that Fourier-Motzkin could only answer "maybe" (a real but
possibly non-integer solution) is independent if every elementary
direction vector tests independent — this occurred four times in the
paper's suite.
"""

from __future__ import annotations

from repro.core.result import DirectionResult
from repro.deptests.base import Verdict
from repro.obs.events import DirectionNode
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.robust.budget import NULL_SCOPE, BudgetScope
from repro.system.constraints import ConstraintSystem, LinearConstraint
from repro.system.depsystem import DependenceProblem, Direction
from repro.system.transform import TransformedSystem

__all__ = ["refine_directions", "lift_vector"]


def refine_directions(
    analyzer,
    problem: DependenceProblem,
    transformed: TransformedSystem,
    prune_distance: bool = True,
    sink: TraceSink = NULL_SINK,
    scope: BudgetScope = NULL_SCOPE,
    stage_ns: dict[str, int] | None = None,
    distances: tuple[int | None, ...] | None = None,
    witness: tuple[int, ...] | None = None,
) -> DirectionResult:
    """Hierarchical direction-vector refinement over a transformed system.

    ``problem``/``transformed`` may be the unused-variable-reduced
    system; the returned vectors are over *its* common levels — the
    caller embeds them back into the original nest (dropped levels get
    ``*``) via :func:`lift_vector`.  ``prune_distance`` fixes the
    direction of every level whose GCD distance is a provable constant
    (Table 5); without it the whole tree is tested (Table 4).  When
    ``stage_ns`` is given, each cascade test's nanoseconds add into it
    instead of reaching the analyzer's stage timers one sub-query at a
    time.

    A caller that has already run the plain query on this transform
    passes what it found: ``distances``, its
    :func:`~repro.core.distances.constant_distances`, and ``witness``,
    its cascade's t-space witness, which seeds the root's hint.
    """
    n_common = problem.n_common

    forced: dict[int, str] = {}
    if prune_distance:
        from repro.core.distances import constant_distances, forced_directions

        if distances is None:
            distances = constant_distances(transformed)
        forced = forced_directions(distances)

    template: list[str] = [
        forced.get(level, Direction.ANY) for level in range(n_common)
    ]
    refinable = [lvl for lvl in range(n_common) if lvl not in forced]

    if sink.enabled and forced:
        sink.emit(DirectionNode(vector=tuple(template), action="forced"))

    leaves: set[tuple[str, ...]] = set()
    state = _RefineState(analyzer, problem, transformed, sink, scope, stage_ns)

    def recurse(
        vector: list[str], next_refinable: int, hint: tuple[int, ...] | None
    ) -> None:
        verdict, exact, found = state.test(tuple(vector), hint)
        if verdict is Verdict.INDEPENDENT:
            return
        if not exact:
            state.exact = False
        if next_refinable >= len(refinable):
            leaves.add(tuple(vector))
            return
        level = refinable[next_refinable]
        for direction in Direction.ALL:
            vector[level] = direction
            recurse(vector, next_refinable + 1, found)
        vector[level] = Direction.ANY

    recurse(template, 0, witness)
    # recurse refers to itself through its closure; dropping the name
    # frees this refinement's state now, not at a cyclic collection.
    del recurse

    return DirectionResult(
        vectors=frozenset(leaves),
        n_common=n_common,
        exact=state.exact,
        tests_performed=state.tests,
    )


def lift_vector(
    vector: tuple[str, ...], level_map: list[int], out_n_common: int
) -> tuple[str, ...]:
    """Embed a reduced-level vector into the original common levels."""
    out = [Direction.ANY] * out_n_common
    for reduced_level, direction in enumerate(vector):
        out[level_map[reduced_level]] = direction
    return tuple(out)


class _RefineState:
    """Shared bookkeeping for one refinement run.

    Each level's direction rows are rewritten into t-space once, on
    first use, and every vector's system reuses them: a sub-query's
    system is the transformed bounds plus, level by level in order, the
    cached rows of that level's direction.
    """

    def __init__(
        self,
        analyzer,
        problem,
        transformed,
        sink: TraceSink = NULL_SINK,
        scope: BudgetScope = NULL_SCOPE,
        stage_ns: dict[str, int] | None = None,
    ):
        self.analyzer = analyzer
        self.problem = problem
        self.transformed = transformed
        self.sink = sink
        self.scope = scope
        self.tests = 0
        self.exact = True
        self.stage_ns = stage_ns
        self._level_rows: dict[tuple[int, str], list[LinearConstraint]] = {}

    def _rows(self, level: int, direction: str) -> list[LinearConstraint]:
        """The t-space rows of ``i_level direction i'_level``."""
        key = (level, direction)
        rows = self._level_rows.get(key)
        if rows is None:
            rows = self.transformed.rows(
                self.problem.direction_rows(level, direction)
            )
            self._level_rows[key] = rows
        return rows

    def test(
        self, vector: tuple[str, ...], hint: tuple[int, ...] | None
    ) -> tuple[Verdict, bool, tuple[int, ...] | None]:
        """Run the cascade under the vector's direction constraints.

        Returns the verdict, its exactness and, when dependent, the
        t-space witness.  ``hint`` goes to the cascade's
        Fourier-Motzkin stage.
        """
        # Refinement fans out up to 3^depth sub-queries: the budget's
        # wall clock governs the whole tree walk.
        self.scope.tick()
        rows = list(self.transformed.system.constraints)
        for level, direction in enumerate(vector):
            if direction != Direction.ANY:
                rows += self._rows(level, direction)
        decision = self.analyzer._run_cascade(
            ConstraintSystem(self.transformed.t_names, rows),
            record=False,
            sink=self.sink,
            scope=self.scope,
            stage_ns=self.stage_ns,
            hint=hint,
        )
        result = decision.result
        self.tests += 1
        independent = result.verdict is Verdict.INDEPENDENT
        self.analyzer.stats.record_direction_test(result.test_name, independent)
        if self.sink.enabled:
            self.sink.emit(
                DirectionNode(
                    vector=vector,
                    action="tested",
                    verdict=result.verdict.value,
                )
            )
        return result.verdict, result.exact, decision.witness_t
