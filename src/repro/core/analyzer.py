"""The cascaded exact dependence analyzer (the paper's contribution).

:class:`DependenceAnalyzer` wires together everything below it:

1. an **array-constant fast path** (``a[3]`` vs ``a[4]``) decided with
   no dependence test at all — Table 1's first column;
2. **memoization** (section 5): a no-bounds table reusing Extended GCD
   factorizations and a with-bounds table reusing full verdicts;
3. **Extended GCD** preprocessing (section 3.1): integer solvability of
   the subscript equalities and the change of variables that folds the
   equalities into the loop-bound inequalities;
4. the **cascade of exact tests** (sections 3.2-3.5), cheapest first:
   SVPC, then Acyclic (which also simplifies cyclic systems), then Loop
   Residue, then Fourier-Motzkin as the backup;
5. **distance extraction** from the GCD solution and **direction
   vectors** via hierarchical refinement (section 6, in
   :mod:`repro.core.directions`);
6. **symbolic terms** handled as unbounded shared variables
   (section 8) — no special casing needed anywhere downstream.

The same analyzer instance accumulates :class:`AnalyzerStats`, from
which the experiment harness regenerates the paper's tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.memo import Memoizer, encode_key, intern_key
from repro.core.result import DECIDED_CONSTANT, DependenceResult, DirectionResult
from repro.core.stats import AnalyzerStats
from repro.deptests.acyclic import AcyclicTest
from repro.deptests.base import TestResult, Verdict
from repro.deptests.fourier_motzkin import FourierMotzkinTest
from repro.deptests.loop_residue import LoopResidueTest
from repro.deptests.svpc import SvpcTest
from repro.obs.events import (
    CascadeStage,
    ConstantScreen,
    EgcdResolved,
    MemoLookup,
    QueryEnd,
    QueryStart,
)
from repro.obs.sinks import NULL_SINK, QueryScopedSink, TraceSink
from repro.robust.budget import (
    DEGRADED_BUDGET,
    NULL_SCOPE,
    BudgetExceeded,
    BudgetScope,
    ResourceBudget,
)
from repro.ir.arrays import ArrayRef
from repro.ir.loops import LoopNest
from repro.ir.program import AccessSite
from repro.linalg.gcdext import floor_div
from repro.system.constraints import ConstraintSystem
from repro.system.depsystem import DependenceProblem, Direction, build_problem
from repro.system.transform import (
    GcdOutcome,
    TransformedSystem,
    gcd_transform,
)

__all__ = ["DependenceAnalyzer", "CascadeDecision"]


@dataclass
class CascadeDecision:
    """Internal: outcome of running the inequality cascade on one system."""

    result: TestResult
    witness_t: tuple[int, ...] | None


_MISS = object()  # sentinel: no-bounds table had no entry

# Direction-query memo keys append an option tail to the problem's
# with-bounds key.  The tuple scheme appended (-1, prune_unused,
# prune_distance, dimension_by_dimension); the byte scheme appends the
# same elements' varint encoding, which by the codec's concatenation
# property collides exactly when the old tuples would have.  Eight
# possible tails — precompute them.
_DIRECTION_TAILS: dict[tuple[int, int, int], bytes] = {}


def _direction_tail(pu: int, pd: int, dbd: int) -> bytes:
    tail = _DIRECTION_TAILS.get((pu, pd, dbd))
    if tail is None:
        tail = encode_key((-1, pu, pd, dbd))
        _DIRECTION_TAILS[(pu, pd, dbd)] = tail
    return tail


@dataclass
class _CachedVerdict:
    """With-bounds memo value for plain queries.

    Distances are stored over the *reduced canonical* problem's common
    levels; retrievals re-orient and re-embed them per query (different
    unused-loop wrappers share this entry under the improved scheme).
    """

    dependent: bool
    decided_by: str
    exact: bool
    distance_reduced: tuple[int | None, ...] | None


@dataclass
class _CachedDirections:
    """With-bounds memo value for direction queries (reduced levels)."""

    vectors_reduced: frozenset[tuple[str, ...]]
    exact: bool
    reduced_n_common: int


@dataclass
class _GcdCacheEntry:
    """No-bounds memo value: the reusable part of the GCD factorization.

    ``x_offset``/``x_basis`` encode the general solution of the
    subscript equalities; re-applying them to a new problem's bounds
    skips the echelon factorization entirely (the paper: a match
    ignoring bounds means "we are not required to repeat the GCD test").
    """

    independent: bool
    x_offset: tuple[int, ...] | None = None
    x_basis: tuple[tuple[int, ...], ...] | None = None


class DependenceAnalyzer:
    """Exact dependence testing via cascaded special-case tests."""

    def __init__(
        self,
        memoizer: Memoizer | None = None,
        stats: AnalyzerStats | None = None,
        fm_budget: int = 256,
        eliminate_unused: bool = True,
        want_witness: bool = True,
        sink: TraceSink | None = None,
        budget: ResourceBudget | None = None,
    ):
        self.memoizer = memoizer
        self.stats = stats if stats is not None else AnalyzerStats()
        self.eliminate_unused = eliminate_unused
        self.want_witness = want_witness
        self.sink = sink if sink is not None else NULL_SINK
        # The resource budget (see repro.robust.budget); per-query
        # scopes are opened at the entry points and threaded explicitly
        # (never stored on self: the serving layer runs pipelined
        # queries of one session's analyzer on several threads).
        self.budget = budget
        self._trace_qid = 0
        self._svpc = SvpcTest()
        self._acyclic = AcyclicTest()
        self._residue = LoopResidueTest()
        self._fm = FourierMotzkinTest(max_branch_nodes=fm_budget)
        # The cascade, cheapest first.  Each member implements the
        # uniform run(system, sink) protocol; Acyclic's NOT_APPLICABLE
        # results carry the residual system the next member should take.
        self._cascade = (self._svpc, self._acyclic, self._residue, self._fm)
        # Bounded cache of built problems keyed on the (frozen,
        # hashable) query itself.  Problems are treated as immutable
        # everywhere past construction, and their attached key-bytes /
        # elimination caches make a repeated query's memo hit one dict
        # probe instead of a full rebuild of the constraint system.
        self._problem_cache: dict[tuple, DependenceProblem] = {}

    def _build_problem_cached(
        self, ref1: ArrayRef, nest1: LoopNest, ref2: ArrayRef, nest2: LoopNest
    ) -> DependenceProblem:
        cache = self._problem_cache
        key = (ref1, nest1, ref2, nest2)
        problem = cache.get(key)
        if problem is None:
            problem = build_problem(ref1, nest1, ref2, nest2)
            if len(cache) >= 32768:
                cache.clear()
            cache[key] = problem
        return problem

    # -- resource governance ------------------------------------------------

    def _open_scope(self) -> BudgetScope:
        """A fresh budget scope for one query (NULL_SCOPE when unbudgeted)."""
        if self.budget is None or self.budget.unlimited:
            return NULL_SCOPE
        return self.budget.open()

    def _degraded_result(self, blown: BudgetExceeded) -> DependenceResult:
        """The conservative answer to a budget-blown plain query.

        "Dependent" is the safe side of every client decision (a
        parallelizer keeps the loop serial), and the reason code plus
        ``exact=False`` flag the answer as assumed, not computed.
        Degraded answers are never memoized — the exception propagates
        to here before any with-bounds insert.
        """
        self.stats.registry.inc_family("robust.degraded", blown.reason)
        return DependenceResult(
            dependent=True,
            decided_by=DEGRADED_BUDGET,
            exact=False,
            degraded_reason=blown.reason,
        )

    def _degraded_directions(
        self, blown: BudgetExceeded, n_common: int
    ) -> DirectionResult:
        """Conservative all-``'*'`` vectors for a budget-blown query."""
        self.stats.registry.inc_family("robust.degraded", blown.reason)
        return DirectionResult(
            vectors=frozenset({(Direction.ANY,) * n_common}),
            n_common=n_common,
            exact=False,
            degraded_reason=blown.reason,
        )

    # -- tracing ------------------------------------------------------------

    def _begin_trace(
        self, op: str, ref1: str, ref2: str, n_common: int
    ) -> tuple[TraceSink, int]:
        """Open a query scope on the sink; no-op when tracing is off."""
        if not self.sink.enabled:
            return NULL_SINK, 0
        qid = self._trace_qid
        self._trace_qid += 1
        qsink = QueryScopedSink(self.sink, qid)
        qsink.emit(QueryStart(op=op, ref1=ref1, ref2=ref2, n_common=n_common))
        return qsink, time.perf_counter_ns()

    @staticmethod
    def _end_trace(
        qsink: TraceSink,
        start_ns: int,
        dependent: bool,
        decided_by: str,
        exact: bool,
        n_vectors: int | None = None,
    ) -> None:
        qsink.emit(
            QueryEnd(
                dependent=dependent,
                decided_by=decided_by,
                exact=exact,
                elapsed_ns=time.perf_counter_ns() - start_ns,
                n_vectors=n_vectors,
            )
        )

    # -- public entry points ------------------------------------------------

    def analyze(
        self,
        ref1: ArrayRef,
        nest1: LoopNest,
        ref2: ArrayRef,
        nest2: LoopNest,
    ) -> DependenceResult:
        """Can the two references touch the same element? (section 2)"""
        self.stats.total_queries += 1
        qsink, start = (
            self._begin_trace(
                "analyze", str(ref1), str(ref2), nest1.common_prefix_depth(nest2)
            )
            if self.sink.enabled
            else (NULL_SINK, 0)
        )
        constant = self._constant_fast_path(ref1, ref2)
        if constant is not None:
            self.stats.constant_cases += 1
            if qsink.enabled:
                qsink.emit(ConstantScreen(independent=not constant.dependent))
                self._end_trace(
                    qsink, start, constant.dependent, constant.decided_by, True
                )
            return constant
        scope = self._open_scope()
        try:
            problem = self._build_problem_cached(ref1, nest1, ref2, nest2)
            result = self._analyze_problem(problem, qsink, scope)
        except BudgetExceeded as blown:
            result = self._degraded_result(blown)
        if qsink.enabled:
            self._end_trace(
                qsink, start, result.dependent, result.decided_by, result.exact
            )
        return result

    def analyze_sites(self, site1: AccessSite, site2: AccessSite) -> DependenceResult:
        return self.analyze(site1.ref, site1.nest, site2.ref, site2.nest)

    def directions(
        self,
        ref1: ArrayRef,
        nest1: LoopNest,
        ref2: ArrayRef,
        nest2: LoopNest,
        prune_unused: bool | None = None,
        prune_distance: bool = True,
        dimension_by_dimension: bool = False,
    ) -> DirectionResult:
        """All direction vectors under which the references are dependent.

        ``prune_unused`` defaults to the analyzer's
        ``eliminate_unused`` setting; set both pruning flags False to
        reproduce the unoptimized hierarchical numbers (Table 4).
        ``dimension_by_dimension`` turns on the separable-nest
        optimization where applicable (section 6).
        """
        from repro.core.directions import DirectionOptions

        if prune_unused is None:
            prune_unused = self.eliminate_unused
        options = DirectionOptions(
            prune_unused=prune_unused,
            prune_distance=prune_distance,
            dimension_by_dimension=dimension_by_dimension,
        )
        self.stats.total_queries += 1
        n_common_full = nest1.common_prefix_depth(nest2)
        qsink, start = (
            self._begin_trace("directions", str(ref1), str(ref2), n_common_full)
            if self.sink.enabled
            else (NULL_SINK, 0)
        )

        constant = self._constant_fast_path(ref1, ref2)
        if constant is not None and constant.independent:
            # Unequal constants: no dependence under any direction.
            self.stats.constant_cases += 1
            if qsink.enabled:
                qsink.emit(ConstantScreen(independent=True))
                self._end_trace(
                    qsink, start, False, DECIDED_CONSTANT, True, n_vectors=0
                )
            return DirectionResult(
                vectors=frozenset(), n_common=n_common_full
            )
        if constant is not None:
            # Equal-constant subscripts collide at *every* iteration
            # pair; which directions exist still depends on the bounds
            # (a single-iteration loop only has '='), so fall through to
            # refinement for an exact answer.  The plain analyzer still
            # reports these as constant cases without testing.
            self.stats.constant_cases += 1
            if qsink.enabled:
                qsink.emit(ConstantScreen(independent=False))

        scope = self._open_scope()
        try:
            return self._directions_impl(
                ref1, nest1, ref2, nest2, options, n_common_full, qsink,
                start, scope,
            )
        except BudgetExceeded as blown:
            result = self._degraded_directions(blown, n_common_full)
            if qsink.enabled:
                self._end_trace(
                    qsink,
                    start,
                    True,
                    DEGRADED_BUDGET,
                    False,
                    n_vectors=result.count_elementary(),
                )
            return result

    def _directions_impl(
        self,
        ref1: ArrayRef,
        nest1: LoopNest,
        ref2: ArrayRef,
        nest2: LoopNest,
        options,
        n_common_full: int,
        qsink: TraceSink,
        start: int,
        scope: BudgetScope,
    ) -> DirectionResult:
        """The un-governed body of :meth:`directions` (may raise
        :class:`~repro.robust.budget.BudgetExceeded`)."""
        problem = self._build_problem_cached(ref1, nest1, ref2, nest2)
        work = problem
        surviving = list(range(problem.n_common))
        forced_dropped = None
        if options.prune_unused:
            # The safe-keep analysis and projection are pure in
            # (problem, nest1); repeated queries replay the cached
            # reduced problem (which carries its own key-bytes cache).
            prep_key = ("dirprep", nest1)
            prep = problem._key_cache.get(prep_key)
            if prep is None:
                extra_keep, forced_dropped = self._direction_safe_keep(
                    problem, nest1
                )
                work, surviving = problem.eliminate_unused(extra_keep)
                problem._key_cache[prep_key] = (
                    work,
                    tuple(surviving),
                    forced_dropped,
                )
            else:
                work, surviving_cached, forced_dropped = prep
                surviving = list(surviving_cached)

        memo = self.memoizer
        memo_key = None
        key_source = None
        nb_entry = _MISS
        if memo is not None:
            key_source = work if memo.improved else problem
            nb_entry = self._nb_lookup(key_source, qsink)
            if nb_entry is not _MISS and nb_entry.independent:
                if qsink.enabled:
                    qsink.emit(
                        EgcdResolved(independent=True, reused=True, elapsed_ns=0)
                    )
                    self._end_trace(qsink, start, False, "gcd", True, n_vectors=0)
                return DirectionResult(
                    vectors=frozenset(),
                    n_common=n_common_full,
                    from_memo=True,
                )

        outcome = self._gcd_outcome(work, key_source, nb_entry, qsink)
        if outcome.independent:
            self.stats.gcd_independent += 1
            if qsink.enabled:
                self._end_trace(qsink, start, False, "gcd", True, n_vectors=0)
            return DirectionResult(
                vectors=frozenset(), n_common=n_common_full
            )

        if memo is not None:
            memo_key = intern_key(
                key_source.key_bytes(with_bounds=True)
                + _direction_tail(
                    int(options.prune_unused),
                    int(options.prune_distance),
                    int(options.dimension_by_dimension),
                )
            )
            self.stats.memo_queries_bounds += 1
            hit, cached = memo.with_bounds.lookup(memo_key)
            if qsink.enabled:
                qsink.emit(MemoLookup(table="with_bounds", hit=hit))
            if hit:
                self.stats.memo_hits_bounds += 1
                entry: _CachedDirections = cached
                lifted = self._lift_vectors(
                    entry.vectors_reduced, surviving, n_common_full, forced_dropped
                )
                if qsink.enabled:
                    self._end_trace(
                        qsink,
                        start,
                        bool(lifted),
                        "memo",
                        entry.exact,
                        n_vectors=len(lifted),
                    )
                return DirectionResult(
                    vectors=lifted,
                    n_common=n_common_full,
                    exact=entry.exact,
                    from_memo=True,
                    tests_performed=0,
                )

        from repro.core.directions import refine_directions as _refine

        transformed = outcome.transformed
        assert transformed is not None
        reduced_result = None
        decided_by = "refinement"
        # Refinement runs up to 3^depth cascades: their per-test
        # nanoseconds add up here and reach the stage timers once.
        stage_ns: dict[str, int] = {}
        try:
            if options.dimension_by_dimension:
                from repro.core.separable import is_separable, separable_directions

                if is_separable(work):
                    reduced_result = separable_directions(
                        self, work, qsink, scope, stage_ns
                    )
                    decided_by = "separable"
            if reduced_result is None:
                reduced_result = _refine(
                    self, work, transformed, options, qsink, scope, stage_ns
                )
        finally:
            for name, elapsed_ns in stage_ns.items():
                self.stats.observe_stage_ns(name, elapsed_ns)
        result = DirectionResult(
            vectors=self._lift_vectors(
                reduced_result.vectors, surviving, n_common_full, forced_dropped
            ),
            n_common=n_common_full,
            exact=reduced_result.exact,
            tests_performed=reduced_result.tests_performed,
        )
        self.stats.direction_vectors_found += result.count_elementary()
        if memo is not None and memo_key is not None:
            memo.with_bounds.insert(
                memo_key,
                _CachedDirections(
                    vectors_reduced=reduced_result.vectors,
                    exact=reduced_result.exact,
                    reduced_n_common=reduced_result.n_common,
                ),
            )
        if qsink.enabled:
            self._end_trace(
                qsink,
                start,
                bool(result.vectors),
                decided_by,
                result.exact,
                n_vectors=result.count_elementary(),
            )
        return result

    @staticmethod
    def _lift_vectors(
        vectors_reduced: frozenset[tuple[str, ...]],
        surviving: list[int],
        n_common_full: int,
        forced: dict[int, str] | None = None,
    ) -> frozenset[tuple[str, ...]]:
        from repro.core.directions import lift_vector

        lifted = frozenset(
            lift_vector(vector, surviving, n_common_full)
            for vector in vectors_reduced
        )
        if forced:
            lifted = frozenset(
                tuple(
                    forced.get(level, component)
                    for level, component in enumerate(vector)
                )
                for vector in lifted
            )
        return lifted

    @staticmethod
    def _direction_safe_keep(
        problem: DependenceProblem, nest1: LoopNest
    ) -> tuple[set[int], dict[int, str] | None]:
        """Which variables direction refinement must keep, and the exact
        components for common levels it may still drop.

        Unused-variable elimination is sound for *verdicts*, but the
        direction constraints (``i <= i' - 1`` etc.) couple each common
        level's two variables to each other and, through the bounds, to
        the rest of the system — so a dropped level lifted as ``*`` is
        only exact when (differential fuzzing found each of these):

        * *both* of the level's variables are unused — if either is
          used, the direction constraint links the dropped variable to
          the live system and some directions may be infeasible;
        * the level's loop has constant bounds — bounds referencing an
          outer (dropped) variable shift the level's range between the
          two iterations being compared, which rules out combinations
          across levels (e.g. ``(<, >)`` needs slack the shifted range
          may not have);
        * the loop has at least two iterations — a provably
          single-iteration level only pairs an iteration with itself,
          so its component is forced to ``=`` (still droppable).

        Returns the force-keep variable set (closure over bounds is
        done by ``eliminate_unused``) and the forced component map for
        droppable single-iteration levels.
        """
        used = problem.used_variable_closure()
        keep: set[int] = set()
        forced: dict[int, str] = {}
        for level in range(problem.n_common):
            v1, v2 = level, problem.n1 + level
            if v1 in used or v2 in used:
                keep.update((v1, v2))
                continue
            loop = nest1.loops[level]
            if loop.lower.is_constant and loop.upper.is_constant:
                if loop.upper.constant <= loop.lower.constant:
                    # Single iteration (empty loops are out of contract:
                    # non-empty assumption, section 5).
                    forced[level] = Direction.EQ
            else:
                keep.update((v1, v2))
        return keep, forced or None

    # -- constant fast path ------------------------------------------------------

    @staticmethod
    def _constant_fast_path(
        ref1: ArrayRef, ref2: ArrayRef
    ) -> DependenceResult | None:
        """Decide constant-subscript cases without any dependence test.

        If some dimension compares two unequal constants the references
        are independent; if every dimension compares equal constants
        they always collide.  Mixed cases fall through to the tests.
        """
        all_constant = True
        for sub1, sub2 in zip(ref1.subscripts, ref2.subscripts):
            if sub1.is_constant and sub2.is_constant:
                if sub1.constant != sub2.constant:
                    return DependenceResult(
                        dependent=False, decided_by=DECIDED_CONSTANT
                    )
            else:
                all_constant = False
        if all_constant:
            return DependenceResult(dependent=True, decided_by=DECIDED_CONSTANT)
        return None

    # -- problem-level pipeline ------------------------------------------------------

    def _analyze_problem(
        self,
        problem: DependenceProblem,
        qsink: TraceSink = NULL_SINK,
        scope: BudgetScope = NULL_SCOPE,
    ) -> DependenceResult:
        work = problem
        surviving = list(range(problem.n_common))
        if self.eliminate_unused:
            work, surviving = problem.eliminate_unused()

        # The paper's symmetry optimization (section 5): a problem and
        # its reference-swapped twin share one memo slot.  Canonicalize
        # on the smaller key; distances flip sign when we analyzed (or
        # recall) the swapped orientation.
        memo = self.memoizer
        flipped = False
        if memo is not None and memo.symmetry:
            twin = work.swapped()
            if twin.key_vector(with_bounds=True) < work.key_vector(
                with_bounds=True
            ):
                work = twin
                flipped = True

        # Memo order follows the paper: the no-bounds (GCD) table first —
        # a cached "equalities unsolvable" answers the query outright and
        # the with-bounds table is never consulted for such cases (its
        # totals in Table 2 exclude the GCD-independent population).
        key_source = None
        nb_entry = _MISS
        if memo is not None:
            key_source = work if memo.improved else problem
            nb_entry = self._nb_lookup(key_source, qsink)
            if nb_entry is not _MISS and nb_entry.independent:
                if qsink.enabled:
                    qsink.emit(
                        EgcdResolved(independent=True, reused=True, elapsed_ns=0)
                    )
                return DependenceResult(
                    dependent=False, decided_by="gcd", from_memo=True
                )

        # Resolve the equalities before touching the with-bounds table:
        # GCD-independent cases never consult it (Table 2's with-bounds
        # totals count only the cases that reach the inequality tests).
        outcome = self._gcd_outcome(work, key_source, nb_entry, qsink)
        if outcome.independent:
            self.stats.gcd_independent += 1
            return DependenceResult(dependent=False, decided_by="gcd")

        key_bounds = None
        if memo is not None:
            key_bounds = key_source.key_bytes(with_bounds=True)
            self.stats.memo_queries_bounds += 1
            hit, cached = memo.with_bounds.lookup(key_bounds)
            if qsink.enabled:
                qsink.emit(MemoLookup(table="with_bounds", hit=hit))
            if hit:
                self.stats.memo_hits_bounds += 1
                entry: _CachedVerdict = cached
                return DependenceResult(
                    dependent=entry.dependent,
                    decided_by=entry.decided_by,
                    exact=entry.exact,
                    witness=None,
                    from_memo=True,
                    distance=self._present_distance(
                        entry.distance_reduced, flipped, problem, surviving
                    ),
                )

        transformed = outcome.transformed
        assert transformed is not None
        decision = self._run_cascade(
            transformed.system, record=True, sink=qsink, scope=scope
        )
        verdict = decision.result.verdict
        dependent = verdict in (Verdict.DEPENDENT, Verdict.UNKNOWN)
        distance_reduced = None
        if dependent:
            from repro.core.distances import constant_distances

            distance_reduced = constant_distances(transformed)
        witness = None
        if dependent and self.want_witness and decision.witness_t is not None:
            witness = self._lift_witness(problem, work, transformed, decision)
        result = DependenceResult(
            dependent=dependent,
            decided_by=decision.result.test_name,
            exact=decision.result.exact,
            witness=witness,
            distance=self._present_distance(
                distance_reduced, flipped, problem, surviving
            ),
        )
        if memo is not None and key_bounds is not None:
            memo.with_bounds.insert(
                key_bounds,
                _CachedVerdict(
                    dependent=dependent,
                    decided_by=decision.result.test_name,
                    exact=decision.result.exact,
                    distance_reduced=distance_reduced,
                ),
            )
        return result

    def _present_distance(
        self,
        distance_reduced: tuple[int | None, ...] | None,
        flipped: bool,
        problem: DependenceProblem,
        surviving: list[int],
    ) -> tuple[int | None, ...] | None:
        """Orient and lift a reduced-space distance for this query.

        Cached distances live over the *reduced canonical* problem's
        common levels; each retrieval flips them back if it analyzed the
        swapped orientation and re-embeds them into its own original
        loop nest (dropped unused levels report None).
        """
        if distance_reduced is None:
            return None
        oriented = tuple(
            None if d is None else (-d if flipped else d)
            for d in distance_reduced
        )
        if len(surviving) == problem.n_common and surviving == list(
            range(problem.n_common)
        ):
            return oriented
        return self._lift_distances(problem, surviving, oriented)

    def _nb_lookup(
        self, key_source: DependenceProblem, qsink: TraceSink = NULL_SINK
    ):
        """Consult the no-bounds table; returns the entry or _MISS."""
        memo = self.memoizer
        assert memo is not None
        key = key_source.key_bytes(with_bounds=False)
        self.stats.memo_queries_no_bounds += 1
        hit, cached = memo.no_bounds.lookup(key)
        if qsink.enabled:
            qsink.emit(MemoLookup(table="no_bounds", hit=hit))
        if hit:
            self.stats.memo_hits_no_bounds += 1
            return cached
        return _MISS

    def _gcd_outcome(
        self,
        work: DependenceProblem,
        key_source: DependenceProblem | None,
        nb_entry,
        qsink: TraceSink = NULL_SINK,
    ) -> GcdOutcome:
        """Extended GCD, reusing a cached factorization when available."""
        if nb_entry is not _MISS:
            entry: _GcdCacheEntry = nb_entry
            if entry.independent:
                if qsink.enabled:
                    qsink.emit(
                        EgcdResolved(independent=True, reused=True, elapsed_ns=0)
                    )
                return GcdOutcome(independent=True)
            start = time.perf_counter_ns() if qsink.enabled else 0
            rebuilt = self._rebuild_transform(work, entry)
            if qsink.enabled:
                qsink.emit(
                    EgcdResolved(
                        independent=False,
                        reused=True,
                        elapsed_ns=time.perf_counter_ns() - start,
                    )
                )
            return rebuilt
        start = time.perf_counter_ns() if qsink.enabled else 0
        outcome = gcd_transform(work)
        if qsink.enabled:
            qsink.emit(
                EgcdResolved(
                    independent=outcome.independent,
                    reused=False,
                    elapsed_ns=time.perf_counter_ns() - start,
                )
            )
        memo = self.memoizer
        if memo is not None and key_source is not None:
            key = key_source.key_bytes(with_bounds=False)
            if outcome.independent:
                memo.no_bounds.insert(key, _GcdCacheEntry(independent=True))
            else:
                transformed = outcome.transformed
                assert transformed is not None
                memo.no_bounds.insert(
                    key,
                    _GcdCacheEntry(
                        independent=False,
                        x_offset=transformed.x_offset,
                        x_basis=transformed.x_basis,
                    ),
                )
        return outcome

    @staticmethod
    def _rebuild_transform(
        problem: DependenceProblem, entry: _GcdCacheEntry
    ) -> GcdOutcome:
        """Re-apply a cached factorization to this problem's bounds."""
        assert entry.x_offset is not None and entry.x_basis is not None
        t_names = tuple(f"t{k + 1}" for k in range(len(entry.x_basis)))
        # Bounds transform lazily on cascade entry; a with-bounds memo
        # hit right after this never transforms at all.
        transformed = TransformedSystem(
            t_names=t_names,
            x_offset=entry.x_offset,
            x_basis=entry.x_basis,
            problem=problem,
        )
        return GcdOutcome(independent=False, transformed=transformed)

    # -- the inequality cascade ------------------------------------------------------

    def _run_cascade(
        self,
        system: ConstraintSystem,
        record: bool,
        sink: TraceSink = NULL_SINK,
        scope: BudgetScope = NULL_SCOPE,
        stage_ns: dict[str, int] | None = None,
    ) -> CascadeDecision:
        """Run SVPC -> Acyclic -> Loop Residue -> Fourier-Motzkin.

        Per the paper, the cascade checks applicability cheapest-first
        and applies exactly one test (plus Acyclic's free partial
        simplification of cyclic systems).  Every member speaks the
        same ``run(system, sink) -> TestResult`` protocol; a member
        that cannot decide returns NOT_APPLICABLE, optionally carrying
        a simplified ``residual`` (and the witness-lifting
        ``completion``) the next member takes instead.

        Each stage's wall time goes to the ``time.cascade.<test>``
        timer, or, when ``stage_ns`` is given (a direction-refinement
        sub-query), adds into it for the caller to observe once.
        """
        current = system
        completions = []
        result = None
        for test in self._cascade:
            scope.tick()
            result = test.run(current, sink, scope)
            if stage_ns is None:
                self.stats.observe_stage_ns(test.name, result.elapsed_ns)
            else:
                stage_ns[test.name] = stage_ns.get(test.name, 0) + result.elapsed_ns
            if sink.enabled:
                sink.emit(
                    CascadeStage(
                        stage=test.name,
                        verdict=result.verdict.value,
                        elapsed_ns=result.elapsed_ns,
                    )
                )
            if result.verdict is not Verdict.NOT_APPLICABLE:
                break
            if result.residual is not None:
                current = result.residual
                if result.completion is not None:
                    completions.append(result.completion)
        assert result is not None  # Fourier-Motzkin always answers
        self._record(result, record)
        witness = result.witness
        if witness is not None and completions:
            for completion in reversed(completions):
                witness = completion(witness)
            result = TestResult(result.verdict, result.test_name, witness=witness)
        return CascadeDecision(result, witness)

    def _record(self, result: TestResult, record: bool) -> None:
        if record:
            independent = result.verdict is Verdict.INDEPENDENT
            self.stats.record_decision(result.test_name, independent)

    # -- witness/distance lifting ------------------------------------------

    def _lift_witness(
        self,
        problem: DependenceProblem,
        work: DependenceProblem,
        transformed: TransformedSystem,
        decision: CascadeDecision,
    ) -> tuple[int, ...] | None:
        """Map a t-space witness back to the original x variables.

        When unused-variable elimination dropped variables, extend the
        witness by walking the dropped loop variables in nesting order
        and pinning each to its (evaluated) lower bound; verify against
        the original system and return None on any inconsistency rather
        than a wrong witness.
        """
        x_work = transformed.x_value(decision.witness_t)
        if work is problem:
            return tuple(x_work)
        values: dict[str, int] = dict(zip(work.names, x_work))
        full = []
        for j, name in enumerate(problem.names):
            if name in values:
                full.append(values[name])
                continue
            lower = self._lower_bound_value(problem, j, values)
            values[name] = lower if lower is not None else 0
            full.append(values[name])
        witness = tuple(full)
        if not problem.bounds.evaluate(witness):
            return None
        for coeffs, rhs in problem.equations:
            if sum(c * x for c, x in zip(coeffs, witness)) != rhs:
                return None
        return witness

    @staticmethod
    def _lower_bound_value(
        problem: DependenceProblem, var: int, values: dict[str, int]
    ) -> int | None:
        """Evaluate the variable's lower-bound constraint if possible."""
        for con in problem.bounds.constraints:
            if con.coeffs[var] >= 0:
                continue
            try:
                rest = sum(
                    c * values[problem.names[j]]
                    for j, c in enumerate(con.coeffs)
                    if c != 0 and j != var
                )
            except KeyError:
                continue
            # con: a*var + rest <= b with a < 0  ==>  var >= (b - rest)/a
            a = con.coeffs[var]
            from repro.linalg.gcdext import floor_div

            return -floor_div(con.bound - rest, -a)
        return None

    @staticmethod
    def _lift_distances(
        problem: DependenceProblem,
        surviving: list[int],
        distance: tuple[int | None, ...],
    ) -> tuple[int | None, ...]:
        """Map reduced-problem distances back to original common levels.

        Dropped common levels have no constant distance (any iteration
        difference is possible), so they report None.
        """
        lifted: list[int | None] = [None] * problem.n_common
        for reduced_level, original_level in enumerate(surviving):
            if reduced_level < len(distance):
                lifted[original_level] = distance[reduced_level]
        return tuple(lifted)
