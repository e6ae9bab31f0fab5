"""Direction/distance vector tests against the enumeration oracle."""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import DependenceAnalyzer
from repro.core.directions import _RefineState
from repro.ir import builder as B
from repro.oracle.enumerate import (
    oracle_direction_vectors,
    oracle_distance_set,
)

coef = st.integers(min_value=-2, max_value=2)
shift = st.integers(min_value=-6, max_value=6)
bound = st.integers(min_value=1, max_value=7)


class TestPaperExamples:
    def test_forward_dependence(self):
        # a[i+1] = a[i]: dependent only with direction '<'.
        nest = B.nest(("i", 1, 10))
        w = B.ref("a", [B.v("i") + 1], write=True)
        r = B.ref("a", [B.v("i")])
        result = DependenceAnalyzer().directions(w, nest, r, nest)
        assert result.elementary_vectors() == {("<",)}

    def test_loop_independent_dependence(self):
        # a[i] = a[i]: only '='.
        nest = B.nest(("i", 1, 10))
        w = B.ref("a", [B.v("i")], write=True)
        r = B.ref("a", [B.v("i")])
        result = DependenceAnalyzer().directions(w, nest, r, nest)
        assert result.elementary_vectors() == {("=",)}

    def test_paper_section6_multi_vector(self):
        # The paper's two-vector example: a[i][j] = a[2i][j] for
        # i, j in 0..10.  Collisions need i = 2i', so i > i' whenever
        # i' >= 1 and i = i' at 0: directions (>, =) and (=, =).
        nest = B.nest(("i", 0, 10), ("j", 0, 10))
        w = B.ref("a", [B.v("i"), B.v("j")], write=True)
        r = B.ref("a", [B.v("i") * 2, B.v("j")])
        result = DependenceAnalyzer().directions(w, nest, r, nest)
        truth = oracle_direction_vectors(w, nest, r, nest)
        assert result.elementary_vectors() == truth
        assert (">", "=") in truth  # i=2 writes a[2][j], i'=1 reads it
        assert ("=", "=") in truth  # i = i' = 0

    def test_unused_variable_star(self):
        # Paper section 6: for i, for j: a[i] = a[j+1] -- direction for
        # the *inner* loop is computed, the outer unused one... here j
        # is used; make i the unused one instead: a[j] = a[j+1].
        nest = B.nest(("i", 1, 10), ("j", 1, 10))
        w = B.ref("a", [B.v("j")], write=True)
        r = B.ref("a", [B.v("j") + 1])
        result = DependenceAnalyzer().directions(w, nest, r, nest)
        assert all(vec[0] == "*" for vec in result.vectors)
        truth = oracle_direction_vectors(w, nest, r, nest)
        assert result.elementary_vectors() == truth

    def test_distance_example(self):
        # a[i] = a[i-3]: distance 3 (i' - i = ... write i, read i' with
        # i = i' - 3, so i' = i + 3, distance +3, direction '<').
        nest = B.nest(("i", 0, 10))
        w = B.ref("a", [B.v("i")], write=True)
        r = B.ref("a", [B.v("i") - 3])
        analyzer = DependenceAnalyzer()
        result = analyzer.analyze(w, nest, r, nest)
        assert result.dependent
        assert result.distance == (3,)
        truth = oracle_distance_set(w, nest, r, nest)
        assert truth == {(3,)}

    def test_bounds_only_constant_distance_not_claimed(self):
        # Paper: a[10i+j] vs a[10(i+2)+j] has distance (2, 0) only
        # because of the bounds; the GCD method must NOT claim a wrong
        # constant, it reports None (unknown) for such levels.
        nest = B.nest(("i", 1, 8), ("j", 1, 10))
        w = B.ref("a", [B.v("i") * 10 + B.v("j")], write=True)
        r = B.ref("a", [(B.v("i") + 2) * 10 + B.v("j")])
        analyzer = DependenceAnalyzer()
        result = analyzer.analyze(w, nest, r, nest)
        assert result.dependent
        # distances may be None (unknown) but never a wrong constant;
        # with d = i' - i and the write at the *larger* i, d = -2 here.
        truth = oracle_distance_set(w, nest, r, nest)
        assert truth == {(-2, 0)}
        for level, d in enumerate(result.distance):
            if d is not None:
                assert all(vec[level] == d for vec in truth)


class TestImplicitBranchAndBound:
    def test_real_but_not_integer_solution(self):
        # 2i' = 2i + 1 within bounds: GCD settles this one; build a case
        # where only direction refinement can: a[2i] vs a[i+n] with n
        # symbolic is still decidable... use the paper's description --
        # real dependence with distance in (0, 1).  3i' = 3i + 1 is GCD-
        # independent; instead craft 2i' = i + i' + 1, i.e. i' = i + 1
        # -- integral. Hard to hit without FM; covered in FM tests.
        # Here verify refinement returns empty vectors for an
        # integer-infeasible but real-feasible *bounded* system.
        nest = B.nest(("i", 1, 10))
        w = B.ref("a", [B.v("i") * 2], write=True)
        r = B.ref("a", [B.v("i") * 2 + 1])
        result = DependenceAnalyzer().directions(w, nest, r, nest)
        assert result.independent
        assert result.vectors == frozenset()


class TestAgainstOracle:
    @given(coef, shift, coef, shift, bound)
    @settings(max_examples=250, deadline=None)
    def test_1d_direction_sets_exact(self, a1, c1, a2, c2, n):
        """Unpruned refinement is exact down to elementary vectors."""
        nest = B.nest(("i", 1, n))
        ref1 = B.ref("a", [B.v("i") * a1 + c1], write=True)
        ref2 = B.ref("a", [B.v("i") * a2 + c2])
        analyzer = DependenceAnalyzer(eliminate_unused=False)
        result = analyzer.directions(
            ref1, nest, ref2, nest, prune_unused=False, prune_distance=False
        )
        truth = oracle_direction_vectors(ref1, nest, ref2, nest)
        assert result.elementary_vectors() == truth

    @given(coef, coef, shift, coef, coef, shift, st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_2d_direction_sets_exact(self, a, b, c, d, e, f, n):
        nest = B.nest(("i", 1, n), ("j", 1, n))
        ref1 = B.ref("a", [B.v("i") * a + B.v("j") * b + c], write=True)
        ref2 = B.ref("a", [B.v("i") * d + B.v("j") * e + f])
        analyzer = DependenceAnalyzer(eliminate_unused=False)
        result = analyzer.directions(
            ref1, nest, ref2, nest, prune_unused=False, prune_distance=False
        )
        truth = oracle_direction_vectors(ref1, nest, ref2, nest)
        assert result.elementary_vectors() == truth

    @given(coef, coef, shift, coef, coef, shift, st.integers(2, 5))
    @settings(max_examples=200, deadline=None)
    def test_2d_pruned_exact_for_real_loops(self, a, b, c, d, e, f, n):
        """With >= 2 iterations per loop the pruned answers are exact too."""
        nest = B.nest(("i", 1, n), ("j", 1, n))
        ref1 = B.ref("a", [B.v("i") * a + B.v("j") * b + c], write=True)
        ref2 = B.ref("a", [B.v("i") * d + B.v("j") * e + f])
        analyzer = DependenceAnalyzer()
        result = analyzer.directions(ref1, nest, ref2, nest)
        truth = oracle_direction_vectors(ref1, nest, ref2, nest)
        if any("*" in vec for vec in result.vectors):
            # '*' on an unused level summarizes all directions; exact
            # whenever that loop runs more than one iteration, which the
            # n >= 2 bound guarantees only when the level is genuinely
            # unused -- so the expansion must be a superset and agree on
            # the dependent/independent verdict.
            assert result.elementary_vectors() >= truth
            assert result.dependent == bool(truth)
        else:
            assert result.elementary_vectors() == truth

    @given(coef, shift, coef, shift, st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_rank2_one_equation_per_level_exact(self, a, c1, b, c2, n):
        """a[a*i + c1][b*j + c2] vs a[i][j]: each subscript equation
        touches one level, so the levels are independent problems."""
        nest = B.nest(("i", 1, n), ("j", 1, n))
        ref1 = B.ref("a", [B.v("i") * a + c1, B.v("j") * b + c2], write=True)
        ref2 = B.ref("a", [B.v("i"), B.v("j")])
        result = DependenceAnalyzer().directions(
            ref1, nest, ref2, nest, prune_unused=False, prune_distance=False
        )
        truth = oracle_direction_vectors(ref1, nest, ref2, nest)
        assert result.elementary_vectors() == truth

    def test_shift_in_one_level_of_two(self):
        # a[i+1][j] = a[i][j]: the outer level carries it, the inner
        # level only pairs equal iterations.
        nest = B.nest(("i", 1, 10), ("j", 1, 10))
        ref1 = B.ref("a", [B.v("i") + 1, B.v("j")], write=True)
        ref2 = B.ref("a", [B.v("i"), B.v("j")])
        result = DependenceAnalyzer().directions(ref1, nest, ref2, nest)
        truth = oracle_direction_vectors(ref1, nest, ref2, nest)
        assert result.elementary_vectors() == truth == {("<", "=")}

    def test_single_iteration_level_in_no_subscript_is_equal(self):
        # j appears in no subscript and runs once: only '=' is feasible
        # at its level, unpruned as well as pruned.
        nest = B.nest(("i", 1, 10), ("j", 1, 1))
        ref1 = B.ref("a", [B.v("i") + 1], write=True)
        ref2 = B.ref("a", [B.v("i")])
        truth = oracle_direction_vectors(ref1, nest, ref2, nest)
        assert truth == {("<", "=")}
        unpruned = DependenceAnalyzer(eliminate_unused=False).directions(
            ref1, nest, ref2, nest, prune_unused=False, prune_distance=False
        )
        assert unpruned.elementary_vectors() == truth
        pruned = DependenceAnalyzer().directions(ref1, nest, ref2, nest)
        assert pruned.elementary_vectors() == truth

    @given(coef, shift, coef, shift, st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_pruning_does_not_change_verdicts(self, a1, c1, a2, c2, n):
        """Tables 4 and 5 must agree on dependence; only costs differ."""
        nest = B.nest(("i", 1, n), ("j", 1, n))
        ref1 = B.ref("a", [B.v("i") * a1 + c1], write=True)
        ref2 = B.ref("a", [B.v("i") * a2 + B.v("j") * 0 + c2])
        naive = DependenceAnalyzer(eliminate_unused=False)
        pruned = DependenceAnalyzer()
        r_naive = naive.directions(
            ref1, nest, ref2, nest, prune_unused=False, prune_distance=False
        )
        r_pruned = pruned.directions(
            ref1, nest, ref2, nest, prune_unused=True, prune_distance=True
        )
        assert r_naive.dependent == r_pruned.dependent
        # Pruned vectors over-approximate only through '*' components.
        assert r_pruned.elementary_vectors() >= r_naive.elementary_vectors()
        assert r_pruned.tests_performed <= r_naive.tests_performed


class TestDistancesAgainstOracle:
    @given(shift, st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_constant_shift_distance(self, c, n):
        nest = B.nest(("i", 1, n))
        ref1 = B.ref("a", [B.v("i") + c], write=True)
        ref2 = B.ref("a", [B.v("i")])
        analyzer = DependenceAnalyzer()
        result = analyzer.analyze(ref1, nest, ref2, nest)
        truth = oracle_distance_set(ref1, nest, ref2, nest)
        if result.dependent and truth:
            assert result.distance is not None
            (d,) = result.distance
            assert truth == {(d,)}


class TestRefinementState:
    def test_refinement_frees_its_state_on_return(self):
        # A refinement's state (its rewritten level rows among it) is
        # freed by reference counting when it returns; cyclic garbage
        # would pile up between collections and raise peak memory.
        nest = B.nest(("i", 0, 10), ("j", 0, 10))
        w = B.ref("a", [B.v("i"), B.v("j")], write=True)
        r = B.ref("a", [B.v("i") * 2, B.v("j")])
        analyzer = DependenceAnalyzer()
        gc.collect()
        gc.disable()
        try:
            analyzer.directions(w, nest, r, nest)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [
                obj for obj in gc.garbage if isinstance(obj, _RefineState)
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not leaked
