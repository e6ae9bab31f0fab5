"""Tests for the memoization tables (paper section 5)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import DependenceAnalyzer
from repro.core.engine import queries_from_suite
from repro.core.memo import Memoizer, MemoTable
from repro.ir import builder as B
from repro.perfect import load_suite


class TestMemoTable:
    def test_miss_then_hit(self):
        table = MemoTable()
        key = (1, 2, 3)
        hit, _ = table.lookup(key)
        assert not hit
        table.insert(key, "value")
        hit, value = table.lookup(key)
        assert hit and value == "value"
        assert table.stats.queries == 2
        assert table.stats.hits == 1
        assert table.stats.inserts == 1

    def test_collisions_resolved_by_full_key(self):
        table = MemoTable()
        table.insert((1,), "a")
        table.insert((2,), "b")
        assert table.lookup((1,)) == (True, "a")
        assert table.lookup((2,)) == (True, "b")
        assert len(table) == 2

    def test_insert_overwrites(self):
        table = MemoTable()
        table.insert((1,), "a")
        table.insert((1,), "b")
        assert table.lookup((1,))[1] == "b"
        assert table.stats.inserts == 1  # same unique case

    def test_update_does_not_count_an_insert(self):
        table = MemoTable()
        for k in range(10):
            table.update((k,), k)
        assert table.stats.inserts == 0
        assert len(table) == 10
        assert table.lookup((3,)) == (True, 3)

    def test_unique_fraction(self):
        table = MemoTable()
        for _ in range(4):
            hit, _ = table.lookup((1,))
            if not hit:
                table.insert((1,), True)
        assert table.stats.unique == 1
        assert table.stats.unique_fraction == 0.25


class TestMemoizerCopy:
    def test_copy_is_independent_with_fresh_stats(self):
        memo = Memoizer(improved=False, symmetry=True)
        memo.with_bounds.insert((1,), "a")
        memo.with_bounds.lookup((1,))
        copy = memo.copy()
        assert (copy.improved, copy.symmetry) == (False, True)
        assert copy.with_bounds.lookup((1,)) == (True, "a")
        assert copy.with_bounds.stats.queries == 1
        copy.with_bounds.insert((2,), "b")
        memo.no_bounds.insert((3,), "c")
        assert len(memo.with_bounds) == 1
        assert len(copy.no_bounds) == 0

    def test_copy_of_a_serve_table_is_plain(self):
        import pickle

        from repro.serve.cache import ServeCache

        cache = ServeCache()
        cache.memoizer.no_bounds.insert((1,), "a")
        copy = cache.memoizer.copy()
        assert type(copy.no_bounds) is MemoTable
        assert pickle.loads(pickle.dumps(copy)).no_bounds.lookup((1,)) == (
            True,
            "a",
        )


class TestSymmetricCanonicalization:
    """The paper's further optimization: a problem and its
    reference-swapped twin (a[i] vs a[i-1] and a[i-1] vs a[i]) occupy a
    single memo slot, with distances re-oriented on retrieval."""

    def _pair(self):
        nest = B.nest(("i", 1, 10))
        fwd = B.ref("a", [B.v("i")], write=True)
        back = B.ref("a", [B.v("i") - 1])
        return fwd, back, nest

    def test_swapped_twins_share_one_slot(self):
        fwd, back, nest = self._pair()
        memo = Memoizer(symmetry=True)
        analyzer = DependenceAnalyzer(memoizer=memo)
        first = analyzer.analyze(fwd, nest, back, nest)
        second = analyzer.analyze(back, nest, fwd, nest)
        assert not first.from_memo
        assert second.from_memo
        assert len(memo.with_bounds) == 1
        assert memo.with_bounds.stats.hits == 1
        # only one actual test ran for both orientations
        assert sum(analyzer.stats.decided_by.values()) == 1

    def test_distances_reverse_on_swapped_retrieval(self):
        fwd, back, nest = self._pair()
        analyzer = DependenceAnalyzer(memoizer=Memoizer(symmetry=True))
        first = analyzer.analyze(fwd, nest, back, nest)
        second = analyzer.analyze(back, nest, fwd, nest)
        # a[i] vs a[i-1]: i = i' - 1, so i' - i == 1; swapped == -1.
        assert first.dependent and second.dependent
        assert first.distance == (1,)
        assert second.distance == (-1,)

    def test_direction_vectors_consistent_across_orientations(self):
        fwd, back, nest = self._pair()
        analyzer = DependenceAnalyzer(memoizer=Memoizer(symmetry=True))
        forward = analyzer.directions(fwd, nest, back, nest)
        backward = analyzer.directions(back, nest, fwd, nest)
        assert forward.vectors == frozenset({("<",)})
        assert backward.vectors == frozenset({(">",)})

    def test_without_symmetry_twins_use_two_slots(self):
        fwd, back, nest = self._pair()
        memo = Memoizer()  # symmetry off (the published default)
        analyzer = DependenceAnalyzer(memoizer=memo)
        analyzer.analyze(fwd, nest, back, nest)
        second = analyzer.analyze(back, nest, fwd, nest)
        assert not second.from_memo
        assert len(memo.with_bounds) == 2


class TestAnalyzerMemoization:
    def _run(self, analyzer, n=10):
        nest = B.nest(("i", 1, n))
        w = B.ref("a", [B.v("i") + 1], write=True)
        r = B.ref("a", [B.v("i")])
        return analyzer.analyze(w, nest, r, nest)

    def test_repeat_query_served_from_memo(self):
        memo = Memoizer()
        analyzer = DependenceAnalyzer(memoizer=memo)
        first = self._run(analyzer)
        second = self._run(analyzer)
        assert not first.from_memo
        assert second.from_memo
        assert first.dependent == second.dependent
        assert second.decided_by == first.decided_by
        # only the first query ran a test
        assert analyzer.stats.decided_by["svpc"] == 1

    def test_a_warm_suite_pass_runs_no_test_and_every_probe_hits(self):
        """A second analyze + directions pass over the same queries adds
        to no test count, and every memo probe it makes hits."""
        queries = queries_from_suite(load_suite(include_symbolic=True, scale=0.1))
        analyzer = DependenceAnalyzer(memoizer=Memoizer(), want_witness=False)
        stats = analyzer.stats

        def run_pass():
            for q in queries:
                analyzer.analyze(q.ref1, q.nest1, q.ref2, q.nest2)
                analyzer.directions(q.ref1, q.nest1, q.ref2, q.nest2)
            tests = (dict(stats.decided_by), dict(stats.direction_tests))
            probes = (
                stats.memo_queries_bounds,
                stats.memo_hits_bounds,
                stats.memo_queries_no_bounds,
                stats.memo_hits_no_bounds,
            )
            return tests, probes

        cold_tests, cold_probes = run_pass()
        warm_tests, warm_probes = run_pass()
        assert warm_tests == cold_tests
        queries_b, hits_b, queries_nb, hits_nb = (
            warm - cold for warm, cold in zip(warm_probes, cold_probes)
        )
        assert queries_b == hits_b > 0
        assert queries_nb == hits_nb > 0

    def test_alpha_renaming_hits(self):
        """a[i+1] vs a[i] in loop i == a[j+1] vs a[j] in loop j."""
        memo = Memoizer()
        analyzer = DependenceAnalyzer(memoizer=memo)
        nest_i = B.nest(("i", 1, 10))
        nest_j = B.nest(("j", 1, 10))
        analyzer.analyze(
            B.ref("a", [B.v("i") + 1], write=True), nest_i,
            B.ref("a", [B.v("i")]), nest_i,
        )
        result = analyzer.analyze(
            B.ref("a", [B.v("j") + 1], write=True), nest_j,
            B.ref("a", [B.v("j")]), nest_j,
        )
        assert result.from_memo

    def test_paper_improved_scheme_unused_loop_merge(self):
        """The paper's (a)/(b) example: two doubly-nested loops whose
        outer/inner index is unused collapse to the same single-loop case."""
        memo = Memoizer(improved=True)
        analyzer = DependenceAnalyzer(memoizer=memo, eliminate_unused=True)
        nest = B.nest(("i", 1, 10), ("j", 1, 10))
        # (a) a[i+10] = a[i] inside i, j loops
        analyzer.analyze(
            B.ref("a", [B.v("i") + 10], write=True), nest,
            B.ref("a", [B.v("i")]), nest,
        )
        # (b) a[j+10] = a[j] inside the same loops
        result_b = analyzer.analyze(
            B.ref("a", [B.v("j") + 10], write=True), nest,
            B.ref("a", [B.v("j")]), nest,
        )
        assert result_b.from_memo  # improved scheme merges them

    def test_simple_scheme_does_not_merge(self):
        memo = Memoizer(improved=False)
        analyzer = DependenceAnalyzer(memoizer=memo, eliminate_unused=False)
        nest = B.nest(("i", 1, 10), ("j", 1, 10))
        analyzer.analyze(
            B.ref("a", [B.v("i") + 10], write=True), nest,
            B.ref("a", [B.v("i")]), nest,
        )
        result_b = analyzer.analyze(
            B.ref("a", [B.v("j") + 10], write=True), nest,
            B.ref("a", [B.v("j")]), nest,
        )
        assert not result_b.from_memo

    def test_simple_keys_reuse_a_factorization_only_for_its_system(self):
        """Under simple keys with unused-variable elimination, a pair's
        plain query drops the unused outer ``j`` while its direction
        query keeps that level: two systems, each with its own GCD
        factorization (reusing the plain one raised IndexError)."""
        nest = B.nest(("i", 2, 14), ("j", 3, 10))
        write = B.ref("a", [B.v("i") + 2], write=True)
        read = B.ref("a", [B.v("i") + B.v("j") + 3])
        expected = DependenceAnalyzer().directions(write, nest, read, nest)
        analyzer = DependenceAnalyzer(memoizer=Memoizer(improved=False))
        assert analyzer.analyze(write, nest, read, nest).dependent
        got = analyzer.directions(write, nest, read, nest)
        assert got.vectors == expected.vectors

    def test_different_bounds_share_gcd_but_not_verdict(self):
        """Matching subscripts with different bounds reuse only the
        no-bounds (GCD) table."""
        memo = Memoizer()
        analyzer = DependenceAnalyzer(memoizer=memo)
        self._run(analyzer, n=10)
        self._run(analyzer, n=20)
        assert memo.no_bounds.stats.hits == 1
        assert memo.with_bounds.stats.hits == 0
        # And the second answer is still correct.
        assert analyzer.stats.decided_by["svpc"] == 2

    @given(
        st.lists(
            st.tuples(
                st.integers(-2, 2),
                st.integers(-5, 5),
                st.integers(1, 6),
            ),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_memoized_equals_unmemoized(self, cases):
        """Memoization never changes any verdict."""
        memoized = DependenceAnalyzer(memoizer=Memoizer())
        plain = DependenceAnalyzer()
        for a, c, n in cases + cases:  # force repeats
            nest = B.nest(("i", 1, n))
            w = B.ref("a", [B.v("i") * a + c], write=True)
            r = B.ref("a", [B.v("i")])
            r_memo = memoized.analyze(w, nest, r, nest)
            r_plain = plain.analyze(w, nest, r, nest)
            assert r_memo.dependent == r_plain.dependent
