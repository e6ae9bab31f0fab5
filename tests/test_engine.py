"""Tests for the sharded batch analysis engine (core/engine.py).

The load-bearing property is determinism: the engine must produce
bit-identical verdicts, distances and direction vectors to the serial
per-pair driver, for any shard count, on the full synthetic PERFECT
suite.  CI runs this module as the determinism gate.
"""

import pytest

from repro.core.analyzer import DependenceAnalyzer
from repro.core.engine import (
    PairQuery,
    analyze_batch,
    queries_from_program,
    queries_from_suite,
)
from repro.core.memo import Memoizer
from repro.core.parallel import analyze_parallelism
from repro.core.persist import dumps, loads
from repro.ir import builder as B
from repro.ir.program import Program, Statement
from repro.perfect import load_suite


def _suite_queries(scale=0.25):
    """The full 13-program suite; scale shrinks repetition counts only."""
    return queries_from_suite(load_suite(include_symbolic=True, scale=scale))


def _shift_query(var="i", nest=None):
    nest = nest or B.nest((var, 1, 10))
    return PairQuery(
        ref1=B.ref("a", [B.v(var) + 1], write=True),
        nest1=nest,
        ref2=B.ref("a", [B.v(var)]),
        nest2=nest,
    )


@pytest.mark.usefixtures("two_cpus")
class TestDeterminism:
    def test_sharded_matches_serial_on_full_suite(self):
        """Acceptance gate: sharded == serial on every suite query."""
        queries = _suite_queries()
        serial = DependenceAnalyzer(memoizer=Memoizer(), want_witness=False)
        expected = []
        for q in queries:
            result = serial.analyze(q.ref1, q.nest1, q.ref2, q.nest2)
            directions = serial.directions(
                q.ref1, q.nest1, q.ref2, q.nest2
            )
            expected.append((result, directions))

        report = analyze_batch(queries, jobs=2)
        assert len(report.outcomes) == len(queries)
        for (exp_result, exp_directions), outcome in zip(
            expected, report.outcomes
        ):
            assert outcome.result.dependent == exp_result.dependent
            assert outcome.result.decided_by == exp_result.decided_by
            assert outcome.result.exact == exp_result.exact
            assert outcome.result.distance == exp_result.distance
            assert outcome.directions.vectors == exp_directions.vectors
            assert outcome.directions.n_common == exp_directions.n_common

    def test_shard_count_never_changes_answers(self):
        queries = _suite_queries(scale=0.1)
        reports = [
            analyze_batch(queries, jobs=jobs, want_directions=False)
            for jobs in (1, 2, 3)
        ]
        baseline = reports[0]
        for report in reports[1:]:
            for a, b in zip(baseline.outcomes, report.outcomes):
                assert a.result.dependent == b.result.dependent
                assert a.result.decided_by == b.result.decided_by
                assert a.result.distance == b.result.distance


class TestDeduplication:
    def test_structural_and_canonical_dedup(self):
        nest_i = B.nest(("i", 1, 10))
        nest_j = B.nest(("j", 1, 10))
        q_i = _shift_query("i", nest_i)
        q_j = _shift_query("j", nest_j)  # alpha-renamed twin of q_i
        report = analyze_batch([q_i, q_i, q_j], jobs=1)
        assert report.n_queries == 3
        assert report.n_unique_pairs == 2  # q_i twice collapses
        assert report.n_unique_problems == 1  # q_j merges canonically
        assert [o.deduped for o in report.outcomes] == [False, True, True]
        for outcome in report.outcomes:
            assert outcome.result.dependent
            assert outcome.result.distance == (1,)
            assert outcome.directions.vectors == frozenset({("<",)})

    def test_constant_screen_answers_inline(self):
        nest = B.nest(("i", 1, 10))
        q = PairQuery(
            ref1=B.ref("a", [3], write=True),
            nest1=nest,
            ref2=B.ref("a", [4]),
            nest2=nest,
        )
        report = analyze_batch([q], jobs=1)
        assert report.n_screened == 1
        assert report.n_unique_problems == 0
        assert report.outcomes[0].result.independent
        assert report.outcomes[0].directions.vectors == frozenset()
        assert report.stats.constant_cases == 1
        assert sum(report.stats.decided_by.values()) == 0

    def test_empty_batch(self):
        report = analyze_batch([])
        assert report.outcomes == []
        assert report.n_queries == 0


class TestWarmStart:
    def test_warm_run_serves_everything_from_memo(self):
        """The full suite's exact shape and, per job count, the cold
        run's test count and hit rates.  A warm start runs zero
        dependence tests, hits on every probe and answers as cold did."""
        queries = _suite_queries(scale=1.0)
        # jobs -> cold tests run, with-bounds and no-bounds hit rates:
        # each shard starts from an empty memo.
        expected = {1: (126, 0.3883, 0.5157), 2: (165, 0.1990, 0.3049)}
        for jobs, (tests, hit_bounds, hit_no_bounds) in expected.items():
            cold = analyze_batch(queries, jobs=jobs, want_directions=False)
            assert (
                cold.n_queries,
                cold.n_unique_pairs,
                cold.n_unique_problems,
                cold.n_screened,
            ) == (18112, 339, 238, 7664)
            assert sum(cold.stats.decided_by.values()) == tests
            assert round(cold.hit_rate_bounds(), 4) == hit_bounds
            assert round(cold.hit_rate_no_bounds(), 4) == hit_no_bounds
            warm = analyze_batch(
                queries,
                jobs=jobs,
                want_directions=False,
                warm=loads(dumps(cold.memoizer)),
            )
            assert sum(warm.stats.decided_by.values()) == 0
            assert warm.hit_rate_bounds() == warm.hit_rate_no_bounds() == 1.0
            for a, b in zip(cold.outcomes, warm.outcomes):
                assert a.result.dependent == b.result.dependent
                assert a.result.decided_by == b.result.decided_by
                assert a.result.distance == b.result.distance

    def test_warm_accepts_path(self, tmp_path):
        from repro.core.persist import save_memoizer

        queries = [_shift_query()]
        cold = analyze_batch(queries, jobs=1)
        path = tmp_path / "cache.json"
        save_memoizer(cold.memoizer, path)
        warm = analyze_batch(queries, jobs=1, warm=path)
        assert sum(warm.stats.decided_by.values()) == 0

    def test_warm_scheme_mismatch_raises(self):
        with pytest.raises(ValueError):
            analyze_batch([], warm=Memoizer(improved=False))


@pytest.mark.usefixtures("two_cpus")
class TestMergedArtifacts:
    def test_merged_memoizer_covers_every_dispatched_case(self):
        queries = _suite_queries(scale=0.1)
        report = analyze_batch(queries, jobs=3, want_directions=False)
        # Re-running serially against the merged table performs no tests.
        analyzer = DependenceAnalyzer(
            memoizer=loads(dumps(report.memoizer)), want_witness=False
        )
        for q in queries:
            analyzer.analyze(q.ref1, q.nest1, q.ref2, q.nest2)
        assert sum(analyzer.stats.decided_by.values()) == 0

    def test_stats_account_for_every_query(self):
        queries = _suite_queries(scale=0.1)
        report = analyze_batch(queries, jobs=2, want_directions=False)
        # Screened queries + dispatched representatives; dedup means the
        # analyzer sees fewer queries than the batch holds.
        assert report.stats.total_queries == (
            report.n_screened + report.n_unique_problems
        )


class TestParallelismClient:
    def _program(self):
        program = Program("p")
        nest = B.nest(("i", 1, 10), ("j", 1, 10))
        program.add(
            Statement(
                nest=nest,
                write=B.ref("a", [B.v("i"), B.v("j")], write=True),
                reads=(B.ref("a", [B.v("i") - 1, B.v("j")]),),
            )
        )
        program.add(
            Statement(
                nest=nest,
                write=B.ref("b", [B.v("i"), B.v("j")], write=True),
                reads=(B.ref("b", [B.v("i"), B.v("j") - 1]),),
            )
        )
        return program

    def test_engine_path_matches_serial_reports(self):
        program = self._program()
        serial = analyze_parallelism(
            program, DependenceAnalyzer(memoizer=Memoizer())
        )
        engine = analyze_parallelism(program, jobs=2)
        assert [
            (r.loop.var, r.level, r.parallel) for r in serial
        ] == [(r.loop.var, r.level, r.parallel) for r in engine]
        for s, e in zip(serial, engine):
            assert [
                (c1.site_index, c2.site_index) for c1, c2 in s.carriers
            ] == [(c1.site_index, c2.site_index) for c1, c2 in e.carriers]

    def test_jobs_with_explicit_analyzer_raises(self):
        with pytest.raises(ValueError):
            analyze_parallelism(
                self._program(), DependenceAnalyzer(), jobs=2
            )

    def test_queries_from_program_tags_sites(self):
        queries = queries_from_program(self._program())
        assert len(queries) == 2  # one testable pair per array
        for query in queries:
            site1, site2 = query.tag
            assert site1.ref is query.ref1
            assert site2.ref is query.ref2
