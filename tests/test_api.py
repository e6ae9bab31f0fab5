"""Tests for the repro.api facade: sessions, reports, explain, batches.

Also home of the sharded-vs-serial metrics determinism gate: the
counter part of the registry must be bit-identical whatever the shard
count (histograms carry wall times and are excluded by design).
"""

import random
import threading

import pytest

from repro import (
    AnalysisConfig,
    AnalysisSession,
    CollectingSink,
    DependenceReport,
)
from repro.core.engine import analyze_batch, queries_from_suite
from repro.core.memo import Memoizer
from repro.fuzz.edits import mutate, storm_program
from repro.ir import builder as B
from repro.obs.events import DirectionNode, QueryEnd, QueryStart
from repro.perfect import load_suite
from repro.serve.protocol import report_to_wire

NEST = B.nest(("i", 1, 10))


def _shift_pair():
    return (
        B.ref("a", [B.v("i") + 1], write=True),
        B.ref("a", [B.v("i")]),
    )


def _program():
    from repro.ir.program import Program, Statement

    w, r = _shift_pair()
    return Program("p", [Statement(nest=NEST, write=w, reads=(r,))])


class TestSession:
    def test_analyze_returns_unified_report(self):
        w, r = _shift_pair()
        session = AnalysisSession()
        report = session.analyze(w, NEST, r, NEST, want_directions=True)
        assert isinstance(report, DependenceReport)
        assert report.dependent
        assert report.decided_by == "svpc"
        assert report.exact
        assert ("<",) in report.directions
        assert report.elementary_directions() == [("<",)]

    def test_analyze_without_directions(self):
        w, r = _shift_pair()
        report = AnalysisSession().analyze(w, NEST, r, NEST)
        assert report.dependent
        assert report.directions is None
        assert report.elementary_directions() == []

    def test_directions_only_report(self):
        w, r = _shift_pair()
        report = AnalysisSession().directions(w, NEST, r, NEST)
        assert report.dependent
        assert report.decided_by == "directions"
        assert report.n_common == 1

    def test_independent_report(self):
        w = B.ref("a", [B.v("i") * 2], write=True)
        r = B.ref("a", [B.v("i") * 2 + 1])
        report = AnalysisSession().analyze(w, NEST, r, NEST, want_directions=True)
        assert not report.dependent
        assert report.decided_by == "gcd"
        # The documented contract (matching the batch engine):
        # requested directions on an independent pair are empty, and
        # None only when not requested.
        assert report.directions == frozenset()
        assert report.n_common == 1
        plain = AnalysisSession().analyze(w, NEST, r, NEST)
        assert plain.directions is None

    def test_memo_persists_across_queries(self):
        w, r = _shift_pair()
        session = AnalysisSession()
        first = session.analyze(w, NEST, r, NEST)
        second = session.analyze(w, NEST, r, NEST)
        assert not first.from_memo
        assert second.from_memo

    def test_memo_disabled_by_config(self):
        w, r = _shift_pair()
        session = AnalysisSession(AnalysisConfig(memo=False))
        assert session.memoizer is None
        session.analyze(w, NEST, r, NEST)
        assert not session.analyze(w, NEST, r, NEST).from_memo

    def test_registry_accumulates(self):
        w, r = _shift_pair()
        session = AnalysisSession()
        session.analyze(w, NEST, r, NEST)
        session.analyze(w, NEST, r, NEST)
        assert session.registry.get("queries.total") == 2
        assert session.stats.total_queries == 2

    def test_wildcard_expansion(self):
        report = DependenceReport(
            ref1="a",
            ref2="b",
            dependent=True,
            decided_by="directions",
            directions=frozenset({("*",)}),
        )
        assert report.elementary_directions() == [("<",), ("=",), (">",)]


class TestExplain:
    def test_explain_captures_full_trace(self):
        w, r = _shift_pair()
        session = AnalysisSession()
        explained = session.explain(w, NEST, r, NEST)
        assert explained.report.dependent
        kinds = [type(e).__name__ for e in explained.events]
        assert kinds.count("QueryStart") == 2  # analyze + directions
        assert kinds.count("QueryEnd") == 2
        assert any(isinstance(e, DirectionNode) for e in explained.events)
        text = explained.render()
        assert "query[0] analyze" in text
        assert "=> dependent" in text

    def test_explain_restores_configured_sink(self):
        w, r = _shift_pair()
        outer = CollectingSink()
        session = AnalysisSession(AnalysisConfig(sink=outer))
        session.explain(w, NEST, r, NEST, want_directions=False)
        assert session.analyzer.sink is outer
        # forwarded: the outer sink saw the explain events too
        assert any(isinstance(e, QueryEnd) for e in outer.events)

    def test_explain_trace_holds_only_its_query(self, monkeypatch):
        """A query another thread runs on the session while an explain
        is in flight stays out of the explain's trace."""
        import repro.core.analyzer as analyzer_module

        entered, release = threading.Event(), threading.Event()
        build_problem = analyzer_module.build_problem
        calls = []

        def first_call_waits(*query):
            calls.append(query)
            if len(calls) == 1:
                entered.set()
                assert release.wait(10)
            return build_problem(*query)

        monkeypatch.setattr(analyzer_module, "build_problem", first_call_waits)
        session = AnalysisSession()
        w, r = _shift_pair()
        explained = []
        thread = threading.Thread(
            target=lambda: explained.append(
                session.explain(w, NEST, r, NEST, want_directions=False)
            )
        )
        thread.start()
        assert entered.wait(10)
        other = B.ref("a", [B.v("i") + 3])
        session.analyze(w, NEST, other, NEST)
        release.set()
        thread.join(10)
        (result,) = explained
        starts = [e for e in result.events if isinstance(e, QueryStart)]
        assert [(e.ref1, e.ref2) for e in starts] == [(str(w), str(r))]
        assert {e.query_id for e in result.events} == {0}
        # The explain's work counts in the session's statistics.
        assert session.stats.total_queries == 2

    def test_session_sink_receives_events(self):
        w, r = _shift_pair()
        sink = CollectingSink()
        session = AnalysisSession(AnalysisConfig(sink=sink))
        session.analyze(w, NEST, r, NEST)
        starts = [e for e in sink.events if isinstance(e, QueryStart)]
        assert len(starts) == 1 and starts[0].op == "analyze"


class TestAnalyzeProgram:
    def test_program_report_shape(self):
        session = AnalysisSession(AnalysisConfig(jobs=1))
        report = session.analyze_program(_program())
        assert len(report) == 1
        (pair,) = list(report)
        assert pair.dependent and pair.directions
        assert report.dependent_pairs == [pair]
        assert report.summary["queries"] == 1

    def test_batch_folds_back_into_session(self):
        session = AnalysisSession(AnalysisConfig(jobs=1))
        session.analyze_program(_program())
        assert session.stats.total_queries >= 1
        # the batch's memo entries are now the session's: a direct
        # repeat of the same pair hits the memo immediately.
        w, r = _shift_pair()
        assert session.analyze(w, NEST, r, NEST).from_memo


def _wire(pairs) -> list[dict]:
    return [report_to_wire(pair) for pair in pairs]


def _storm():
    return storm_program(seed=3, statements=6, arrays=2)


class TestTheMemoizerOwnsTheKeyingScheme:
    """A session given a memoizer of another keying scheme runs every
    entry point under it: the answers are a default session's, and the
    entries land in that memoizer."""

    SCHEMES = [{"symmetry": True}, {"improved": False}]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=["symmetric", "simple"])
    def test_analyze_program(self, scheme):
        program = _storm()
        expected = AnalysisSession(AnalysisConfig(jobs=1)).analyze_program(program)
        memo = Memoizer(**scheme)
        session = AnalysisSession(AnalysisConfig(jobs=1), memoizer=memo)
        report = session.analyze_program(program)
        assert _wire(report.pairs) == _wire(expected.pairs)
        entries = len(memo.no_bounds) + len(memo.with_bounds)
        assert entries > 0
        assert report.summary["memo_entries"] == entries

    @pytest.mark.parametrize("scheme", SCHEMES, ids=["symmetric", "simple"])
    def test_update(self, scheme):
        program = _storm()
        default = AnalysisSession(AnalysisConfig(jobs=1))
        memo = Memoizer(**scheme)
        session = AnalysisSession(AnalysisConfig(jobs=1), memoizer=memo)
        rng = random.Random(3)
        for _ in range(3):
            report = session.update(program, verify=True)
            default.update(program)
            assert report.requeried_pairs > 0
            assert session.graph.edge_dicts() == default.graph.edge_dicts()
            program, _ = mutate(program, rng, arrays=2)
        assert len(memo.with_bounds) > 0


class TestUpdateReportsToTheSession:
    def test_update_traces_and_counts_like_analyze_program(self):
        """An update's batch emits its trace events to the session's
        sink and adds its queries to the session's statistics, as
        analyze_program does (the first update queries every pair)."""
        program = _storm()
        sink = CollectingSink()
        session = AnalysisSession(AnalysisConfig(sink=sink, jobs=1))
        session.update(program)
        twin_sink = CollectingSink()
        twin = AnalysisSession(
            AnalysisConfig(sink=twin_sink, jobs=1, want_witness=False)
        )
        twin.analyze_program(program)
        starts = [e for e in sink.events if isinstance(e, QueryStart)]
        assert len(starts) == session.stats.total_queries > 0
        assert len(sink.events) == len(twin_sink.events)
        assert (
            session.registry.counter_snapshot()
            == twin.registry.counter_snapshot()
        )


@pytest.mark.usefixtures("two_cpus")
class TestShardedMetricsDeterminism:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_counter_snapshot_reproducible_per_sharding(self, jobs):
        # Memo hit counts legitimately differ *between* shard counts
        # (each worker owns its table), but for a fixed sharding the
        # merged counters must be bit-identical run to run.
        queries = queries_from_suite(
            load_suite(include_symbolic=False, scale=0.1)
        )
        first = analyze_batch(queries, jobs=jobs)
        second = analyze_batch(queries, jobs=jobs)
        assert (
            first.stats.registry.counter_snapshot()
            == second.stats.registry.counter_snapshot()
        )

    def test_memo_independent_counters_match_across_shardings(self):
        queries = queries_from_suite(
            load_suite(include_symbolic=False, scale=0.1)
        )
        serial = analyze_batch(queries, jobs=1).stats
        sharded = analyze_batch(queries, jobs=3).stats
        assert serial.total_queries == sharded.total_queries
        assert serial.constant_cases == sharded.constant_cases
        assert (
            serial.memo_queries_no_bounds == sharded.memo_queries_no_bounds
        )

    def test_merged_trace_identical_across_shardings(self):
        queries = queries_from_suite(
            load_suite(include_symbolic=False, scale=0.05)
        )
        runs = []
        for jobs in (1, 2):
            sink = CollectingSink()
            analyze_batch(queries, jobs=jobs, sink=sink)
            runs.append(
                [
                    (type(e).__name__, e.query_id)
                    for e in sink.events
                    if isinstance(e, (QueryStart, QueryEnd))
                ]
            )
        assert runs[0] == runs[1]

    def test_trace_query_ids_are_dense_and_unique(self):
        queries = queries_from_suite(
            load_suite(include_symbolic=False, scale=0.05)
        )
        sink = CollectingSink()
        analyze_batch(queries, jobs=2, sink=sink)
        starts = [e for e in sink.events if isinstance(e, QueryStart)]
        ids = [e.query_id for e in starts]
        assert len(ids) == len(set(ids))
        assert sorted(ids) == list(range(len(ids)))
