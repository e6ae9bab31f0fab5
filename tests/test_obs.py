"""Tests for the observability layer: events, sinks, metrics registry.

Covers the serialized forms (event dicts, JSONL, registry dicts), the
shard-merge determinism of event streams and counters, the golden
per-stage decision traces, and the deprecation shims around the old
cascade entry points.
"""

import io
import warnings

import pytest

from repro.core.analyzer import DependenceAnalyzer
from repro.core.engine import analyze_batch
from repro.core.memo import Memoizer
from repro.core.stats import TEST_ORDER, AnalyzerStats
from repro.deptests.base import Verdict
from repro.deptests.fourier_motzkin import FourierMotzkinTest
from repro.deptests.svpc import SvpcTest
from repro.ir import builder as B
from repro.obs.events import (
    EVENT_KINDS,
    CascadeStage,
    DirectionNode,
    EgcdResolved,
    FmBranch,
    FmSample,
    MemoLookup,
    QueryEnd,
    QueryStart,
    event_from_dict,
    event_to_dict,
    read_jsonl,
    write_jsonl,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.render import format_trace
from repro.obs.sinks import (
    NULL_SINK,
    CollectingSink,
    QueryScopedSink,
    StreamingSink,
    merge_event_streams,
)
from repro.perfect import load_suite
from repro.system.constraints import ConstraintSystem

NEST = B.nest(("i", 1, 10))


def _collect(analyzer_call):
    """Run one analyzer call with a collecting sink; return its events."""
    sink = CollectingSink()
    analyzer = DependenceAnalyzer(memoizer=Memoizer(), sink=sink)
    analyzer_call(analyzer)
    return sink.events


class TestEventSerialization:
    SAMPLES = [
        QueryStart(op="analyze", ref1="a[i]", ref2="a[i+1]", n_common=1),
        QueryStart(op="directions", ref1="x", ref2="y", n_common=2, query_id=7),
        MemoLookup(table="no_bounds", hit=True, query_id=0),
        EgcdResolved(independent=False, reused=True, elapsed_ns=123),
        CascadeStage(stage="svpc", verdict="dependent", elapsed_ns=5),
        FmBranch(var=1, depth=2, split_floor=3, budget_left=250),
        FmSample(var=0, outcome="integer_picked", value=-4),
        FmSample(var=2, outcome="empty_constant_range"),
        FmSample(var=1, outcome="witness_reused", value=3),
        DirectionNode(vector=("<", "*"), action="tested", verdict="independent"),
        QueryEnd(dependent=True, decided_by="svpc", exact=True, elapsed_ns=9),
    ]

    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: type(e).__name__)
    def test_dict_round_trip(self, event):
        assert event_from_dict(event_to_dict(event)) == event

    def test_jsonl_round_trip(self):
        buffer = io.StringIO()
        count = write_jsonl(self.SAMPLES, buffer)
        assert count == len(self.SAMPLES)
        buffer.seek(0)
        assert list(read_jsonl(buffer)) == self.SAMPLES

    def test_direction_vector_survives_as_tuple(self):
        event = DirectionNode(vector=("<", "=", ">"), action="forced")
        restored = event_from_dict(event_to_dict(event))
        assert restored.vector == ("<", "=", ">")
        assert isinstance(restored.vector, tuple)


class TestSinks:
    def test_null_sink_is_disabled(self):
        assert NULL_SINK.enabled is False

    def test_collecting_sink_groups_by_query(self):
        sink = CollectingSink()
        sink.emit(MemoLookup(table="no_bounds", hit=False, query_id=0))
        sink.emit(MemoLookup(table="no_bounds", hit=True, query_id=1))
        sink.emit(MemoLookup(table="with_bounds", hit=False, query_id=0))
        grouped = sink.by_query()
        assert [e.table for e in grouped[0]] == ["no_bounds", "with_bounds"]
        assert [e.hit for e in grouped[1]] == [True]

    def test_streaming_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with StreamingSink(path) as sink:
            sink.emit(QueryStart(op="analyze", ref1="a", ref2="b", n_common=0))
            sink.emit(
                QueryEnd(
                    dependent=False, decided_by="gcd", exact=True, elapsed_ns=1
                )
            )
        events = list(read_jsonl(path))
        assert sink.emitted == 2
        assert [type(e).__name__ for e in events] == ["QueryStart", "QueryEnd"]

    def test_query_scoped_sink_stamps_id(self):
        inner = CollectingSink()
        scoped = QueryScopedSink(inner, query_id=42)
        scoped.emit(MemoLookup(table="no_bounds", hit=False))
        assert inner.events[0].query_id == 42

    def test_merge_event_streams_renumbers_deterministically(self):
        def stream(ids):
            return [
                MemoLookup(table="no_bounds", hit=False, query_id=q)
                for q in ids
            ]

        merged = merge_event_streams([stream([0, 1, 0]), stream([0, 5])])
        assert [e.query_id for e in merged] == [0, 1, 0, 2, 3]
        again = merge_event_streams([stream([0, 1, 0]), stream([0, 5])])
        assert [e.query_id for e in again] == [e.query_id for e in merged]

    def test_merge_preserves_none_ids(self):
        merged = merge_event_streams(
            [[MemoLookup(table="no_bounds", hit=False, query_id=None)]]
        )
        assert merged[0].query_id is None


class TestMetricsRegistry:
    def test_counters_families_histograms(self):
        reg = MetricsRegistry()
        reg.inc("queries.total")
        reg.inc("queries.total", 2)
        reg.family("tests.decided_by")["svpc"] += 3
        reg.observe("time.cascade.svpc", 100)
        reg.observe("time.cascade.svpc", 300)
        assert reg.get("queries.total") == 3
        assert reg.family("tests.decided_by")["svpc"] == 3
        hist = reg.histogram("time.cascade.svpc")
        assert hist.count == 2 and hist.total == 400
        assert hist.mean == 200.0
        assert (hist.min, hist.max) == (100, 300)

    def test_timer_context_manager_observes(self):
        reg = MetricsRegistry()
        with reg.timer("time.x"):
            pass
        assert reg.histogram("time.x").count == 1

    def test_merge_keeps_every_key(self):
        a = MetricsRegistry()
        a.inc("only.a")
        a.family("fam")["x"] += 1
        a.observe("hist.a", 5)
        b = MetricsRegistry()
        b.inc("only.b", 4)
        b.family("fam")["y"] += 2
        b.observe("hist.a", 7)
        a.merge(b)
        snap = a.counter_snapshot()
        assert snap["scalars"]["only.a"] == 1
        assert snap["scalars"]["only.b"] == 4
        assert snap["families"]["fam"] == {"x": 1, "y": 2}
        merged_hist = a.histogram("hist.a")
        assert merged_hist.count == 2 and merged_hist.total == 12

    def test_counter_snapshot_excludes_histograms(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("time.wall", 999)
        snap = reg.counter_snapshot()
        assert snap == {"scalars": {"c": 1}, "families": {}}

    def test_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("scalar", 5)
        reg.family("fam")[("svpc", "dependent")] += 2
        reg.observe("hist", 3)
        restored = MetricsRegistry.from_dict(reg.to_dict())
        assert restored == reg
        assert restored.family("fam")[("svpc", "dependent")] == 2

    def test_histogram_merge_and_round_trip(self):
        a = Histogram()
        a.observe(1)
        a.observe(9)
        b = Histogram.from_dict(a.to_dict())
        assert b == a
        b.merge(a)
        assert b.count == 4 and b.min == 1 and b.max == 9

    def test_render_mentions_counters_and_timers(self):
        reg = MetricsRegistry()
        reg.inc("queries.total", 7)
        reg.observe("time.cascade.svpc", 1000)
        text = reg.render()
        assert "queries.total" in text
        assert "time.cascade.svpc" in text


class TestAnalyzerStatsView:
    def test_stats_is_a_view_over_the_registry(self):
        stats = AnalyzerStats()
        stats.total_queries += 2
        stats.decided_by["svpc"] += 1
        assert stats.registry.get("queries.total") == 2
        assert stats.registry.family("tests.decided_by")["svpc"] == 1

    def test_merged_keeps_unknown_counter_keys(self):
        # The old implementation dropped any decided_by/direction keys
        # outside TEST_ORDER on merge; the registry must keep them all.
        a = AnalyzerStats()
        a.decided_by["svpc"] += 1
        a.decided_by["future_test"] += 5
        b = AnalyzerStats()
        b.decided_by["future_test"] += 2
        b.direction_tests["another"] += 3
        merged = AnalyzerStats.merged([a, b])
        assert merged.decided_by["svpc"] == 1
        assert merged.decided_by["future_test"] == 7
        assert merged.direction_tests["another"] == 3

    def test_counts_order_known_tests_first(self):
        stats = AnalyzerStats()
        stats.decided_by["zzz_extra"] += 1
        stats.decided_by["svpc"] += 1
        keys = list(stats.test_counts())
        assert keys[: len(TEST_ORDER)] == list(TEST_ORDER)
        assert keys[-1] == "zzz_extra"

    def test_observe_stage_ns_lands_in_registry(self):
        stats = AnalyzerStats()
        stats.observe_stage_ns("svpc", 500)
        assert stats.registry.histogram("time.cascade.svpc").count == 1

    def test_stats_pickles(self):
        import pickle

        stats = AnalyzerStats()
        stats.total_queries += 3
        stats.outcomes[("svpc", "dependent")] += 1
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats


class TestGoldenTraces:
    """Each cascade bucket leaves its exact expected event trail."""

    def _kinds(self, events):
        return [type(e).__name__ for e in events]

    def test_constant_screen_trace(self):
        w = B.ref("a", [B.c(1)], write=True)
        r = B.ref("a", [B.c(2)])
        events = _collect(lambda a: a.analyze(w, NEST, r, NEST))
        assert self._kinds(events) == [
            "QueryStart",
            "ConstantScreen",
            "QueryEnd",
        ]
        assert events[1].independent is True
        assert events[2].decided_by == "constant"
        assert events[2].dependent is False

    def test_gcd_independent_trace(self):
        w = B.ref("a", [B.v("i") * 2], write=True)
        r = B.ref("a", [B.v("i") * 2 + 1])
        events = _collect(lambda a: a.analyze(w, NEST, r, NEST))
        assert self._kinds(events) == [
            "QueryStart",
            "MemoLookup",
            "EgcdResolved",
            "QueryEnd",
        ]
        assert events[1].table == "no_bounds" and events[1].hit is False
        assert events[2].independent is True and events[2].reused is False
        assert events[3].decided_by == "gcd"

    def test_svpc_decided_trace(self):
        w = B.ref("a", [B.v("i") + 1], write=True)
        r = B.ref("a", [B.v("i")])
        events = _collect(lambda a: a.analyze(w, NEST, r, NEST))
        assert self._kinds(events) == [
            "QueryStart",
            "MemoLookup",
            "EgcdResolved",
            "MemoLookup",
            "CascadeStage",
            "QueryEnd",
        ]
        assert events[3].table == "with_bounds" and events[3].hit is False
        assert events[4].stage == "svpc"
        assert events[4].verdict == "dependent"
        assert events[5].decided_by == "svpc"
        assert events[5].exact is True

    def test_memo_reuse_trace(self):
        w = B.ref("a", [B.v("i") + 1], write=True)
        r = B.ref("a", [B.v("i")])
        sink = CollectingSink()
        analyzer = DependenceAnalyzer(memoizer=Memoizer(), sink=sink)
        analyzer.analyze(w, NEST, r, NEST)
        sink.clear()
        analyzer.analyze(w, NEST, r, NEST)
        kinds = self._kinds(sink.events)
        assert kinds[0] == "QueryStart" and kinds[-1] == "QueryEnd"
        hits = [e for e in sink.events if isinstance(e, MemoLookup) and e.hit]
        assert hits, "second identical query must hit a memo table"
        assert "CascadeStage" not in kinds  # no test re-ran

    def test_direction_trace_has_nodes_and_vector_count(self):
        w = B.ref("a", [B.v("i") + 1], write=True)
        r = B.ref("a", [B.v("i")])
        events = _collect(lambda a: a.directions(w, NEST, r, NEST))
        start, end = events[0], events[-1]
        assert start.op == "directions"
        assert end.n_vectors == 1
        nodes = [e for e in events if isinstance(e, DirectionNode)]
        assert nodes, "refinement must emit DirectionNode events"
        assert all(e.query_id == start.query_id for e in events)

    def test_fm_branch_trace(self):
        # 2*t0 = t1, t1 = 1: real-feasible, integer-infeasible; needs a
        # genuine branch, so FmBranch events must appear.
        system = ConstraintSystem(("t0", "t1"))
        system.add([2, -1], 0)
        system.add([-2, 1], 0)
        system.add([0, -1], -1)
        system.add([0, 1], 1)
        sink = CollectingSink()
        result = FourierMotzkinTest().run(system, sink)
        assert result.verdict is Verdict.INDEPENDENT
        branches = [e for e in sink.events if isinstance(e, FmBranch)]
        assert branches
        assert all(b.budget_left >= 0 for b in branches)

    def test_fm_sample_trace_on_feasible_system(self):
        system = ConstraintSystem(("t0", "t1"))
        system.add([1, 1], 10)
        system.add([-1, 0], 0)
        system.add([0, -1], 0)
        sink = CollectingSink()
        result = FourierMotzkinTest().run(system, sink)
        assert result.verdict is Verdict.DEPENDENT
        samples = [e for e in sink.events if isinstance(e, FmSample)]
        picked = [e for e in samples if e.outcome == "integer_picked"]
        assert len(picked) == system.n_vars

    def test_stage_timers_populated(self):
        w = B.ref("a", [B.v("i") + 1], write=True)
        r = B.ref("a", [B.v("i")])
        analyzer = DependenceAnalyzer(memoizer=Memoizer())
        analyzer.analyze(w, NEST, r, NEST)
        hist = analyzer.stats.registry.histogram("time.cascade.svpc")
        assert hist.count == 1 and hist.total > 0

    def test_direction_refinement_reaches_stage_timers(self):
        # No sink: refinement sub-queries still add their cascade time.
        w = B.ref("a", [B.v("i") + 1], write=True)
        r = B.ref("a", [B.v("i")])
        analyzer = DependenceAnalyzer(memoizer=Memoizer())
        registry = analyzer.stats.registry

        def cascade_total():
            return sum(
                registry.histogram(f"time.cascade.{name}").total
                for name in TEST_ORDER
            )

        before = cascade_total()
        result = analyzer.directions(w, NEST, r, NEST)
        assert result.vectors and result.tests_performed > 0
        assert cascade_total() > before
        assert registry.histogram("time.cascade.svpc").count == 1

    def test_null_sink_collects_nothing(self):
        w = B.ref("a", [B.v("i") + 1], write=True)
        r = B.ref("a", [B.v("i")])
        analyzer = DependenceAnalyzer(memoizer=Memoizer())  # default sink
        result = analyzer.analyze(w, NEST, r, NEST)
        assert result.dependent
        assert analyzer.sink is None or not analyzer.sink.enabled

    def test_null_sink_builds_no_event(self, monkeypatch):
        """Tracing is pay-for-what-you-use: under the default sink, a
        suite's plain queries, direction queries and batch build no
        event of any kind."""
        built = []
        for cls in EVENT_KINDS.values():

            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(self.kind)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        assert QueryStart(op="analyze", ref1="a", ref2="b", n_common=0)
        assert built == ["query_start"]
        built.clear()

        queries = [
            query
            for program in load_suite(include_symbolic=False, scale=0.25)
            for query in program.queries
        ]
        analyzer = DependenceAnalyzer(memoizer=Memoizer(), want_witness=False)
        for q in queries:
            analyzer.analyze(q.ref1, q.nest1, q.ref2, q.nest2)
            analyzer.directions(q.ref1, q.nest1, q.ref2, q.nest2)
        analyze_batch(queries, jobs=1)
        assert analyzer.stats.total_queries == 2 * len(queries)
        assert built == []

    def test_render_tells_each_fm_sample_outcome_apart(self):
        text = format_trace(
            [
                FmSample(var=0, outcome="integer_picked", value=-4),
                FmSample(var=1, outcome="witness_reused", value=3),
                FmSample(var=2, outcome="empty_constant_range"),
                FmSample(var=3, outcome="from_a_later_version"),
            ]
        )
        assert text.splitlines() == [
            "    fm sample: t0 = -4",
            "    fm witness reused: t1 = 3 (no elimination)",
            "    fm sample: t2 range empty of integers (exact independence)",
            "  FmSample(var=3, outcome='from_a_later_version', value=None, "
            "query_id=None)",
        ]

    def test_explain_shows_a_reused_witness_as_dependence(self):
        """A refinement child answered from its parent's witness reads
        as a reused point, never as an independence proof."""
        from repro.api import AnalysisSession
        from repro.fuzz.generator import generate_case

        case = generate_case(0, 4, "triangular")
        explained = AnalysisSession().explain(
            case.ref1, case.nest1, case.ref2, case.nest2
        )
        assert explained.report.dependent
        reused = [
            e
            for e in explained.events
            if isinstance(e, FmSample) and e.outcome == "witness_reused"
        ]
        assert reused
        text = explained.render()
        assert "    fm witness reused: t0 = 2 (no elimination)" in text
        assert "exact independence" not in text

    def test_render_formats_every_event_kind(self):
        w = B.ref("a", [B.v("i") + 1], write=True)
        r = B.ref("a", [B.v("i")])
        events = _collect(lambda a: a.directions(w, NEST, r, NEST))
        text = format_trace(events)
        assert "query[" in text
        assert "=> dependent" in text
        assert "direction" in text


class TestDeprecationShims:
    def test_run_does_not_warn(self):
        system = ConstraintSystem(("t0",))
        system.add([1], 5)
        system.add([-1], 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SvpcTest().run(system)

    def test_internal_paths_never_hit_the_shim(self):
        # pyproject turns DeprecationWarning raised from inside repro.*
        # into errors; a full traced analysis must stay clean.
        w = B.ref("a", [B.v("i") + 1], write=True)
        r = B.ref("a", [B.v("i")])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            analyzer = DependenceAnalyzer(
                memoizer=Memoizer(), sink=CollectingSink()
            )
            analyzer.analyze(w, NEST, r, NEST)
            analyzer.directions(w, NEST, r, NEST)


class TestMetricsThreadSafety:
    """The registry is shared across serving threads: mutation is locked."""

    def test_concurrent_increments_are_exact(self):
        import threading

        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        n_threads, per_thread = 8, 2000

        def hammer():
            for _ in range(per_thread):
                registry.inc("hits")
                registry.inc_family("decided_by", "svpc")
                registry.observe("latency", 1)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert registry.get("hits") == total
        assert registry.family("decided_by")["svpc"] == total
        assert registry.histogram("latency").count == total

    def test_analyzer_stats_increments_are_exact_across_threads(self):
        """``stats.inc`` is one locked read-modify-write: threads that
        share an analyzer's stats (the daemon's worker threads) lose no
        counts even when the interpreter switches threads every 1 µs."""
        import sys
        import threading

        stats = AnalyzerStats()
        analyzer = DependenceAnalyzer(memoizer=Memoizer())
        nest = B.nest(("i", 1, 10))
        ref1 = B.ref("a", [1], write=True)
        ref2 = B.ref("a", [2])
        n_threads, per_thread, queries = 8, 20_000, 2_000

        def hammer():
            for _ in range(queries):
                analyzer.analyze(ref1, nest, ref2, nest)
            for _ in range(per_thread):
                stats.inc("total_queries")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert stats.total_queries == n_threads * per_thread == 160_000
        assert analyzer.stats.total_queries == n_threads * queries
        assert analyzer.stats.constant_cases == n_threads * queries

    def test_concurrent_merge_and_snapshot(self):
        import threading

        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        other = MetricsRegistry()
        other.inc("x", 3)
        other.inc_family("f", "k", 2)
        stop = threading.Event()
        errors: list[BaseException] = []

        def merger():
            try:
                for _ in range(500):
                    registry.merge(other)
            except BaseException as err:  # pragma: no cover
                errors.append(err)
            finally:
                stop.set()

        def snapshotter():
            try:
                while not stop.is_set():
                    registry.to_dict()
                    registry.counter_snapshot("f")
            except BaseException as err:  # pragma: no cover
                errors.append(err)

        threads = [
            threading.Thread(target=merger),
            threading.Thread(target=snapshotter),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert registry.get("x") == 1500
        assert registry.family("f")["k"] == 1000

    def test_registry_pickles_across_processes(self):
        """Shard workers ship registries back through pickle: the lock
        must be dropped on the way out and rebuilt on the way in."""
        import pickle
        import threading

        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("hits", 7)
        registry.inc_family("decided_by", "gcd", 2)
        registry.observe("latency", 5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.get("hits") == 7
        assert clone.family("decided_by")["gcd"] == 2
        assert clone.histogram("latency").count == 1
        # The rebuilt lock is a real lock: mutation still works.
        clone.inc("hits")
        assert clone.get("hits") == 8
        assert isinstance(clone._lock, type(threading.RLock()))
