"""Tests for the dependence daemon (repro.serve.server + client).

Covers the tentpole acceptance criteria in-process:

* concurrent clients receive answers bit-identical to the serial batch
  engine's, warm or cold;
* a query exceeding its deadline degrades to the conservative flagged
  verdict (and the enumeration oracle confirms conservativeness);
* saturation produces explicit backpressure errors, not queue collapse;
* shutdown drains in-flight work and the server exits 0.

(The subprocess-level SIGTERM drain is exercised by
``scripts/serve_smoke.py`` in CI.)
"""

import asyncio
import itertools
import json
import socket
import threading

import pytest

from repro.api import DependenceReport
from repro.core.engine import analyze_batch, queries_from_suite
from repro.ir.serde import query_to_dict
from repro.oracle.enumerate import oracle_direction_vectors
from repro.perfect import load_suite
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import DependenceServer, ServeConfig

SOURCE = """
for i = 2 to 10 do
  for j = 1 to 10 do
    a[i][j] = a[i - 1][j]
  end
end
"""


class _RunningServer:
    """A DependenceServer on a background thread, with its exit code."""

    def __init__(self, config: ServeConfig | None = None, cls=DependenceServer):
        if config is None:
            config = ServeConfig(announce=False)
        config.announce = False
        self.server = cls(config)
        self.exit_codes: list[int] = []
        self.thread = threading.Thread(
            target=lambda: self.exit_codes.append(self.server.run()),
            daemon=True,
        )
        self.thread.start()
        assert self.server.started.wait(10), "server did not start"

    def client(self, **kwargs) -> ServeClient:
        return ServeClient.connect(
            self.server.bound_host,
            self.server.bound_port,
            retry_for=5.0,
            **kwargs,
        )

    def stop(self) -> int:
        if self.thread.is_alive():
            self.server.request_shutdown()
        self.thread.join(15)
        assert not self.thread.is_alive(), "server did not drain"
        return self.exit_codes[0]


@pytest.fixture
def running():
    handle = _RunningServer()
    yield handle
    handle.stop()


class _SlowServer(DependenceServer):
    """Holds every analysis op for a beat: makes saturation/coalescing
    windows deterministic instead of racing the analyzer's speed."""

    DELAY = 0.3

    async def _run_analysis_op(
        self, request, session, explain_lock, inc_sessions
    ):
        await asyncio.sleep(self.DELAY)
        return await super()._run_analysis_op(
            request, session, explain_lock, inc_sessions
        )


class TestBasicOps:
    def test_health(self, running):
        with running.client() as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == protocol.PROTOCOL_VERSION

    def test_analyze_source(self, running):
        with running.client() as client:
            report = client.analyze(source=SOURCE, pair=0)
        assert report["dependent"] is True
        assert report["degraded"] is False
        assert report["directions"] == [["<", "="]]
        assert report["distance"] == [1, 0]

    def test_explain(self, running):
        with running.client() as client:
            result = client.explain(source=SOURCE, pair=0)
        assert result["report"]["dependent"] is True
        assert result["n_events"] > 0
        assert "svpc" in result["trace"]

    def test_analyze_program(self, running):
        with running.client() as client:
            result = client.analyze_program(SOURCE)
        assert len(result["pairs"]) == 1
        assert result["pairs"][0]["dependent"] is True
        assert result["summary"]["queries"] == 1

    def test_analyze_program_hits_reach_the_shared_cache(self, running):
        """A repeated analyze_program probes the daemon's own tables:
        its hits count in stats.cache and refresh the LRU stamps that a
        bounded save() evicts by."""
        table = running.server.cache.memoizer.with_bounds
        with running.client() as client:
            client.analyze_program(SOURCE)
            stamps = dict(table.used)
            client.analyze_program(SOURCE)
            stats = client.stats()
        assert stats["cache"]["with_bounds"]["hits"] > 0
        assert stamps
        assert all(table.used[key] > used for key, used in stamps.items())

    def test_stats_exposes_cache_and_requests(self, running):
        with running.client() as client:
            client.analyze(source=SOURCE, pair=0)
            stats = client.stats()
        assert stats["cache"]["entries"] > 0
        assert stats["registry"]["families"]["serve.requests"]["analyze"] == 1
        assert stats["server"]["draining"] is False

    def test_bad_pair_index(self, running):
        with running.client() as client:
            with pytest.raises(ServeError) as exc:
                client.analyze(source=SOURCE, pair=99)
        assert exc.value.code == protocol.ErrorCode.BAD_REQUEST

    def test_bad_source(self, running):
        with running.client() as client:
            with pytest.raises(ServeError) as exc:
                client.analyze(source="for broken (((")
        assert exc.value.code == protocol.ErrorCode.SOURCE

    def test_missing_params(self, running):
        with running.client() as client:
            with pytest.raises(ServeError) as exc:
                client.call("analyze", {})
        assert exc.value.code == protocol.ErrorCode.BAD_REQUEST


class TestWireErrors:
    def _raw(self, running, payload: bytes) -> dict:
        with socket.create_connection(
            (running.server.bound_host, running.server.bound_port), timeout=10
        ) as sock:
            handle = sock.makefile("rwb")
            handle.write(payload)
            handle.flush()
            return json.loads(handle.readline())

    def test_garbage_line_is_parse_error(self, running):
        blob = self._raw(running, b"this is not json\n")
        assert blob["ok"] is False
        assert blob["error"]["code"] == protocol.ErrorCode.PARSE

    def test_unknown_op_is_unsupported(self, running):
        line = json.dumps({"v": 1, "id": 5, "op": "frobnicate"}).encode()
        blob = self._raw(running, line + b"\n")
        assert blob["error"]["code"] == protocol.ErrorCode.UNSUPPORTED
        assert blob["id"] == 5

    def test_version_mismatch(self, running):
        line = json.dumps({"v": 99, "id": 6, "op": "health"}).encode()
        blob = self._raw(running, line + b"\n")
        assert blob["error"]["code"] == protocol.ErrorCode.VERSION
        assert blob["id"] == 6

    def test_server_survives_bad_lines(self, running):
        self._raw(running, b"garbage\n")
        with running.client() as client:
            assert client.health()["status"] == "ok"


class TestPipelining:
    def test_call_many_matches_by_id(self, running):
        with running.client() as client:
            results = client.call_many(
                [
                    ("analyze", {"source": SOURCE, "pair": 0}),
                    ("health", {}),
                    ("analyze", {"source": SOURCE, "pair": 0}),
                ]
            )
        assert results[0]["dependent"] is True
        assert results[1]["status"] == "ok"
        assert results[2] == results[0]

    def test_errors_do_not_mask_siblings(self, running):
        with running.client() as client:
            results = client.call_many(
                [
                    ("analyze", {}),  # bad request
                    ("analyze", {"source": SOURCE, "pair": 0}),
                ]
            )
        assert isinstance(results[0], ServeError)
        assert results[1]["dependent"] is True


class TestBitIdenticalServing:
    """The headline criterion: concurrent clients == serial engine."""

    N_CLIENTS = 8

    @pytest.fixture(scope="class")
    def workload(self):
        queries = queries_from_suite(
            load_suite(include_symbolic=True, scale=0.02)
        )
        serial = analyze_batch(queries, jobs=1, want_directions=True)
        expected = [
            protocol.report_to_wire(
                DependenceReport.from_results(
                    str(outcome.query.ref1),
                    str(outcome.query.ref2),
                    outcome.result,
                    outcome.directions,
                )
            )
            for outcome in serial.outcomes
        ]
        calls = [
            (
                "analyze",
                {
                    "query": query_to_dict(
                        q.ref1, q.nest1, q.ref2, q.nest2
                    ),
                    "directions": True,
                },
            )
            for q in queries
        ]
        return calls, expected

    @pytest.fixture
    def deep_server(self):
        # Fully pipelined clients put their whole stream in flight at
        # once; a deep queue keeps backpressure out of this test (it
        # has its own, in TestBackpressure).
        handle = _RunningServer(
            ServeConfig(announce=False, queue_limit=50_000)
        )
        yield handle
        handle.stop()

    def test_eight_concurrent_clients_bit_identical(
        self, deep_server, workload
    ):
        calls, expected = workload
        failures: list[str] = []

        def worker(client_index: int):
            try:
                with deep_server.client(timeout=120.0) as client:
                    results = client.call_many(calls)
                for i, (got, want) in enumerate(zip(results, expected)):
                    if got != want:
                        failures.append(
                            f"client {client_index} query {i}: "
                            f"{got!r} != {want!r}"
                        )
                        return
            except Exception as err:  # pragma: no cover
                failures.append(f"client {client_index}: {err!r}")

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(300)
        assert not failures, failures[0]

    def test_warm_repeat_is_bit_identical_and_cached(
        self, deep_server, workload
    ):
        calls, expected = workload
        with deep_server.client(timeout=120.0) as client:
            cold = client.call_many(calls)
            warm = client.call_many(calls)
            stats = client.stats()
        assert cold == expected
        assert warm == expected
        table = stats["cache"]["with_bounds"]
        assert table["hits"] > 0


class _SlowWorkServer(DependenceServer):
    """Pads every analysis work unit with a blocking sleep, standing in
    for a genuinely expensive query (which would release the GIL the
    same way and let the deadline timer fire)."""

    PAD = 0.5

    async def _with_deadline(self, work, degrade):
        import time as _time

        def padded():
            _time.sleep(self.PAD)
            return work()

        return await super()._with_deadline(padded, degrade)


class TestDeadlineDegradation:
    def test_blown_deadline_degrades_conservatively(self):
        handle = _RunningServer(
            ServeConfig(announce=False, deadline_ms=20.0),
            cls=_SlowWorkServer,
        )
        try:
            with handle.client() as client:
                report = client.analyze(source=SOURCE, pair=0)
                stats = client.stats()
        finally:
            handle.stop()
        # The degraded verdict: dependent, all-* directions, flagged.
        assert report["degraded"] is True
        assert report["dependent"] is True
        assert report["exact"] is False
        assert report["decided_by"] == "deadline"
        assert report["directions"] == [["*", "*"]]
        assert stats["registry"]["scalars"]["serve.degraded"] >= 1

    def test_oracle_confirms_conservativeness(self):
        """Every true direction vector is covered by the degraded
        all-wildcard answer: degradation over-approximates, never
        drops a dependence."""
        from repro.opt import compile_source
        from repro.ir.program import reference_pairs

        program = compile_source(SOURCE, strict=False).program
        (site1, site2), = reference_pairs(program)
        true_vectors = oracle_direction_vectors(
            site1.ref, site1.nest, site2.ref, site2.nest
        )
        assert true_vectors  # the pair really is dependent
        n_common = site1.nest.common_prefix_depth(site2.nest)
        degraded = protocol.degraded_report(
            str(site1.ref), str(site2.ref), n_common
        )
        assert degraded["dependent"] is True
        covered = {
            vector
            for vector in itertools.product("<=>", repeat=n_common)
        }
        assert true_vectors <= covered
        assert degraded["directions"] == [["*"] * n_common]

    def test_real_program_batch_blows_deadline(self):
        """No simulation: a whole-program batch this heavy cannot beat
        a 1 ms budget, so every pair comes back degraded (and
        flagged)."""
        body = "\n".join(
            f"    a[i + {k}][j] = a[i][j + {k}]" for k in range(6)
        )
        source = (
            "for i = 1 to 50 do\n"
            "  for j = 1 to 50 do\n"
            f"{body}\n"
            "  end\n"
            "end\n"
        )
        handle = _RunningServer(
            ServeConfig(announce=False, deadline_ms=1.0)
        )
        try:
            with handle.client(timeout=120.0) as client:
                result = client.analyze_program(source)
        finally:
            handle.stop()
        assert result["summary"] == {"degraded": True}
        assert result["pairs"], "expected reference pairs"
        assert all(p["degraded"] for p in result["pairs"])
        assert all(p["dependent"] for p in result["pairs"])

    def test_generous_deadline_does_not_degrade(self):
        handle = _RunningServer(
            ServeConfig(announce=False, deadline_ms=60_000.0)
        )
        try:
            with handle.client() as client:
                report = client.analyze(source=SOURCE, pair=0)
        finally:
            handle.stop()
        assert report["degraded"] is False
        assert report["directions"] == [["<", "="]]


class TestBackpressure:
    def test_saturation_yields_overloaded_errors(self):
        handle = _RunningServer(
            ServeConfig(announce=False, max_inflight=1, queue_limit=0),
            cls=_SlowServer,
        )
        try:
            sources = [
                SOURCE.replace("a[i - 1]", f"a[i - {k}]") for k in (1, 2, 3)
            ]
            with handle.client() as client:
                results = client.call_many(
                    [
                        ("analyze", {"source": src, "pair": 0})
                        for src in sources
                    ]
                )
                stats = client.stats()
        finally:
            handle.stop()
        overloaded = [
            r
            for r in results
            if isinstance(r, ServeError)
            and r.code == protocol.ErrorCode.OVERLOADED
        ]
        served = [r for r in results if isinstance(r, dict)]
        assert len(overloaded) == 2
        assert len(served) == 1 and served[0]["dependent"] is True
        assert stats["registry"]["scalars"]["serve.backpressure"] == 2

    def test_control_ops_bypass_backpressure(self):
        handle = _RunningServer(
            ServeConfig(announce=False, max_inflight=1, queue_limit=0),
            cls=_SlowServer,
        )
        try:
            with handle.client() as client:
                results = client.call_many(
                    [
                        ("analyze", {"source": SOURCE, "pair": 0}),
                        ("health", {}),
                        ("stats", {}),
                    ]
                )
        finally:
            handle.stop()
        assert results[1]["status"] == "ok"
        assert "registry" in results[2]


class TestCoalescing:
    def test_identical_inflight_requests_coalesce(self):
        handle = _RunningServer(ServeConfig(announce=False), cls=_SlowServer)
        try:
            with handle.client() as client:
                results = client.call_many(
                    [("analyze", {"source": SOURCE, "pair": 0})] * 4
                )
                stats = client.stats()
        finally:
            handle.stop()
        assert all(r == results[0] for r in results)
        assert stats["registry"]["scalars"]["serve.coalesced"] == 3


class TestShutdownDrain:
    def test_shutdown_op_drains_and_exits_zero(self, running):
        with running.client() as client:
            report = client.analyze(source=SOURCE, pair=0)
            assert report["dependent"] is True
            assert client.shutdown() == {"draining": True}
        assert running.stop() == 0

    def test_inflight_work_is_answered_during_drain(self):
        handle = _RunningServer(ServeConfig(announce=False), cls=_SlowServer)
        with handle.client() as client:
            # The slow analyze is admitted first, then shutdown arrives
            # while it is still running: both must be answered.
            results = client.call_many(
                [
                    ("analyze", {"source": SOURCE, "pair": 0}),
                    ("shutdown", {}),
                ]
            )
        assert results[0]["dependent"] is True
        assert results[1] == {"draining": True}
        assert handle.stop() == 0

    def test_requests_after_shutdown_are_refused(self):
        handle = _RunningServer(ServeConfig(announce=False), cls=_SlowServer)
        with handle.client() as client:
            results = client.call_many(
                [
                    ("shutdown", {}),
                    ("analyze", {"source": SOURCE, "pair": 0}),
                ]
            )
        assert results[0] == {"draining": True}
        assert isinstance(results[1], ServeError)
        assert results[1].code == protocol.ErrorCode.SHUTTING_DOWN
        assert handle.stop() == 0


class TestCachePersistenceAcrossRestarts:
    def test_second_server_is_warm_and_bit_identical(self, tmp_path):
        cache = tmp_path / "serve-cache.json"
        first = _RunningServer(
            ServeConfig(announce=False, cache_path=str(cache))
        )
        try:
            with first.client() as client:
                cold = client.analyze(source=SOURCE, pair=0)
        finally:
            assert first.stop() == 0
        assert cache.exists()

        second = _RunningServer(
            ServeConfig(announce=False, cache_path=str(cache))
        )
        try:
            with second.client() as client:
                assert client.health()["cache_entries"] > 0
                warm = client.analyze(source=SOURCE, pair=0)
                stats = client.stats()
        finally:
            assert second.stop() == 0
        assert warm == cold
        # The warm run answered from the restored tables.
        tables = stats["cache"]
        hits = (
            tables["with_bounds"]["hits"] + tables["no_bounds"]["hits"]
        )
        assert hits > 0


class TestIncrementalSessions:
    """Protocol-v3 session ops: open, update by delta, dump the graph."""

    def _sources(self, seed=21, statements=8, arrays=4, edits=3):
        import random

        from repro.fuzz.edits import mutate, storm_program
        from repro.lang.unparse import program_to_source

        rng = random.Random(seed)
        program = storm_program(seed, statements=statements, arrays=arrays)
        versions = [program]
        for _ in range(edits):
            program, _ = mutate(program, rng, arrays=arrays)
            versions.append(program)
        return versions, [program_to_source(p) for p in versions]

    def test_health_advertises_sessions(self, running):
        with running.client() as client:
            assert client.health()["sessions"] is True

    def test_open_update_graph_roundtrip(self, running):
        versions, sources = self._sources()
        with running.client() as client:
            opened = client.open_session(source=sources[0])
            sid = opened["session"]
            assert opened["degraded"] is False
            assert opened["update"]["requery_fraction"] == 1.0
            for source in sources[1:]:
                summary = client.update_source(sid, source, verify=True)
                assert summary["degraded"] is False
                assert summary["reused"] > 0
            result = client.graph(sid)
        from repro.core.incremental import full_graph

        reference = full_graph(versions[-1])
        assert result["dot"] == reference.to_dot()
        assert result["edges"] == reference.edge_dicts()
        assert result["statements"] == len(versions[-1].statements)
        assert result["update"]["session"] == sid

    def test_sessions_warm_the_shared_cache(self, running):
        _, sources = self._sources()
        with running.client() as client:
            before = client.health()["cache_entries"]
            sid = client.open_session(source=sources[0])["session"]
            client.update_source(sid, sources[1])
            after = client.health()["cache_entries"]
        assert after > before

    def test_two_sessions_are_independent(self, running):
        _, sources = self._sources()
        with running.client() as client:
            first = client.open_session(source=sources[0])["session"]
            second = client.open_session(source=sources[1])["session"]
            assert first != second
            g1 = client.graph(first)
            g2 = client.graph(second)
        assert g1["session"] == first and g2["session"] == second

    def test_unknown_session_is_typed(self, running):
        # The dedicated code is what tells a durable client "replay
        # your journal" apart from "your request is malformed".
        with running.client() as client:
            for op, params in (
                ("update_source", {"session": "nope", "source": SOURCE}),
                ("graph", {"session": "nope"}),
            ):
                with pytest.raises(ServeError) as err:
                    client.call(op, params)
                assert err.value.code == protocol.ErrorCode.UNKNOWN_SESSION

    def test_graph_before_any_update_is_bad_request(self, running):
        with running.client() as client:
            sid = client.open_session()["session"]
            with pytest.raises(ServeError) as err:
                client.graph(sid)
            assert err.value.code == protocol.ErrorCode.BAD_REQUEST

    def test_bad_source_is_source_error_and_keeps_the_session(self, running):
        _, sources = self._sources()
        with running.client() as client:
            sid = client.open_session(source=sources[0])["session"]
            with pytest.raises(ServeError) as err:
                client.update_source(sid, "for broken ( syntax")
            assert err.value.code == protocol.ErrorCode.SOURCE
            # the failed update did not clobber the retained graph
            result = client.graph(sid)
        assert result["session"] == sid

    def test_pipelined_open_then_update_applies_in_order(self, running):
        """An update racing its own open_session must wait for it, not
        fail on a missing session id — the connection lock orders
        stateful ops even though each runs on its own worker thread."""
        _, sources = self._sources()
        with running.client() as client:
            opened = client.open_session(source=sources[0])
            sid = opened["session"]
            results = client.call_many(
                [
                    ("update_source", {"session": sid, "source": sources[1]}),
                    ("update_source", {"session": sid, "source": sources[2]}),
                    ("graph", {"session": sid}),
                ]
            )
        assert not any(isinstance(r, ServeError) for r in results)
        assert results[2]["update"] == results[1]

    def test_session_ops_share_the_admission_limit(self):
        handle = _RunningServer(
            ServeConfig(announce=False, max_inflight=1, queue_limit=0)
        )
        _SlowServer.DELAY = 0.3
        try:
            slow = _RunningServer(
                ServeConfig(announce=False, max_inflight=1, queue_limit=0),
                cls=_SlowServer,
            )
            try:
                with slow.client() as client:
                    results = client.call_many(
                        [("open_session", {}) for _ in range(6)]
                    )
                overloaded = [
                    r
                    for r in results
                    if isinstance(r, ServeError)
                    and r.code == protocol.ErrorCode.OVERLOADED
                ]
                assert overloaded  # backpressure applies to session ops
            finally:
                slow.stop()
        finally:
            handle.stop()
