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
import time

import pytest

from repro.api import AnalysisSession, DependenceReport
from repro.core.engine import analyze_batch, queries_from_suite
from repro.ir.program import reference_pairs
from repro.ir.serde import query_from_dict, query_to_dict
from repro.oracle.enumerate import oracle_direction_vectors
from repro.perfect import load_suite
from repro.serve import protocol
from repro.serve.client import Client, RetryPolicy, ServeError
from repro.serve.server import DependenceServer, ServeConfig
from tests.test_frontends import GOOD_NEST, LOOP_SHAPES

SOURCE = """
for i = 2 to 10 do
  for j = 1 to 10 do
    a[i][j] = a[i - 1][j]
  end
end
"""

# 3,000 loop nests that share no array: a compile of about half a
# second, then nothing to analyze.
LARGE_SOURCE = "".join(
    f"for i = 1 to 10 do\n  a{k}[i] = b{k}[i]\nend\n" for k in range(3000)
)


def _compile_seconds(source: str) -> float:
    from repro.opt import compile_source

    start = time.perf_counter()
    compile_source(source, strict=False)
    return time.perf_counter() - start


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

    def client(self, **kwargs) -> Client:
        return Client(
            f"tcp://{self.server.bound_host}:{self.server.bound_port}",
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

    async def _run_analysis_op(self, request, inc_sessions):
        await asyncio.sleep(self.DELAY)
        return await super()._run_analysis_op(request, inc_sessions)


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


def _raw_line(running, payload: bytes) -> bytes:
    """One raw request line, its raw response line: no client sugar."""
    with socket.create_connection(
        (running.server.bound_host, running.server.bound_port), timeout=10
    ) as sock:
        handle = sock.makefile("rwb")
        handle.write(payload)
        handle.flush()
        return handle.readline()


def _raw_call(running, payload: bytes) -> dict:
    return json.loads(_raw_line(running, payload))


class TestWireErrors:
    def test_garbage_line_is_parse_error(self, running):
        blob = _raw_call(running, b"this is not json\n")
        assert blob["ok"] is False
        assert blob["error"]["code"] == protocol.ErrorCode.PARSE

    def test_unknown_op_is_unsupported(self, running):
        line = json.dumps({"v": 1, "id": 5, "op": "frobnicate"}).encode()
        blob = _raw_call(running, line + b"\n")
        assert blob["error"]["code"] == protocol.ErrorCode.UNSUPPORTED
        assert blob["id"] == 5

    def test_version_mismatch(self, running):
        line = json.dumps({"v": 99, "id": 6, "op": "health"}).encode()
        blob = _raw_call(running, line + b"\n")
        assert blob["error"]["code"] == protocol.ErrorCode.VERSION
        assert blob["id"] == 6
        span = f"{protocol.MIN_PROTOCOL_VERSION}..{protocol.PROTOCOL_VERSION}"
        assert span in blob["error"]["message"]

    def test_server_survives_bad_lines(self, running):
        _raw_call(running, b"garbage\n")
        with running.client() as client:
            assert client.health()["status"] == "ok"


def _renamed(query: dict, name) -> dict:
    """``query`` with both refs' array renamed to ``name``."""
    return {
        **query,
        "ref1": {**query["ref1"], "array": name},
        "ref2": {**query["ref2"], "array": name},
    }


def _fastlane_hits(client) -> int:
    return client.stats()["registry"]["scalars"].get("serve.fastlane.hits", 0)


# One nest with a loop variable ``i`` and a symbol ``n``: array names
# that collide with either must still be answered under their own name.
SYMBOLIC_SOURCE = """
read(n)
for i = 1 to n do
  a[i + 1] = a[i]
  b[i] = b[i + 2]
end
"""


def _symbolic_query() -> dict:
    from repro.opt import compile_source

    site1, site2 = reference_pairs(compile_source(SYMBOLIC_SOURCE).program)[0]
    return query_to_dict(site1.ref, site1.nest, site2.ref, site2.nest)


class TestRenamingFastLane:
    """The wire fast lane keys an ``analyze`` query on its canonical
    text with the refs' one shared array name blanked: the same pattern
    under another name is a repeat, answered from the lane under the
    request's own name, byte for byte as the slow path would."""

    @pytest.fixture(scope="class")
    def patterns(self):
        """20 suite queries, no two of which differ only in their name."""
        queries = queries_from_suite(load_suite(include_symbolic=True, scale=0.02))
        distinct: dict[str, dict] = {}
        for q in queries:
            wire = query_to_dict(q.ref1, q.nest1, q.ref2, q.nest2)
            distinct.setdefault(protocol.canonical_json(_renamed(wire, "")), wire)
        assert len(distinct) >= 20
        return list(distinct.values())[:20]

    @staticmethod
    def _expected_line(request_id, query: dict) -> bytes:
        """The slow path's response line: an in-process analysis of the
        query under its own names, encoded as the daemon encodes it."""
        report = AnalysisSession().analyze(
            *query_from_dict(query), want_directions=True
        )
        return protocol.encode_response(
            protocol.ok_response(request_id, protocol.report_to_wire(report))
        )

    def _assert_renamed_hits(self, running, query: dict, names) -> None:
        """Ask ``query`` under its own name, then under each of
        ``names``: every renamed ask is one lane hit whose raw line is
        the slow path's under that name."""

        def ask(query: dict, request_id: int) -> bytes:
            params = {"query": query, "directions": True}
            return _raw_line(
                running, protocol.encode_request("analyze", params, request_id)
            )

        with running.client() as client:
            assert ask(query, 0) == self._expected_line(0, query)
            for request_id, name in enumerate(names, start=1):
                renamed = _renamed(query, name)
                before = _fastlane_hits(client)
                line = ask(renamed, request_id)
                assert _fastlane_hits(client) == before + 1, name
                assert line == self._expected_line(request_id, renamed), name

    def test_renamed_repeats_are_hits_and_bit_identical(self, running, patterns):
        for index, query in enumerate(patterns):
            self._assert_renamed_hits(
                running, query, (f"r{index}_x", f"other{index}")
            )
        with running.client() as client:
            stats = client.stats()
        assert stats["server"]["fastlane_entries"] == len(patterns)
        assert stats["registry"]["scalars"]["serve.fastlane.hits"] == 2 * len(
            patterns
        )

    def test_names_that_need_escaping_or_collide(self, running):
        """JSON escapes, a non-ASCII name, and names equal to the
        query's loop variable (``i``) and symbol (``n``)."""
        self._assert_renamed_hits(
            running, _symbolic_query(), ("ä", 'a"b', "a\\b", "i", "n")
        )

    def test_one_entry_per_pattern(self, running):
        query = _symbolic_query()
        with running.client() as client:
            answers = [
                client.call("analyze", {"query": _renamed(query, name)})
                for name in ("a", "b", "c")
            ]
            stats = client.stats()
        assert [answer["ref1"] for answer in answers] == [
            "a[i + 1]",
            "b[i + 1]",
            "c[i + 1]",
        ]
        assert stats["server"]["fastlane_entries"] == 1
        assert stats["registry"]["scalars"]["serve.fastlane.hits"] == 2

    def test_source_requests_keep_text_keys(self, running):
        with running.client() as client:
            first = client.analyze(source=SYMBOLIC_SOURCE, pair=0)
            assert _fastlane_hits(client) == 0
            assert client.analyze(source=SYMBOLIC_SOURCE, pair=0) == first
            assert _fastlane_hits(client) == 1
            other = client.analyze(source=SYMBOLIC_SOURCE, pair=1)
            assert _fastlane_hits(client) == 1
        assert first["ref1"] == "a[i + 1]"
        assert other["ref1"] == "b[i]"

    def test_explain_is_never_laned(self, running):
        query = _symbolic_query()
        with running.client() as client:
            client.call("analyze", {"query": query})
            for name in ("a", "z"):
                explained = client.call("explain", {"query": _renamed(query, name)})
                assert explained["report"]["ref1"] == f"{name}[i + 1]"
            stats = client.stats()
        assert stats["server"]["fastlane_entries"] == 1  # the analyze
        assert stats["registry"]["scalars"].get("serve.fastlane.hits", 0) == 0


class TestMalformedPairs:
    """A query whose refs name two arrays, or one array at two ranks,
    is a caller's mistake: ``bad_request`` at the wire boundary, never
    an ``internal_error`` from deep in the analyzer."""

    @pytest.mark.parametrize("op", ["analyze", "explain"])
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("names", "references name different arrays"),
            ("rank", "rank mismatch for array 'a': 1 vs 2"),
        ],
    )
    def test_is_a_bad_request(self, running, op, defect, message):
        query = _symbolic_query()
        ref2 = query["ref2"]
        if defect == "names":
            query["ref2"] = {**ref2, "array": "b"}
        else:
            query["ref2"] = {**ref2, "subscripts": ref2["subscripts"] * 2}
        with running.client() as client:
            for _ in range(2):
                with pytest.raises(ServeError) as exc:
                    client.call(op, {"query": query})
                assert exc.value.code == protocol.ErrorCode.BAD_REQUEST
                assert exc.value.message.startswith("malformed query: ")
                assert message in exc.value.message
            stats = client.stats()
        errors = stats["registry"]["families"]["serve.errors"]
        assert errors == {protocol.ErrorCode.BAD_REQUEST: 2}
        assert stats["server"]["fastlane_entries"] == 0


class TestNegotiation:
    """Negotiation is one-sided and backward: a server accepts every
    version from ``MIN_PROTOCOL_VERSION`` up to its own."""

    def test_old_v1_client_speaks_to_a_bare_worker(self, running):
        response = _raw_call(
            running,
            protocol.encode_request(
                "analyze", {"source": SOURCE, "pair": 0}, request_id=7, version=1
            ),
        )
        assert response["ok"] is True
        assert response["id"] == 7
        assert response["result"]["dependent"] is True

    def test_new_v2_client_speaks_to_a_bare_worker(self, running):
        response = _raw_call(
            running,
            protocol.encode_request("health", {}, request_id=1, version=2),
        )
        assert response["ok"] is True
        # The capability flag v2 clients check: this is never a router.
        assert response["result"]["cluster"] is False

    def test_unknown_version_gets_the_typed_refusal_at_both_ends(
        self, running
    ):
        """The versions just outside the span get the typed refusal;
        the span's own ends are answered."""
        low, high = protocol.MIN_PROTOCOL_VERSION, protocol.PROTOCOL_VERSION
        for version, accepted in (
            (low - 1, False),
            (low, True),
            (high, True),
            (high + 1, False),
        ):
            response = _raw_call(
                running,
                protocol.encode_request(
                    "health", {}, request_id=version, version=version
                ),
            )
            assert response["ok"] is accepted, version
            assert response["id"] == version
            if not accepted:
                error = response["error"]
                assert error["code"] == protocol.ErrorCode.VERSION
                assert f"{low}..{high}" in error["message"]


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

    def test_degraded_answer_bypasses_the_fastlane_and_memo(self):
        """A blown-deadline verdict is recomputed every time: it is
        stored in neither the wire fast lane nor the memo table."""
        handle = _RunningServer(
            ServeConfig(announce=False, deadline_ms=20.0),
            cls=_SlowWorkServer,
        )
        try:
            with handle.client() as client:
                first = client.analyze(source=SOURCE, pair=0)
                second = client.analyze(source=SOURCE, pair=0)
                stats = client.stats()
        finally:
            handle.stop()
        assert first["degraded"] is True
        assert second == first, "degraded answers must stay deterministic"
        assert stats["server"]["fastlane_entries"] == 0
        assert stats["cache"]["entries"] == 0
        # Both queries were recomputed, so both degraded.
        assert stats["registry"]["scalars"]["serve.degraded"] >= 2

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

    def test_a_late_result_degrades_however_threads_are_scheduled(self):
        """The worker's clock decides a miss.  With a 50 ms switch
        interval the worker keeps the GIL well past a 1 ms deadline, so
        the event loop sees the finished work before its timer; the
        answer must still be the degraded one.  Each try is a cold
        server, so the batch is tens of times the deadline."""
        import sys

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
        interval = sys.getswitchinterval()
        sys.setswitchinterval(0.05)
        try:
            for _ in range(3):
                handle = _RunningServer(
                    ServeConfig(announce=False, deadline_ms=1.0)
                )
                try:
                    with handle.client(timeout=120.0) as client:
                        result = client.analyze_program(source)
                        stats = client.stats()
                finally:
                    handle.stop()
                assert result["summary"] == {"degraded": True}
                assert all(p["degraded"] for p in result["pairs"])
                assert stats["registry"]["scalars"]["serve.degraded"] == 1
        finally:
            sys.setswitchinterval(interval)

    def test_deadline_covers_the_compile(self):
        """analyze_program compiles in its worker thread, under the
        deadline: a large source degrades near the deadline instead of
        answering after the compile."""
        compile_s = _compile_seconds(LARGE_SOURCE)
        handle = _RunningServer(ServeConfig(announce=False, deadline_ms=50.0))
        try:
            with handle.client(timeout=120.0) as client:
                start = time.perf_counter()
                result = client.analyze_program(LARGE_SOURCE)
                elapsed = time.perf_counter() - start
        finally:
            handle.stop()
        assert result["summary"] == {"degraded": True}
        assert elapsed < compile_s / 2, (elapsed, compile_s)

    def test_query_exits_dependent_on_a_degraded_program(
        self, tmp_path, capsys
    ):
        """A degraded analyze_program with no pairs still means "all
        dependent": ``repro query`` exits 1, never 0 ("nothing found")."""
        from repro.cli import EXIT_DEPENDENCE
        from repro.cli import main as repro_main

        path = tmp_path / "large.loop"
        path.write_text(LARGE_SOURCE)
        handle = _RunningServer(ServeConfig(announce=False, deadline_ms=50.0))
        try:
            code = repro_main(
                [
                    "query",
                    str(path),
                    "--op",
                    "analyze_program",
                    "--port",
                    str(handle.server.bound_port),
                ]
            )
        finally:
            handle.stop()
        result = json.loads(capsys.readouterr().out)
        assert result == {"pairs": [], "summary": {"degraded": True}}
        assert code == EXIT_DEPENDENCE

    def test_a_source_error_after_the_deadline_is_not_logged(self, caplog):
        """The orphaned work's late failure is read, not left for
        asyncio to log as a never-retrieved exception."""
        import gc

        handle = _RunningServer(ServeConfig(announce=False, deadline_ms=5.0))
        try:
            with handle.client(timeout=120.0) as client:
                result = client.analyze_program(LARGE_SOURCE + "x = (\n")
        finally:
            handle.stop()
        gc.collect()
        assert result["summary"] == {"degraded": True}
        assert "never retrieved" not in caplog.text

    def test_health_answers_during_a_compile(self):
        """The compile runs off the event loop: a health check on a
        second connection does not wait for it."""
        compile_s = _compile_seconds(LARGE_SOURCE)
        handle = _RunningServer()
        program: dict = {}

        def analyze_program() -> None:
            with handle.client(timeout=120.0) as client:
                program.update(client.analyze_program(LARGE_SOURCE))

        try:
            with handle.client() as client:
                client.health()
                worker = threading.Thread(target=analyze_program)
                worker.start()
                time.sleep(compile_s / 10)  # the compile is under way
                start = time.perf_counter()
                health = client.health()
                elapsed = time.perf_counter() - start
            worker.join(120)
        finally:
            handle.stop()
        assert health["inflight"] == 1  # answered while the program op ran
        assert elapsed < compile_s / 4, (elapsed, compile_s)
        assert program["pairs"] == []

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

    def test_renamed_inflight_requests_do_not_share_an_answer(self):
        """Two in-flight asks of one pattern under two names share a
        lane key but not a computation: each answer names its own
        arrays."""
        query = _symbolic_query()
        handle = _RunningServer(ServeConfig(announce=False), cls=_SlowServer)
        try:
            with handle.client() as client:
                results = client.call_many(
                    [("analyze", {"query": _renamed(query, name)}) for name in "aab"]
                )
                stats = client.stats()
        finally:
            handle.stop()
        assert [r["ref1"] for r in results] == ["a[i + 1]", "a[i + 1]", "b[i + 1]"]
        assert stats["registry"]["scalars"]["serve.coalesced"] == 1


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


# One array at two ranks: the second statement reuses 'a' at rank 2
# and the third uses 'c' at two ranks, so both are skipped.
RANK_SOURCE = """\
for i = 2 to 10 do
  a[i] = a[i - 1]
end
for i = 2 to 10 do
  for j = 1 to 10 do
    a[i][j] = a[i][j - 1]
    c[i] = c[i - 1][j]
  end
end
"""

RANK_PYTHON = """\
def f(A, B, n):
    for i in range(1, n):
        A[i] = A[i - 1]
        B[i] = B[i - 1][0]
"""

RANK_C = """\
void f(int n) {
  for (i = 1; i < n; i++) {
    A[i] = A[i - 1];
    B[i] = B[i - 1][0];
  }
}
"""

TRUNCATED_C = "void f(int n) {\n  for (i = 1; i < n; i++)\n    A[i] = A[i - 1];\n"


class TestOneFrontEnd:
    """Every op that takes source compiles it one way: a rank conflict
    is a skipped statement and a truncated C file a source error, never
    ``internal_error`` or a traceback."""

    def _no_internal_errors(self, client, capsys):
        families = client.stats()["registry"]["families"]
        assert protocol.ErrorCode.INTERNAL not in families.get("serve.errors", {})
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, lang",
        [(RANK_SOURCE, None), (RANK_PYTHON, "python"), (RANK_C, "c")],
        ids=["loop", "python", "c"],
    )
    def test_stateless_ops_skip_a_rank_conflict(self, running, capsys, source, lang):
        params = {} if lang is None else {"lang": lang}
        with running.client() as client:
            report = client.analyze(source=source, pair=0, **params)
            assert report["dependent"] is True
            explained = client.explain(source=source, pair=0, **params)
            assert explained["report"] == report
            program = client.analyze_program(source, **params)
            assert [pair["ref1"] for pair in program["pairs"]] == [report["ref1"]]
            self._no_internal_errors(client, capsys)

    def test_session_ops_skip_a_rank_conflict(self, running, capsys):
        first = RANK_SOURCE.split("for i = 2 to 10 do\n  for j")[0]
        with running.client() as client:
            opened = client.open_session(source=RANK_SOURCE)
            assert opened["update"]["statements"] == 1
            sid = client.open_session(source=first)["session"]
            summary = client.update_source(sid, RANK_SOURCE, verify=True)
            assert summary["statements"] == 1
            assert summary["edges"] == 1
            python = RANK_PYTHON.replace("B[i - 1][0]", "B[i - 1]")
            sid = client.open_session(source=python, lang="python")["session"]
            summary = client.update_source(
                sid, RANK_PYTHON, lang="python", verify=True
            )
            assert (summary["statements"], summary["edges"]) == (1, 1)
            self._no_internal_errors(client, capsys)

    def test_loop_shapes_the_ir_rejects_and_bad_literals_are_skips(
        self, running, capsys
    ):
        sources = [
            (text + GOOD_NEST[lang], lang)
            for shape in LOOP_SHAPES.values()
            for lang, text in shape.items()
        ]
        bad_literal = "void f(void) {\n  a[010] = a[0n];\n}\n"
        sources.append((bad_literal + GOOD_NEST["c"], "c"))
        with running.client() as client:
            for source, lang in sources:
                program = client.analyze_program(source, lang=lang)
                assert [pair["ref1"] for pair in program["pairs"]] == ["b[k]"]
            self._no_internal_errors(client, capsys)

    def test_a_truncated_c_file_is_a_source_error(self, running, capsys):
        with running.client() as client:
            for op, params in [
                ("analyze", {"source": TRUNCATED_C, "pair": 0}),
                ("analyze_program", {"source": TRUNCATED_C}),
                ("open_session", {"source": TRUNCATED_C}),
            ]:
                with pytest.raises(ServeError) as exc:
                    client.call(op, {**params, "lang": "c"})
                assert exc.value.code == protocol.ErrorCode.SOURCE
                assert exc.value.message == "expected '}', found 'EOF'"
            sid = client.open_session(source=TRUNCATED_C + "}\n", lang="c")["session"]
            with pytest.raises(ServeError) as exc:
                client.update_source(sid, TRUNCATED_C, lang="c")
            assert exc.value.code == protocol.ErrorCode.SOURCE
            assert client.graph(sid)["statements"] == 1
            self._no_internal_errors(client, capsys)

    def test_every_connection_shares_the_one_session(self, running):
        for distance in range(1, 6):
            with running.client() as client:
                client.analyze(
                    source=SOURCE.replace("i - 1", f"i - {distance}"), pair=0
                )
            with running.client() as client:
                client.explain(source=SOURCE, pair=0)
        with running.client() as client:
            stats = client.stats()
        # Each answer is a plain query plus a direction query.
        assert stats["registry"]["scalars"]["queries.total"] == 20
        assert running.server.session.stats.total_queries == 20


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

    def test_open_session_compiles_the_whole_text_then_reuses(self, running):
        versions, sources = self._sources()
        with running.client() as client:
            opened = client.open_session(source=sources[0])
            summary = client.update_source(opened["session"], sources[1])
        first = opened["update"]
        assert first["spans_compiled"] == len(versions[0].statements)
        assert first["spans_reused"] == 0
        assert summary["spans_reused"] > 0
        assert summary["spans_compiled"] + summary["spans_reused"] == len(
            versions[1].statements
        )

    def test_sessions_run_on_the_live_memo(self, running):
        """A session's probes, hits and inserts land in the daemon's
        cache itself: the same counts an in-process session keeps on a
        memo of its own, and the same entries the old merge-back left."""
        from repro.core.incremental import IncrementalSession

        _, sources = self._sources(edits=5)
        with running.client() as client:
            sid = client.open_session(source=sources[0])["session"]
            for source in sources[1:]:
                client.update_source(sid, source)
            cache = client.stats()["cache"]
        replica = IncrementalSession()
        for source in sources:
            replica.update_source(source)
        memo = replica.memoizer
        assert cache["entries"] == len(memo.no_bounds) + len(memo.with_bounds)
        for name in ("no_bounds", "with_bounds"):
            table = getattr(memo, name)
            assert cache[name]["queries"] == table.stats.queries
            assert cache[name]["hits"] == table.stats.hits
        assert cache["with_bounds"]["queries"] > 0
        assert cache["with_bounds"]["hits"] > 0

    def test_concurrent_sessions_share_the_live_memo(self):
        """Four connections edit at once, on more worker threads than
        cores, with a short switch interval: every graph still equals a
        full re-analysis and no memo insert is lost."""
        import sys

        from repro.core.incremental import IncrementalSession, full_graph

        storms = [self._sources(seed=seed, edits=3) for seed in range(4)]
        handle = _RunningServer(ServeConfig(announce=False, max_inflight=4))
        graphs: dict[int, dict] = {}

        def edit(index: int) -> None:
            _, sources = storms[index]
            with handle.client(timeout=120.0) as client:
                sid = client.open_session(source=sources[0])["session"]
                for source in sources[1:]:
                    client.update_source(sid, source)
                graphs[index] = client.graph(sid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=edit, args=(index,)) for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not any(thread.is_alive() for thread in threads)
            with handle.client() as client:
                entries = client.stats()["cache"]["entries"]
        finally:
            sys.setswitchinterval(interval)
            handle.stop()
        replica = IncrementalSession()
        for index, (versions, sources) in enumerate(storms):
            assert graphs[index]["edges"] == full_graph(versions[-1]).edge_dicts()
            for source in sources:
                replica.update_source(source)
        memo = replica.memoizer
        assert entries == len(memo.no_bounds) + len(memo.with_bounds)

    def test_session_memoizer_is_the_cache_itself(self, tmp_path):
        path = tmp_path / "serve-cache.json"
        handle = _RunningServer(ServeConfig(announce=False, cache_path=str(path)))
        try:
            with handle.client() as client:
                client.analyze_program(SOURCE)
        finally:
            handle.stop()
        server = DependenceServer(ServeConfig(cache_path=str(path)))
        try:
            assert server.cache.entry_count() > 0
            assert server._open_incremental().memoizer is server.cache.memoizer
        finally:
            server._executor.shutdown()

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

    def test_stale_epoch_is_rejected_before_the_compile(self, running):
        """A late pre-failover open_session is refused on its epoch
        alone: its source is never compiled (a broken one is not even
        reported) and the live session keeps its graph."""
        _, sources = self._sources()
        with running.client() as client:
            client.call(
                "open_session",
                {"session_id": "pin", "epoch": 1, "source": sources[0]},
            )
            before = client.graph("pin")
            with pytest.raises(ServeError) as err:
                client.call(
                    "open_session",
                    {"session_id": "pin", "epoch": 0, "source": "for ("},
                )
            after = client.graph("pin")
        assert err.value.code == protocol.ErrorCode.BAD_REQUEST
        assert "stale epoch" in str(err.value)
        assert after == before

    def test_a_session_survives_a_daemon_restart(self):
        """Stop the daemon mid-session and start a fresh one on its
        port: the next update fails on the dead connection, the client
        replays its journal on the new daemon, and the final graph is
        bit-identical to an uninterrupted session's."""
        from repro.core.incremental import full_graph

        versions, sources = self._sources(edits=5)
        first = _RunningServer()
        second = None
        try:
            with first.client(retry=RetryPolicy(seed=3)) as client:
                sid = client.open_session(source=sources[0])["session"]
                client.update_source(sid, sources[1])
                assert first.stop() == 0
                second = _RunningServer(
                    ServeConfig(announce=False, port=first.server.bound_port)
                )
                for source in sources[2:]:
                    summary = client.update_source(sid, source)
                    assert summary["degraded"] is False
                result = client.graph(sid)
                assert client.registry.get("client.session_replays") >= 1
            assert second.server.registry.get("serve.sessions.opened") >= 1
        finally:
            first.stop()
            if second is not None:
                assert second.stop() == 0
        reference = full_graph(versions[-1])
        assert result["edges"] == reference.edge_dicts()
        assert result["dot"] == reference.to_dot()

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
