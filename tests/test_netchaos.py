"""Tests for the seeded network-chaos proxy (repro.robust.netchaos).

Mirrors ``tests/test_chaos.py`` one layer down: every fault the proxy
injects is a pure SHA-256 function of ``(seed, site, conn, frame)``,
so the tests precompute fault schedules with :meth:`NetFaultPlan.peek`
and then assert the live proxy injected *exactly* those faults — and
that the resilient client recovers to bit-identical answers through
all of them, a daemon restart included.
"""

import socket
import threading

import pytest

from repro.api import DependenceReport
from repro.core.engine import PairQuery, analyze_batch
from repro.fuzz.generator import generate_cases
from repro.ir.serde import query_to_dict
from repro.robust.netchaos import (
    CONNECT_KINDS,
    DELAY,
    DROP,
    FRAME_KINDS,
    PARTITION,
    RESET,
    SITE_CONNECT,
    SITE_REQUEST,
    SITE_RESPONSE,
    TORN,
    ChaosProxy,
    NetFaultPlan,
)
from repro.serve import protocol
from repro.serve.client import (
    CircuitBreaker,
    Client,
    RetryPolicy,
    TransportError,
)
from repro.serve.server import ServeConfig

from tests.test_serve_server import SOURCE, _RunningServer


class TestNetFaultPlan:
    def test_rates_are_validated(self):
        with pytest.raises(ValueError, match="drop_rate"):
            NetFaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError, match="torn_rate"):
            NetFaultPlan(torn_rate=-0.1)
        with pytest.raises(ValueError, match="partition_conns"):
            NetFaultPlan(partition_conns=0)

    def test_json_roundtrip(self):
        plan = NetFaultPlan(
            seed=9, drop_rate=0.1, torn_rate=0.2, delay_s=0.01, partition_conns=2
        )
        assert NetFaultPlan.from_json(plan.to_json()) == plan

    def test_uniform_is_pure_and_seed_sensitive(self):
        plan = NetFaultPlan(seed=3)
        for key in ("0", "1:5", "2:0"):
            draw = plan.uniform(SITE_REQUEST, key)
            assert 0.0 <= draw < 1.0
            assert draw == NetFaultPlan(seed=3).uniform(SITE_REQUEST, key)
            assert draw != NetFaultPlan(seed=4).uniform(SITE_REQUEST, key)
        assert plan.uniform(SITE_REQUEST, "0:0") != plan.uniform(
            SITE_RESPONSE, "0:0"
        )

    def test_peek_walks_cumulative_thresholds(self):
        # rate 1.0 on the first kind of each site tuple wins everything.
        assert NetFaultPlan(delay_rate=1.0).peek(SITE_CONNECT, 0) == DELAY
        assert NetFaultPlan(drop_rate=1.0).peek(SITE_REQUEST, 0, 0) == DROP
        assert NetFaultPlan(reset_rate=1.0).peek(SITE_RESPONSE, 3, 7) == RESET

    def test_kinds_are_site_scoped(self):
        # torn is a frame fault; partition is a connect fault.  A plan
        # that only tears can never fault a connect, and vice versa.
        torn_only = NetFaultPlan(torn_rate=1.0)
        assert torn_only.peek(SITE_CONNECT, 0) is None
        assert torn_only.peek(SITE_REQUEST, 0, 0) == TORN
        partition_only = NetFaultPlan(partition_rate=1.0)
        assert partition_only.peek(SITE_CONNECT, 0) == PARTITION
        assert partition_only.peek(SITE_RESPONSE, 0, 0) is None
        assert TORN not in CONNECT_KINDS and PARTITION not in FRAME_KINDS

    def test_peek_rejects_unknown_sites(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            NetFaultPlan().peek("disk", 0)

    def test_zero_rates_never_fault(self):
        plan = NetFaultPlan(seed=42)
        for conn in range(50):
            assert plan.peek(SITE_CONNECT, conn) is None
            for frame in range(10):
                assert plan.peek(SITE_REQUEST, conn, frame) is None
                assert plan.peek(SITE_RESPONSE, conn, frame) is None


class _RunningProxy:
    """A ChaosProxy on a background thread, shut down on exit."""

    def __init__(self, plan: NetFaultPlan, upstream: _RunningServer):
        self.proxy = ChaosProxy(
            plan,
            upstream.server.bound_host,
            upstream.server.bound_port,
        )
        self.thread = threading.Thread(target=self.proxy.run, daemon=True)
        self.thread.start()
        assert self.proxy.started.wait(10), "proxy did not start"

    @property
    def endpoint(self) -> str:
        return f"tcp://{self.proxy.bound_host}:{self.proxy.bound_port}"

    def stop(self) -> None:
        self.proxy.request_shutdown()
        self.thread.join(10)
        assert not self.thread.is_alive(), "proxy did not stop"


@pytest.fixture
def upstream():
    handle = _RunningServer()
    yield handle
    handle.stop()


@pytest.fixture
def proxied(upstream):
    proxies = []

    def make(plan: NetFaultPlan) -> _RunningProxy:
        handle = _RunningProxy(plan, upstream)
        proxies.append(handle)
        return handle

    yield make
    for handle in proxies:
        handle.stop()


def _storm_client(endpoint: str, **kwargs) -> Client:
    """A resilient client tuned for chaos tests: short socket timeout
    (a dropped frame costs one timeout), generous retry budget, and a
    breaker that will not trip mid-storm."""
    kwargs.setdefault("timeout", 2.0)
    kwargs.setdefault(
        "retry", RetryPolicy(attempts=8, base_delay_s=0.01, deadline_s=60.0)
    )
    kwargs.setdefault("breaker", CircuitBreaker(failure_threshold=1000))
    return Client(endpoint, **kwargs)


class TestChaosProxy:
    def test_zero_rate_plan_is_a_transparent_pipe(self, upstream, proxied):
        handle = proxied(NetFaultPlan(seed=1))
        with upstream.client() as direct:
            expected = direct.analyze(source=SOURCE, pair=0)
        with Client(handle.endpoint, timeout=5.0) as client:
            via_proxy = client.analyze(source=SOURCE, pair=0)
            health = client.health()
        assert via_proxy == expected
        assert health["status"] == "ok"
        assert handle.proxy.injection_log() == []
        assert handle.proxy.registry.get("netchaos.connections") == 1

    def test_connect_reset_is_a_transport_error(self, proxied):
        handle = proxied(NetFaultPlan(seed=1, reset_rate=1.0))
        with pytest.raises((TransportError, ConnectionError)):
            with Client(handle.endpoint, timeout=2.0) as client:
                client.health()
        assert (SITE_CONNECT, "0", RESET) in handle.proxy.injection_log()

    def test_torn_response_reaches_the_client_as_partial_bytes(self, proxied):
        # Pick a seed whose schedule leaves the request frame alone but
        # tears the response — peek makes the search exact, not flaky.
        seed = next(
            s
            for s in range(10_000)
            if (plan := NetFaultPlan(seed=s, torn_rate=0.5)).peek(
                SITE_REQUEST, 0, 0
            )
            is None
            and plan.peek(SITE_RESPONSE, 0, 0) == TORN
        )
        handle = proxied(NetFaultPlan(seed=seed, torn_rate=0.5))
        with Client(handle.endpoint, timeout=5.0) as client:
            with pytest.raises(TransportError) as excinfo:
                client.health()
        err = excinfo.value
        assert "torn frame" in err.detail
        assert err.partial is not None and not err.partial.endswith(b"\n")
        assert (SITE_RESPONSE, "0:0", TORN) in handle.proxy.injection_log()

    def test_partition_refuses_a_window_of_connects(self, proxied):
        handle = proxied(
            NetFaultPlan(seed=0, partition_rate=1.0, partition_conns=2)
        )
        # conn 0 opens the partition; conn 1 falls inside the window;
        # conn 2 would roll again (rate 1.0 keeps it partitioned too,
        # which is fine — the window accounting is what we check).
        for _ in range(2):
            with pytest.raises((TransportError, ConnectionError, OSError)):
                with Client(handle.endpoint, timeout=2.0) as client:
                    client.health()
        log = handle.proxy.injection_log()
        assert log[0] == (SITE_CONNECT, "0", PARTITION)
        assert log[1] == (SITE_CONNECT, "1", PARTITION)

    def test_resilient_client_recovers_bit_identical_answers(
        self, upstream, proxied
    ):
        plan = NetFaultPlan(
            seed=11,
            delay_rate=0.05,
            drop_rate=0.02,
            reset_rate=0.05,
            torn_rate=0.05,
            delay_s=0.01,
        )
        handle = proxied(plan)
        with upstream.client() as direct:
            expected = direct.analyze(source=SOURCE, pair=0)
        with _storm_client(handle.endpoint) as client:
            answers = [
                client.analyze(source=SOURCE, pair=0) for _ in range(30)
            ]
            reconnects = client.registry.get("client.reconnects")
        assert answers == [expected] * 30
        # The run must actually have been stormy, or this proves nothing.
        assert handle.proxy.injection_log(), "no faults injected"
        assert reconnects > 0, "chaos never forced a reconnect"

    def test_injection_log_is_exactly_the_peek_schedule(
        self, upstream, proxied
    ):
        plan = NetFaultPlan(
            seed=23, drop_rate=0.02, reset_rate=0.06, torn_rate=0.06, delay_s=0.01
        )
        handle = proxied(plan)
        with _storm_client(handle.endpoint) as client:
            for _ in range(15):
                client.health()
        log = handle.proxy.injection_log()
        assert log, "no faults injected"
        for site, key, kind in log:
            if site == SITE_CONNECT:
                conn, frame = int(key), None
                if kind == PARTITION and plan.peek(site, conn) != PARTITION:
                    continue  # a window refusal, not a fresh roll
            else:
                conn_text, frame_text = key.split(":")
                conn, frame = int(conn_text), int(frame_text)
            assert plan.peek(site, conn, frame) == kind, (site, key, kind)

    def test_chaotic_session_matches_a_clean_session(
        self, upstream, proxied
    ):
        from tests.test_serve_server import TestIncrementalSessions

        _, sources = TestIncrementalSessions._sources(
            None, seed=31, statements=6, arrays=3, edits=6
        )
        with upstream.client() as direct:
            sid = direct.open_session(source=sources[0])["session"]
            for source in sources[1:]:
                direct.update_source(sid, source)
            clean = direct.graph(sid)
        # Rates are modest on purpose: a journal replay must finish on
        # one connection, so its success probability per attempt is
        # (1 - fault_rate) ** journal_frames — keep that well above 1/2.
        plan = NetFaultPlan(
            seed=5, reset_rate=0.04, torn_rate=0.02, delay_rate=0.05, delay_s=0.01
        )
        handle = proxied(plan)
        with _storm_client(handle.endpoint) as client:
            opened = client.open_session(source=sources[0])
            chaos_sid = opened["session"]
            for source in sources[1:]:
                client.update_source(chaos_sid, source)
            stormy = client.graph(chaos_sid)
        assert handle.proxy.injection_log(), "no faults injected"
        assert stormy["edges"] == clean["edges"]
        assert stormy["dot"] == clean["dot"]


N_FUZZ_CASES = 500


@pytest.fixture(scope="module")
def fuzz_workload():
    """500 fuzz queries plus the serial batch engine's wire answers."""
    cases = generate_cases(seed=7, iterations=N_FUZZ_CASES)
    queries = [
        PairQuery(case.ref1, case.nest1, case.ref2, case.nest2)
        for case in cases
    ]
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
                "query": query_to_dict(q.ref1, q.nest1, q.ref2, q.nest2),
                "directions": True,
            },
        )
        for q in queries
    ]
    return calls, expected


class TestNetchaosStorm:
    """The acceptance storm, in-process: the 500-query fuzz workload
    through a seeded chaos proxy in front of a daemon that is replaced
    on the same port halfway through.  Zero lost queries, bit-identical
    answers: the resilient client absorbs every injected fault and the
    restart."""

    CHUNK = 25

    def test_storm_with_a_daemon_restart_is_bit_identical(self, fuzz_workload):
        calls, expected = fuzz_workload
        first = _RunningServer()
        # Rates are calibrated to the retry budget: a chunk of 25 calls
        # is ~50 frames per round, so the per-round survival probability
        # at ~1.3% fatal faults per frame stays above one half and every
        # failed round still banks the answers that arrived before the
        # cut.  drop_rate stays tiny because every dropped frame costs
        # the client a full socket timeout before it can retry.
        plan = NetFaultPlan(
            seed=13,
            delay_rate=0.02,
            drop_rate=0.001,
            reset_rate=0.006,
            torn_rate=0.006,
            delay_s=0.005,
        )
        proxy = _RunningProxy(plan, first)
        second = None
        try:
            client = _storm_client(
                proxy.endpoint,
                retry=RetryPolicy(
                    attempts=12, base_delay_s=0.01, deadline_s=120.0
                ),
                breaker=CircuitBreaker(failure_threshold=10_000),
            )
            results = []
            with client:
                for start in range(0, len(calls), self.CHUNK):
                    if start == len(calls) // 2:
                        # Mid-storm: the daemon drains away and a fresh
                        # one takes its port, while the proxy keeps
                        # mangling the client link.
                        assert first.stop() == 0
                        second = _RunningServer(
                            ServeConfig(
                                announce=False, port=first.server.bound_port
                            )
                        )
                    results.extend(
                        client.call_many(calls[start : start + self.CHUNK])
                    )
                reconnects = client.registry.get("client.reconnects")
            assert len(results) == len(expected)
            mismatches = [
                index
                for index, (got, want) in enumerate(zip(results, expected))
                if got != want
            ]
            assert mismatches == [], f"{len(mismatches)} answers diverged"
            # The run must actually have been stormy, or it proves nothing.
            assert proxy.proxy.injection_log(), "no faults injected"
            assert reconnects > 0, "chaos never forced a reconnect"
        finally:
            proxy.stop()
            first.stop()
            if second is not None:
                assert second.stop() == 0


class TestUpstreamDeath:
    def test_upstream_vanishing_is_counted_and_aborted(self, proxied):
        # Point the proxy at a dead port: connects are accepted, then
        # aborted, and the upstream_unreachable counter records why.
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))
        port = dead.getsockname()[1]
        dead.close()
        proxy = ChaosProxy(NetFaultPlan(), "127.0.0.1", port)
        thread = threading.Thread(target=proxy.run, daemon=True)
        thread.start()
        assert proxy.started.wait(10)
        try:
            with pytest.raises((TransportError, ConnectionError, OSError)):
                with Client(
                    f"tcp://{proxy.bound_host}:{proxy.bound_port}", timeout=2.0
                ) as client:
                    client.health()
            assert proxy.registry.get("netchaos.upstream_unreachable") == 1
        finally:
            proxy.request_shutdown()
            thread.join(10)
