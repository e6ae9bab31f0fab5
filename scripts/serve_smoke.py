#!/usr/bin/env python
"""CI smoke test for the dependence daemon (repro.serve).

End-to-end, at the process level:

1. start ``python -m repro serve`` as a subprocess and read the
   announced port;
2. fire 200 queries from 8 concurrent clients (each client pipelines
   the full stream) and assert every response is **bit-identical** to
   a serial ``analyze_batch`` run over the same queries;
3. send the 200 queries again from one client with every array
   renamed to ``r_<name>``, and assert each answer is the serial one
   with ``r_`` on both refs and that all 200 were fast-lane hits: the
   lane keys a query with its shared array name blanked;
4. SIGTERM the daemon while a second wave of load is in flight and
   assert a clean drain: the process exits 0 and every response that
   did arrive is either a correct answer or an explicit
   ``shutting_down`` error — never garbage, never a hang.

With ``--netchaos`` the script runs the *resilience* storm instead: a
seeded :class:`~repro.robust.netchaos.ChaosProxy` sits between the
client and one daemon, injecting delays, drops, resets and torn frames
while

1. a resilient client pushes 500 fuzz queries through the proxy in
   pipelined chunks, with the daemon ``kill -9``'d mid-storm and
   restarted on the same port — zero lost queries, every answer
   bit-identical to serial ``analyze_batch``;
2. a durable incremental session applies 50 edits through the same
   proxy (the daemon is killed and restarted again mid-session) and its
   final graph is bit-identical to an uninterrupted ``full_graph`` run;
3. the ``client.*`` and ``netchaos.*`` counters land in
   ``netchaos_stats.json`` as the CI artifact;
4. SIGTERM drains the last daemon with exit code 0.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import subprocess
import sys
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api import DependenceReport  # noqa: E402
from repro.core.engine import analyze_batch, queries_from_suite  # noqa: E402
from repro.ir.serde import query_to_dict  # noqa: E402
from repro.perfect import load_suite  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.serve.client import Client, ServeError  # noqa: E402

N_QUERIES = 200
N_CLIENTS = 8

NETCHAOS_QUERIES = 500
NETCHAOS_EDITS = 50
NETCHAOS_CHUNK = 25
NETCHAOS_STATS_OUT = "netchaos_stats.json"


def wire_workload(queries):
    """The ``analyze`` calls for ``queries`` plus the serial batch
    engine's wire answers to them."""
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


def build_workload():
    queries = queries_from_suite(
        load_suite(include_symbolic=True, scale=0.02)
    )[:N_QUERIES]
    assert len(queries) == N_QUERIES, f"corpus too small: {len(queries)}"
    return wire_workload(queries)


def start_server(port: int = 0) -> tuple[subprocess.Popen, str, int]:
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(port),
            "--queue-limit",
            "50000",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=30)
        raise RuntimeError(
            f"daemon exited {proc.returncode} before announcing: "
            f"{proc.stderr.read()[-2000:]}"
        )
    announce = json.loads(line)["serving"]
    return proc, announce["host"], announce["port"]


def check_bit_identical(host: str, port: int, calls, expected) -> list[str]:
    failures: list[str] = []

    def worker(index: int):
        try:
            with Client(
                f"tcp://{host}:{port}", timeout=120.0, retry_for=10.0
            ) as client:
                results = client.call_many(calls)
            for i, (got, want) in enumerate(zip(results, expected)):
                if got != want:
                    failures.append(
                        f"client {index} query {i}: {got!r} != {want!r}"
                    )
                    return
        except Exception as err:
            failures.append(f"client {index}: {err!r}")

    # Daemon threads: a hung client is reported, and cannot keep the
    # script from exiting.
    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    for index, t in enumerate(threads):
        t.join(300)
        if t.is_alive():
            failures.append(f"client {index} still running after 300s")
    return failures


def check_renamed_repeats(host: str, port: int, calls, expected) -> list[str]:
    """The stream again under ``r_``-prefixed array names, after the
    bit-identity wave answered it: every request a fast-lane hit, every
    answer the serial one under the new names."""

    def rename(query: dict) -> dict:
        return {
            **query,
            **{
                ref: {**query[ref], "array": "r_" + query[ref]["array"]}
                for ref in ("ref1", "ref2")
            },
        }

    renamed = [
        (op, {**params, "query": rename(params["query"])}) for op, params in calls
    ]
    with Client(f"tcp://{host}:{port}", timeout=120.0) as client:
        before = fastlane_hits(client)
        results = client.call_many(renamed)
        hits = fastlane_hits(client) - before
    for i, (got, want) in enumerate(zip(results, expected)):
        want = {**want, "ref1": "r_" + want["ref1"], "ref2": "r_" + want["ref2"]}
        if got != want:
            return [f"renamed query {i}: {got!r} != {want!r}"]
    if hits != len(calls):
        return [f"{hits} fast-lane hits for {len(calls)} renamed repeats"]
    return []


def fastlane_hits(client) -> int:
    return client.stats()["registry"]["scalars"].get("serve.fastlane.hits", 0)


def check_sigterm_drain(proc, host, port, calls, expected) -> list[str]:
    """SIGTERM mid-load: exit 0, and nothing but answers or explicit
    shutting_down errors come back."""
    failures: list[str] = []
    fired = threading.Event()

    def loader():
        try:
            with Client(f"tcp://{host}:{port}", timeout=120.0) as client:
                for i, (op, params) in enumerate(calls):
                    if i == 20:
                        fired.set()  # enough in flight: time to SIGTERM
                    try:
                        got = client.call(op, params)
                        if got != expected[i]:
                            failures.append(
                                f"drain query {i}: {got!r} != {expected[i]!r}"
                            )
                            return
                    except ServeError as err:
                        if err.code != protocol.ErrorCode.SHUTTING_DOWN:
                            failures.append(
                                f"drain query {i}: unexpected {err!r}"
                            )
                        return
        except (ConnectionError, OSError):
            pass  # the drain closed the connection after in-flight work

    threads = [
        threading.Thread(target=loader, daemon=True) for _ in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    assert fired.wait(60), "load never ramped"
    proc.send_signal(signal.SIGTERM)
    for index, t in enumerate(threads):
        t.join(60)
        if t.is_alive():
            failures.append(
                f"drain client {index} still running 60s after SIGTERM"
            )
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        failures.append("server did not exit within 60s of SIGTERM")
        return failures
    if code != 0:
        failures.append(f"server exited {code}, expected 0 after drain")
    return failures


def build_fuzz_workload(n: int):
    """n fuzz queries plus the serial batch engine's wire answers."""
    from repro.core.engine import PairQuery
    from repro.fuzz.generator import generate_cases

    cases = generate_cases(seed=7, iterations=n)
    return wire_workload(
        [
            PairQuery(case.ref1, case.nest1, case.ref2, case.nest2)
            for case in cases
        ]
    )


def build_session_workload(edits: int):
    """An edit storm plus the clean final graph it must converge to."""
    import random

    from repro.core.incremental import full_graph
    from repro.fuzz.edits import mutate, storm_program
    from repro.lang.unparse import program_to_source

    rng = random.Random(41)
    program = storm_program(41, statements=8, arrays=4)
    sources = [program_to_source(program)]
    for _ in range(edits):
        program, _ = mutate(program, rng, arrays=4)
        sources.append(program_to_source(program))
    reference = full_graph(program)
    return sources, reference.edge_dicts(), reference.to_dot()


def kill_and_restart(proc: subprocess.Popen, port: int) -> subprocess.Popen:
    """``kill -9`` the daemon, then start a fresh one on its port."""
    proc.kill()
    proc.wait(timeout=30)
    start = time.perf_counter()
    fresh, _host, bound = start_server(port)
    assert bound == port, (bound, port)
    print(
        f"  kill -9 of pid {proc.pid}; pid {fresh.pid} serves port {port} "
        f"after {time.perf_counter() - start:.2f}s"
    )
    return fresh


def run_netchaos(seed: int) -> int:
    from repro.robust.netchaos import ChaosProxy, NetFaultPlan
    from repro.serve.client import CircuitBreaker, RetryPolicy

    print(
        f"building workloads: {NETCHAOS_QUERIES} fuzz queries + "
        f"{NETCHAOS_EDITS}-edit session, serial references ..."
    )
    calls, expected = build_fuzz_workload(NETCHAOS_QUERIES)
    sources, ref_edges, ref_dot = build_session_workload(NETCHAOS_EDITS)

    print("starting daemon ...")
    proc, host, port = start_server()

    # Rates are calibrated to the retry budget (see the in-process twin
    # in tests/test_netchaos.py): each fatal fault costs a retry round,
    # and drops additionally cost a socket timeout.
    plan = NetFaultPlan(
        seed=seed,
        delay_rate=0.02,
        drop_rate=0.001,
        reset_rate=0.006,
        torn_rate=0.006,
        delay_s=0.005,
    )
    proxy = ChaosProxy(plan, host, port)
    proxy_thread = threading.Thread(target=proxy.run, daemon=True)
    proxy_thread.start()
    assert proxy.started.wait(10), "proxy did not start"
    endpoint = f"tcp://{proxy.bound_host}:{proxy.bound_port}"

    def resilient_client() -> Client:
        return Client(
            endpoint,
            timeout=5.0,
            retry_for=10.0,
            retry=RetryPolicy(attempts=12, base_delay_s=0.01, deadline_s=300.0),
            breaker=CircuitBreaker(failure_threshold=100_000),
        )

    try:
        print(
            f"chaos storm on {endpoint} -> {host}:{port} (seed {seed}): "
            f"{NETCHAOS_QUERIES} queries in chunks of {NETCHAOS_CHUNK}, "
            "daemon killed and restarted mid-storm ..."
        )
        client = resilient_client()
        results = []
        with client:
            for start in range(0, len(calls), NETCHAOS_CHUNK):
                if start == len(calls) // 2:
                    proc = kill_and_restart(proc, port)
                results.extend(
                    client.call_many(calls[start : start + NETCHAOS_CHUNK])
                )
            query_counters = client.registry.counter_snapshot()["scalars"]
        if len(results) != len(expected):
            print(
                f"FAIL: {len(results)}/{len(expected)} answers",
                file=sys.stderr,
            )
            return 1
        mismatches = [
            i for i, (g, w) in enumerate(zip(results, expected)) if g != w
        ]
        if mismatches:
            i = mismatches[0]
            print(
                f"FAIL: {len(mismatches)} answers diverged; first at "
                f"{i}: {results[i]!r} != {expected[i]!r}",
                file=sys.stderr,
            )
            return 1
        if not proxy.injection_log():
            print("FAIL: chaos proxy injected nothing", file=sys.stderr)
            return 1
        print(
            f"ok: zero lost queries, {len(results)} answers bit-identical "
            f"through {len(proxy.injection_log())} injected faults "
            f"({dict(proxy.injected_counts())})"
        )

        print(
            f"durable session: {NETCHAOS_EDITS} edits through the proxy, "
            "daemon killed and restarted mid-session ..."
        )
        client = resilient_client()
        with client:
            sid = client.open_session(source=sources[0])["session"]
            for index, source in enumerate(sources[1:]):
                if index == NETCHAOS_EDITS // 2:
                    proc = kill_and_restart(proc, port)
                client.update_source(sid, source)
            graph = client.graph(sid)
            session_counters = client.registry.counter_snapshot()["scalars"]
        if not session_counters.get("client.session_replays"):
            print(
                "FAIL: the daemon holding the session died yet the "
                "journal was never replayed",
                file=sys.stderr,
            )
            return 1
        if graph["edges"] != ref_edges or graph["dot"] != ref_dot:
            print(
                "FAIL: session graph diverged from the clean full_graph run",
                file=sys.stderr,
            )
            return 1
        print(
            "ok: final session graph bit-identical to an uninterrupted "
            f"run (replays: {session_counters['client.session_replays']})"
        )

        artifact = {
            "seed": seed,
            "daemon_restarts": 2,
            "queries": NETCHAOS_QUERIES,
            "edits": NETCHAOS_EDITS,
            "plan": json.loads(plan.to_json()),
            "injected": dict(proxy.injected_counts()),
            "proxy_counters": proxy.registry.counter_snapshot()["scalars"],
            "query_client_counters": query_counters,
            "session_client_counters": session_counters,
        }
        pathlib.Path(NETCHAOS_STATS_OUT).write_text(
            json.dumps(artifact, indent=2, sort_keys=True)
        )
        print(f"wrote {NETCHAOS_STATS_OUT}")

        print("SIGTERM the daemon ...")
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            print("FAIL: daemon did not exit", file=sys.stderr)
            return 1
        if code != 0:
            print(f"FAIL: daemon exited {code}", file=sys.stderr)
            print(proc.stderr.read()[-4000:], file=sys.stderr)
            return 1
        print("ok: clean drain, exit code 0")
        return 0
    finally:
        proxy.request_shutdown()
        proxy_thread.join(10)
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def main() -> int:
    print(f"building workload: {N_QUERIES} queries, serial reference ...")
    calls, expected = build_workload()

    print("starting daemon ...")
    proc, host, port = start_server()
    try:
        print(
            f"serving on {host}:{port}; firing {N_CLIENTS} concurrent "
            f"clients x {N_QUERIES} queries ..."
        )
        failures = check_bit_identical(host, port, calls, expected)
        if failures:
            print(f"FAIL: {failures[0]}", file=sys.stderr)
            return 1
        print(
            f"ok: {N_CLIENTS * N_QUERIES} responses bit-identical to "
            "serial analyze_batch"
        )

        print(f"renamed repeats: {N_QUERIES} queries under r_<name> ...")
        failures = check_renamed_repeats(host, port, calls, expected)
        if failures:
            print(f"FAIL: {failures[0]}", file=sys.stderr)
            return 1
        print(
            f"ok: {N_QUERIES} renamed repeats bit-identical, all fast-lane hits"
        )

        print("SIGTERM mid-load ...")
        failures = check_sigterm_drain(proc, host, port, calls, expected)
        if failures:
            print(f"FAIL: {failures[0]}", file=sys.stderr)
            return 1
        print("ok: clean drain, exit code 0")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument(
        "--netchaos",
        action="store_true",
        help="run the seeded chaos-proxy resilience storm instead",
    )
    cli.add_argument(
        "--seed", type=int, default=13, help="netchaos fault-plan seed"
    )
    options = cli.parse_args()
    start = time.perf_counter()
    status = run_netchaos(options.seed) if options.netchaos else main()
    print(f"serve smoke finished in {time.perf_counter() - start:.1f}s")
    sys.exit(status)
