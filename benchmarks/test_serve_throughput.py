"""Benchmark: the dependence daemon under concurrent client load.

Workload: the synthetic PERFECT corpus serialized to wire queries and
split across ``N_CLIENTS`` concurrent TCP clients, each issuing its
slice as individual request/response round trips (the latency-bound
shape an editor or build integration produces).  Two passes run against
one server:

* **cold** — the server starts with empty memo tables; every unique
  problem pays its analysis;
* **warm** — the same stream again; the shared tables answer from
  memory.

Emits ``BENCH_serve.json`` at the repository root with throughput
(qps), per-request latency percentiles (p50/p99) and the warm-pass
cache hit rate.  The wall-clock numbers vary across runners; the gated
metric is the warm hit rate (the serving layer's whole point: a warm
second run must answer >=90% of queries from cache).
"""

import json
import pathlib
import threading
import time

from repro.core.engine import queries_from_suite
from repro.ir.serde import query_to_dict
from repro.obs.hostmeta import host_metadata
from repro.perfect import load_suite
from repro.serve.client import Client
from repro.serve.server import DependenceServer, ServeConfig

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_serve.json"
)
N_CLIENTS = 8
SCALE = 0.02


def _wire_queries():
    queries = queries_from_suite(
        load_suite(include_symbolic=True, scale=SCALE)
    )
    return [
        {
            "query": query_to_dict(q.ref1, q.nest1, q.ref2, q.nest2),
            "directions": True,
        }
        for q in queries
    ]


def _run_pass(host, port, params_list):
    """One full stream across N_CLIENTS concurrent clients.

    Returns (elapsed_s, per-request latencies in seconds).
    """
    slices = [params_list[i::N_CLIENTS] for i in range(N_CLIENTS)]
    latencies: list[list[float]] = [[] for _ in range(N_CLIENTS)]
    errors: list[BaseException] = []

    def worker(index):
        try:
            with Client(
                f"tcp://{host}:{port}", timeout=120.0, retry_for=5.0
            ) as client:
                for params in slices[index]:
                    start = time.perf_counter()
                    result = client.analyze(**params)
                    latencies[index].append(time.perf_counter() - start)
                    assert "dependent" in result
        except BaseException as err:  # pragma: no cover
            errors.append(err)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(N_CLIENTS)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, [lat for per in latencies for lat in per]


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _bounds_counters(client):
    stats = client.stats()
    tables = stats["cache"]
    # A zero-copy fast-lane answer never probes the memo tables; it is
    # still a query answered from cache, so it counts on both sides.
    fastlane = stats["registry"]["scalars"].get("serve.fastlane.hits", 0)
    return (
        tables["no_bounds"]["queries"]
        + tables["with_bounds"]["queries"]
        + fastlane,
        tables["no_bounds"]["hits"] + tables["with_bounds"]["hits"] + fastlane,
    )


def test_bench_serve_throughput(benchmark, capsys):
    """Concurrent serving: warm pass answers >=90% from cache."""
    params_list = _wire_queries()
    server = DependenceServer(
        ServeConfig(announce=False, queue_limit=50_000)
    )
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.started.wait(10)
    host, port = server.bound_host, server.bound_port

    def measure():
        control = Client(f"tcp://{host}:{port}", retry_for=5.0)
        t_cold, lat_cold = _run_pass(host, port, params_list)
        cold_queries, cold_hits = _bounds_counters(control)
        t_warm, lat_warm = _run_pass(host, port, params_list)
        warm_queries, warm_hits = _bounds_counters(control)
        control.close()
        warm_hit_rate = (warm_hits - cold_hits) / (
            warm_queries - cold_queries
        )
        return t_cold, lat_cold, t_warm, lat_warm, warm_hit_rate

    t_cold, lat_cold, t_warm, lat_warm, warm_hit_rate = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    server.request_shutdown()
    thread.join(15)

    n = len(params_list)
    payload = {
        **host_metadata(),
        "queries": n,
        "clients": N_CLIENTS,
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "cold_qps": round(n / t_cold, 1),
        "warm_qps": round(n / t_warm, 1),
        "cold_p50_ms": round(1e3 * _percentile(lat_cold, 0.50), 3),
        "cold_p99_ms": round(1e3 * _percentile(lat_cold, 0.99), 3),
        "warm_p50_ms": round(1e3 * _percentile(lat_warm, 0.50), 3),
        "warm_p99_ms": round(1e3 * _percentile(lat_warm, 0.99), 3),
        "warm_hit_rate": round(warm_hit_rate, 4),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print()
        print(
            f"  cold {payload['cold_qps']} qps "
            f"(p50 {payload['cold_p50_ms']} ms, "
            f"p99 {payload['cold_p99_ms']} ms); warm "
            f"{payload['warm_qps']} qps "
            f"(p50 {payload['warm_p50_ms']} ms, "
            f"p99 {payload['warm_p99_ms']} ms)"
        )
        print(f"  warm cache hit rate {warm_hit_rate:.1%}")
        print(f"  wrote {BENCH_PATH.name}")

    # Acceptance: the warm stream answers >=90% of memo probes from
    # the shared tables.
    assert warm_hit_rate >= 0.90
