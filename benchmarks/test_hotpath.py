"""Benchmark: the query inner loop and byte-keyed memo.

Three micro-costs govern warm serving and batch throughput:

* **memo probe** — a warm with-bounds hit must be one native dict
  lookup on an interned byte key (no tuple construction, no bucket
  walk);
* **key intern** — zigzag-varint encoding plus intern of a problem's
  key vector, the per-unique-problem cost of entering the byte
  keyspace;
* **warm query** — a full ``analyze`` + ``directions`` round trip when
  every answer comes from the memo tables.

Emits ``BENCH_hotpath.json`` at the repository root.  Raw nanosecond
numbers vary across runners and are recorded for the perf trajectory
only; the regression gate consumes the within-run ``warm_speedup``
ratio (cold stream vs warm stream, measured seconds apart on one
machine) and the exact workload size.
"""

import json
import pathlib
import time

from repro.core.analyzer import DependenceAnalyzer
from repro.core.engine import queries_from_suite
from repro.core.memo import Memoizer, encode_key, intern_key
from repro.obs.hostmeta import host_metadata
from repro.perfect import load_suite
from repro.system.depsystem import build_problem

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
)
SCALE = 0.1


def _queries():
    return queries_from_suite(load_suite(include_symbolic=True, scale=SCALE))


def _stream(analyzer, queries):
    start = time.perf_counter()
    for q in queries:
        analyzer.analyze(q.ref1, q.nest1, q.ref2, q.nest2)
        analyzer.directions(q.ref1, q.nest1, q.ref2, q.nest2)
    return time.perf_counter() - start


def test_bench_hotpath(benchmark, capsys):
    """Warm stream >=2x cold; probe/intern costs recorded for trending."""
    queries = _queries()

    def measure():
        analyzer = DependenceAnalyzer(memoizer=Memoizer(), want_witness=False)
        t_cold = _stream(analyzer, queries)
        t_warm = _stream(analyzer, queries)

        # Memo probe: repeated warm lookups over the table's own keys.
        table = analyzer.memoizer.with_bounds
        keys = [key for key, _ in table.items()][:512]
        reps = max(1, 200_000 // len(keys))
        start = time.perf_counter()
        for _ in range(reps):
            for key in keys:
                table.lookup(key)
        probe_ns = (time.perf_counter() - start) / (reps * len(keys)) * 1e9

        # Key intern: encode + intern the integer key vectors of real
        # problems (the per-unique-problem byte-keyspace entry cost).
        problems = [
            build_problem(q.ref1, q.nest1, q.ref2, q.nest2)
            for q in queries[:200]
        ]
        vectors = [p.key_vector(with_bounds=True) for p in problems]
        reps = max(1, 50_000 // len(vectors))
        start = time.perf_counter()
        for _ in range(reps):
            for vector in vectors:
                intern_key(encode_key(vector))
        intern_ns = (
            (time.perf_counter() - start) / (reps * len(vectors)) * 1e9
        )
        return t_cold, t_warm, probe_ns, intern_ns

    t_cold, t_warm, probe_ns, intern_ns = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    n = len(queries)
    payload = {
        **host_metadata(),
        "queries": n,
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "warm_speedup": round(t_cold / t_warm, 3),
        "warm_query_us": round(1e6 * t_warm / n, 3),
        "memo_probe_ns": round(probe_ns, 1),
        "key_intern_ns": round(intern_ns, 1),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print()
        print(
            f"  cold {1e3 * t_cold:.1f} ms, warm {1e3 * t_warm:.1f} ms "
            f"({payload['warm_speedup']}x, "
            f"{payload['warm_query_us']} us/warm query)"
        )
        print(
            f"  memo probe {payload['memo_probe_ns']} ns, "
            f"key intern {payload['key_intern_ns']} ns"
        )
        print(f"  wrote {BENCH_PATH.name}")

    # The memo's whole point: a fully warm stream must be much cheaper
    # than the cold one on the same machine seconds earlier.
    assert t_cold / t_warm >= 2.0
