"""Ablation benchmarks for the paper's three design choices.

1. **Cascading vs. backup-only** — decide the workload's unique systems
   with the full cascade vs. going straight to Fourier-Motzkin: the
   cascade exists because cheap special cases dominate.
2. **Memoization on/off** — the same query stream with and without the
   two-table scheme.
3. **Pruning decomposition** — direction-vector test counts under each
   combination of unused-variable elimination and distance pruning,
   isolating each optimization's contribution to the Table 4 -> 5 drop.
"""

import time

from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer
from repro.deptests.fourier_motzkin import FourierMotzkinTest
from repro.harness.timing import representative_system
from repro.perfect import PROGRAM_SPECS, generate_program


def _unique_queries(max_programs=6):
    out = []
    for spec in PROGRAM_SPECS[:max_programs]:
        seen = set()
        for query in generate_program(spec):
            key = (query.ref1, query.ref2, query.nest1)
            if key in seen or query.bucket == "constant":
                continue
            seen.add(key)
            out.append(query)
    return out


def test_bench_cascade_vs_fm_only(benchmark, capsys):
    """The cascade should comfortably beat a Fourier-Motzkin-only policy."""
    systems = [
        representative_system(name, idx)
        for name in ("svpc", "acyclic", "loop_residue")
        for idx in range(6)
    ]
    fm = FourierMotzkinTest()
    analyzer = DependenceAnalyzer()

    def measure():
        start = time.perf_counter()
        for _ in range(50):
            for system in systems:
                analyzer._run_cascade(system, record=False)
        t_cascade = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(50):
            for system in systems:
                fm.run(system)
        t_fm = time.perf_counter() - start
        return t_cascade, t_fm

    t_cascade, t_fm = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            f"cascade {1e3 * t_cascade:.1f} ms vs FM-only {1e3 * t_fm:.1f} ms "
            f"({t_fm / t_cascade:.1f}x)"
        )
    assert t_cascade < t_fm


def test_bench_memoization_ablation(benchmark, capsys):
    """Full query stream: memo off vs the paper's two-table scheme."""
    spec = next(s for s in PROGRAM_SPECS if s.name == "SR")  # most repetitive
    queries = generate_program(spec)

    def run(memoizer):
        analyzer = DependenceAnalyzer(memoizer=memoizer, want_witness=False)
        start = time.perf_counter()
        for query in queries:
            analyzer.analyze(query.ref1, query.nest1, query.ref2, query.nest2)
        return time.perf_counter() - start, sum(
            analyzer.stats.decided_by.values()
        )

    def measure():
        return run(None), run(Memoizer())

    (t_off, tests_off), (t_on, tests_on) = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(
            f"SR without memo: {tests_off} tests, {1e3 * t_off:.0f} ms; "
            f"with memo: {tests_on} tests, {1e3 * t_on:.0f} ms"
        )
    assert tests_on < tests_off / 10  # paper: 1,290 -> 14 on SR


def test_bench_pruning_decomposition(benchmark, capsys):
    """Which pruning contributes what to the Table 4 -> Table 5 drop."""
    queries = _unique_queries()

    def run(prune_unused, prune_distance):
        analyzer = DependenceAnalyzer(
            memoizer=Memoizer(),
            want_witness=False,
            eliminate_unused=prune_unused,
        )
        for query in queries:
            analyzer.directions(
                query.ref1,
                query.nest1,
                query.ref2,
                query.nest2,
                prune_unused=prune_unused,
                prune_distance=prune_distance,
            )
        return sum(analyzer.stats.direction_tests.values())

    def measure():
        return {
            "none": run(False, False),
            "unused only": run(True, False),
            "distance only": run(False, True),
            "both (Table 5)": run(True, True),
        }

    counts = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        for label, count in counts.items():
            print(f"  {label:16s} {count:6,} direction tests")
    assert counts["both (Table 5)"] < counts["unused only"] <= counts["none"]
    assert counts["both (Table 5)"] < counts["distance only"] <= counts["none"]

