"""Experiments regenerating every table of the paper's evaluation.

Each ``run_tableN`` function executes the synthetic PERFECT workload
through the appropriate analyzer configuration and returns a
:class:`TableResult` holding both per-program rows and the rendered
text.  The configurations map onto the paper:

========  ==========================================================
Table 1   plain queries, no memoization — which test decides each case
Table 2   memoization unique-case percentages, simple vs improved keys
Table 3   test frequencies counting unique cases only
Table 4   direction vectors, naive hierarchical refinement
Table 5   direction vectors with unused-variable + distance pruning
Table 6   dependence-test wall-clock cost per program
Table 7   Table 5 plus symbolic-term cases (section 8)
§7 stats  per-test independent/dependent outcome splits; inexact
          baseline comparison (simple GCD + Banerjee vs the cascade)
========  ==========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api import AnalysisConfig, AnalysisSession
from repro.baselines import BaselineAnalyzer
from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer
from repro.core.stats import TEST_ORDER, AnalyzerStats
from repro.harness.tables import render_table
from repro.obs.metrics import MetricsRegistry
from repro.perfect.programs import PROGRAM_SPECS
from repro.perfect.suite import SuiteProgram, load_suite

__all__ = [
    "TableResult",
    "collect_table1",
    "render_table1",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_outcomes",
    "run_baseline_comparison",
    "ALL_EXPERIMENTS",
]

# Paper-reported f77 -O3 compile seconds per program (Table 6's right
# column); used only to recompute the paper's ~3% overhead claim since
# no Fortran compiler exists in this environment (see DESIGN.md).
PAPER_F77_SECONDS = {
    "AP": 151.4,
    "CS": 485.0,
    "LG": 65.4,
    "LW": 33.0,
    "MT": 45.0,
    "NA": 136.3,
    "OC": 38.2,
    "SD": 62.1,
    "SM": 102.5,
    "SR": 118.5,
    "TF": 116.6,
    "TI": 12.6,
    "WS": 110.0,
}


@dataclass
class TableResult:
    """One regenerated table: machine-readable rows plus rendered text."""

    name: str
    headers: list[str]
    rows: list[list[object]]
    text: str
    extra: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


def _suite(include_symbolic: bool = False, scale: float = 1.0):
    return load_suite(include_symbolic=include_symbolic, scale=scale)


def _run_plain(program: SuiteProgram, memoizer: Memoizer | None) -> AnalyzerStats:
    session = AnalysisSession(
        AnalysisConfig(memo=memoizer is not None, want_witness=False),
        memoizer=memoizer,
    )
    for query in program.queries:
        session.analyze(query.ref1, query.nest1, query.ref2, query.nest2)
    return session.stats


def collect_table1(
    scale: float = 1.0,
) -> list[tuple[str, int, MetricsRegistry]]:
    """Table 1's raw material: one metrics registry per program.

    Registries round-trip through ``to_dict``/``from_dict``, so the
    rendered table regenerates bit-identically from serialized metrics
    (no re-analysis needed).
    """
    collected: list[tuple[str, int, MetricsRegistry]] = []
    for program in _suite(scale=scale):
        stats = _run_plain(program, memoizer=None)
        collected.append((program.name, program.lines, stats.registry))
    return collected


def render_table1(
    collected: list[tuple[str, int, MetricsRegistry]],
) -> TableResult:
    """Render Table 1 from collected registries; pure, no analysis."""
    headers = [
        "Program", "#Lines", "Constant", "GCD",
        "SVPC", "Acyclic", "Loop Residue", "Fourier-Motzkin",
    ]
    rows: list[list[object]] = []
    totals = [0] * 6
    for name, lines, registry in collected:
        stats = AnalyzerStats(registry)
        counts = stats.test_counts()
        row = [
            name,
            lines,
            stats.constant_cases,
            stats.gcd_independent,
            counts["svpc"],
            counts["acyclic"],
            counts["loop_residue"],
            counts["fourier_motzkin"],
        ]
        rows.append(row)
        for k in range(6):
            totals[k] += row[k + 2]
    footer = ["TOTAL", sum(spec.lines for spec in PROGRAM_SPECS)] + totals
    text = render_table(
        "Table 1: number of times each test was called per program",
        headers,
        rows,
        footer,
    )
    return TableResult("table1", headers, rows, text)


def run_table1(scale: float = 1.0) -> TableResult:
    """Table 1: how many times each test decided a case, per program."""
    return render_table1(collect_table1(scale=scale))


def run_table2(scale: float = 1.0) -> TableResult:
    """Table 2: % unique cases under memoization, simple vs improved."""
    headers = [
        "Program",
        "NB Total", "NB Simple%", "NB Improved%",
        "WB Total", "WB Simple%", "WB Improved%",
    ]
    rows: list[list[object]] = []
    agg = [0, 0, 0, 0, 0, 0]  # totals and unique counts for footer
    for program in _suite(scale=scale):
        cells: dict[str, float] = {}
        for improved in (False, True):
            memo = Memoizer(improved=improved)
            analyzer = DependenceAnalyzer(
                memoizer=memo, eliminate_unused=improved, want_witness=False
            )
            for query in program.queries:
                analyzer.analyze(query.ref1, query.nest1, query.ref2, query.nest2)
            label = "improved" if improved else "simple"
            cells[f"nb_total_{label}"] = memo.no_bounds.stats.queries
            cells[f"nb_unique_{label}"] = memo.no_bounds.stats.unique
            cells[f"wb_total_{label}"] = memo.with_bounds.stats.queries
            cells[f"wb_unique_{label}"] = memo.with_bounds.stats.unique
        nb_total = int(cells["nb_total_improved"])
        wb_total = int(cells["wb_total_improved"])
        rows.append(
            [
                program.name,
                nb_total,
                _pct(cells["nb_unique_simple"], cells["nb_total_simple"]),
                _pct(cells["nb_unique_improved"], nb_total),
                wb_total,
                _pct(cells["wb_unique_simple"], cells["wb_total_simple"]),
                _pct(cells["wb_unique_improved"], wb_total),
            ]
        )
        agg[0] += nb_total
        agg[1] += int(cells["nb_unique_simple"])
        agg[2] += int(cells["nb_unique_improved"])
        agg[3] += wb_total
        agg[4] += int(cells["wb_unique_simple"])
        agg[5] += int(cells["wb_unique_improved"])
    footer = [
        "TOTAL",
        agg[0], _pct(agg[1], agg[0]), _pct(agg[2], agg[0]),
        agg[3], _pct(agg[4], agg[3]), _pct(agg[5], agg[3]),
    ]
    text = render_table(
        "Table 2: percentage of unique cases (memoization), "
        "simple scheme vs unused-variables-eliminated",
        headers,
        rows,
        footer,
    )
    return TableResult("table2", headers, rows, text)


def run_table3(scale: float = 1.0) -> TableResult:
    """Table 3: tests run counting unique cases only (memoized)."""
    headers = [
        "Program", "#Lines", "Total Cases",
        "SVPC", "Acyclic", "Loop Residue", "Fourier-Motzkin",
    ]
    rows: list[list[object]] = []
    totals = [0] * 5
    for program in _suite(scale=scale):
        memo = Memoizer(improved=True)
        stats = _run_plain(program, memoizer=memo)
        counts = stats.test_counts()
        total_cases = sum(
            stats.decided_by.get(t, 0) for t in TEST_ORDER
        ) + stats.memo_hits_bounds
        row = [
            program.name,
            program.lines,
            total_cases,
            counts["svpc"],
            counts["acyclic"],
            counts["loop_residue"],
            counts["fourier_motzkin"],
        ]
        rows.append(row)
        totals[0] += total_cases
        for k, t in enumerate(TEST_ORDER):
            totals[k + 1] += counts[t]
    footer = ["TOTAL", "", *totals]
    text = render_table(
        "Table 3: number of times each test was called, unique cases only",
        headers,
        rows,
        footer,
    )
    result = TableResult("table3", headers, rows, text)
    result.extra["unique_tests"] = sum(totals[1:])
    result.extra["total_cases"] = totals[0]
    return result


def _run_directions(
    program: SuiteProgram,
    prune: bool,
    include_symbolic_stats: bool = False,
) -> AnalyzerStats:
    session = AnalysisSession(AnalysisConfig(want_witness=False))
    for query in program.queries:
        session.directions(
            query.ref1,
            query.nest1,
            query.ref2,
            query.nest2,
            prune_unused=prune,
            prune_distance=prune,
        )
    return session.stats


def _direction_table(
    name: str,
    title: str,
    prune: bool,
    include_symbolic: bool,
    scale: float,
) -> TableResult:
    headers = [
        "Program", "#Lines",
        "SVPC", "Acyclic", "Loop Residue", "Fourier-Motzkin",
    ]
    rows: list[list[object]] = []
    totals = [0] * 4
    outcome_stats = AnalyzerStats()
    for program in _suite(include_symbolic=include_symbolic, scale=scale):
        stats = _run_directions(program, prune=prune)
        counts = stats.direction_test_counts()
        row = [
            program.name,
            program.lines,
            counts["svpc"],
            counts["acyclic"],
            counts["loop_residue"],
            counts["fourier_motzkin"],
        ]
        rows.append(row)
        for k, t in enumerate(TEST_ORDER):
            totals[k] += counts[t]
        outcome_stats.merge(stats)
    footer = ["TOTAL", "", *totals]
    text = render_table(title, headers, rows, footer)
    result = TableResult(name, headers, rows, text)
    result.extra["total_tests"] = sum(totals)
    result.extra["outcomes"] = dict(outcome_stats.outcomes)
    return result


def run_table4(scale: float = 1.0) -> TableResult:
    """Table 4: direction vectors, naive hierarchical refinement."""
    return _direction_table(
        "table4",
        "Table 4: tests called for direction vectors (no pruning), "
        "unique cases only",
        prune=False,
        include_symbolic=False,
        scale=scale,
    )


def run_table5(scale: float = 1.0) -> TableResult:
    """Table 5: direction vectors with both pruning optimizations."""
    return _direction_table(
        "table5",
        "Table 5: tests called with distance-vector pruning and unused "
        "variables eliminated",
        prune=True,
        include_symbolic=False,
        scale=scale,
    )


def run_table7(scale: float = 1.0) -> TableResult:
    """Table 7: Table 5 configuration plus symbolic-term cases."""
    return _direction_table(
        "table7",
        "Table 7: tests called computing direction vectors with "
        "symbolic constraints added",
        prune=True,
        include_symbolic=True,
        scale=scale,
    )


def run_table6(scale: float = 1.0) -> TableResult:
    """Table 6: dependence testing wall-clock cost per program.

    The paper compares against ``f77 -O3`` compile times; we report the
    paper's published seconds as a static reference column and recompute
    the overhead ratio against them (DESIGN.md documents why).
    """
    headers = [
        "Program", "Dep. Test Cost (s)",
        "f77 -O3 (paper, s)", "Overhead %",
    ]
    rows: list[list[object]] = []
    measured_total = 0.0
    paper_total = 0.0
    for program in _suite(scale=scale):
        start = time.perf_counter()
        _run_directions(program, prune=True)
        elapsed = time.perf_counter() - start
        paper_seconds = PAPER_F77_SECONDS[program.name]
        rows.append(
            [
                program.name,
                f"{elapsed:.2f}",
                f"{paper_seconds:.1f}",
                f"{100.0 * elapsed / paper_seconds:.1f}",
            ]
        )
        measured_total += elapsed
        paper_total += paper_seconds
    footer = [
        "TOTAL",
        f"{measured_total:.2f}",
        f"{paper_total:.1f}",
        f"{100.0 * measured_total / paper_total:.1f}",
    ]
    text = render_table(
        "Table 6: total cost of dependence testing (measured) vs "
        "f77 -O3 compile time (paper-reported reference)",
        headers,
        rows,
        footer,
    )
    result = TableResult("table6", headers, rows, text)
    result.extra["measured_seconds"] = measured_total
    return result


def run_outcomes(scale: float = 1.0) -> TableResult:
    """Section 7: per-test independent/dependent splits (Table 5 run)."""
    table5 = run_table5(scale=scale)
    outcomes = table5.extra["outcomes"]
    headers = ["Test", "Independent", "Total", "Independent %"]
    rows: list[list[object]] = []
    for test in TEST_ORDER:
        indep = outcomes.get((test, "independent"), 0)
        dep = outcomes.get((test, "dependent"), 0)
        total = indep + dep
        rows.append(
            [test, indep, total, _pct(indep, total) if total else "-"]
        )
    text = render_table(
        "Section 7: how often each test returned independent "
        "(direction-vector run of Table 5)",
        headers,
        rows,
    )
    return TableResult("outcomes", headers, rows, text)


def run_baseline_comparison(scale: float = 1.0) -> TableResult:
    """Section 7: inexact GCD+Banerjee baseline vs the exact cascade."""
    exact_session = AnalysisSession(AnalysisConfig(want_witness=False))
    baseline = BaselineAnalyzer()
    seen: set[tuple] = set()
    independent_exact = 0
    independent_baseline = 0
    vectors_exact = 0
    vectors_baseline = 0
    for program in _suite(scale=scale):
        for query in program.queries:
            key = (
                query.ref1,
                query.ref2,
                query.nest1,
                query.nest2,
            )
            if key in seen:
                continue
            seen.add(key)
            if query.bucket == "constant":
                continue
            exact = exact_session.analyze(
                query.ref1, query.nest1, query.ref2, query.nest2
            )
            base_dep = baseline.analyze(
                query.ref1, query.nest1, query.ref2, query.nest2
            )
            if not exact.dependent:
                independent_exact += 1
                if not base_dep:
                    independent_baseline += 1
            if exact.dependent or not base_dep:
                ex_dirs = exact_session.directions(
                    query.ref1, query.nest1, query.ref2, query.nest2
                )
                base_dirs = baseline.directions(
                    query.ref1, query.nest1, query.ref2, query.nest2
                )
                vectors_exact += len(ex_dirs.directions)
                vectors_baseline += len(base_dirs.vectors)
    missed = independent_exact - independent_baseline
    miss_pct = _pct(missed, independent_exact)
    over_pct = _pct(vectors_baseline - vectors_exact, vectors_exact)
    headers = ["Metric", "Exact cascade", "GCD+Banerjee", "Gap"]
    rows = [
        [
            "independent pairs found",
            independent_exact,
            independent_baseline,
            f"misses {miss_pct}%",
        ],
        [
            "direction vectors reported",
            vectors_exact,
            vectors_baseline,
            f"+{over_pct}%",
        ],
    ]
    text = render_table(
        "Section 7: exact cascade vs traditional inexact tests "
        "(unique non-constant cases)",
        headers,
        rows,
    )
    result = TableResult("baselines", headers, rows, text)
    result.extra.update(
        independent_exact=independent_exact,
        independent_baseline=independent_baseline,
        vectors_exact=vectors_exact,
        vectors_baseline=vectors_baseline,
    )
    return result


def _pct(part: float, whole: float) -> float:
    if not whole:
        return 0.0
    return round(100.0 * part / whole, 1)


ALL_EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
    "outcomes": run_outcomes,
    "baselines": run_baseline_comparison,
}
