"""Integration tests for the experiment harness.

Scaled-down runs check the tables' shape; full-scale runs pin the
paper's counts.  Every count table at full scale is compared byte for
byte with ``tests/goldens/harness_tables.txt`` (Table 6 and the
per-test cost table print wall times and are left out), so a count
that moves from one program or test to another shows even when the
column totals stay.  After an intentional change to the counts,
regenerate with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/test_harness.py

and review the diff like any other code change.
"""

import functools
import os
import pathlib

import pytest

from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    collect_table1,
    render_table1,
    run_baseline_comparison,
    run_outcomes,
    run_table1,
    run_table2,
    run_table4,
    run_table5,
    run_table7,
)
from repro.obs.metrics import MetricsRegistry
from repro.harness.tables import render_table
from repro.harness.timing import representative_system, time_tests

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "harness_tables.txt"
#: The count tables, in the golden's order.
GOLDEN_TABLES = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table7",
    "outcomes",
    "baselines",
)


@functools.cache
def _full(name):
    """One full-scale run of an experiment, shared by every test here."""
    return ALL_EXPERIMENTS[name](scale=1.0)


def test_count_tables_match_golden():
    text = "\n\n".join(_full(name).text for name in GOLDEN_TABLES) + "\n"
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        GOLDEN.write_text(text)
    assert text == GOLDEN.read_text()


class TestRenderer:
    def test_basic_table(self):
        text = render_table(
            "T", ["A", "B"], [["x", 1], ["y", 22]], footer=["sum", 23]
        )
        assert "T" in text
        assert "22" in text and "23" in text
        lines = text.splitlines()
        assert len({len(l) for l in lines[1:]} | set()) >= 1

    def test_number_formatting(self):
        text = render_table("T", ["N"], [[12345]])
        assert "12,345" in text


class TestTable1:
    def test_full_run_matches_paper_totals(self):
        result = _full("table1")
        footer_like = result.rows
        totals = [0] * 6
        for row in footer_like:
            for k in range(6):
                totals[k] += row[k + 2]
        assert totals == [11_859, 384, 5_176, 323, 6, 174]

    def test_rows_cover_programs(self):
        result = run_table1(scale=0.05)
        assert len(result.rows) == 13
        assert result.rows[0][0] == "AP"

    def test_regenerates_bit_identically_from_registries(self):
        """Acceptance: tables rebuild from serialized metrics alone."""
        collected = collect_table1(scale=0.05)
        rendered = render_table1(collected)
        round_tripped = render_table1(
            [
                (name, lines, MetricsRegistry.from_dict(registry.to_dict()))
                for name, lines, registry in collected
            ]
        )
        assert round_tripped.text == rendered.text
        assert round_tripped.rows == rendered.rows
        assert rendered.text == run_table1(scale=0.05).text


class TestTable2:
    def test_improved_never_more_unique_than_simple(self):
        result = run_table2(scale=0.2)
        for row in result.rows:
            assert row[3] <= row[2] + 1e-9  # NB improved <= simple
            assert row[6] <= row[5] + 1e-9  # WB improved <= simple


class TestTable3:
    def test_unique_tests_paper_total(self):
        result = _full("table3")
        assert result.extra["unique_tests"] == 332
        assert result.extra["total_cases"] == 5_679

    def test_memoization_reduction(self):
        result = _full("table3")
        assert result.extra["unique_tests"] < result.extra["total_cases"] / 10


class TestDirectionTables:
    def test_pruning_reduces_tests(self):
        naive = run_table4(scale=0.05)
        pruned = run_table5(scale=0.05)
        assert pruned.extra["total_tests"] < naive.extra["total_tests"]
        # The paper reports roughly an order of magnitude; demand > 3x.
        assert (
            naive.extra["total_tests"]
            > 3 * pruned.extra["total_tests"]
        )

    def test_symbolic_adds_tests(self):
        plain = run_table5(scale=0.05)
        symbolic = run_table7(scale=0.05)
        assert symbolic.extra["total_tests"] > plain.extra["total_tests"]


# Full-scale per-test column totals (SVPC, Acyclic, Loop Residue,
# Fourier-Motzkin) and each test's (independent, dependent) split.
DIRECTION_TOTALS = {
    "table4": (
        [1_276, 2_762, 1_065, 884],
        {
            "svpc": (667, 609),
            "acyclic": (1_539, 1_223),
            "loop_residue": (5, 1_060),
            "fourier_motzkin": (296, 588),
        },
    ),
    "table5": (
        [274, 90, 44, 257],
        {
            "svpc": (87, 187),
            "acyclic": (6, 84),
            "loop_residue": (2, 42),
            "fourier_motzkin": (90, 167),
        },
    ),
    "table7": (
        [316, 130, 51, 257],
        {
            "svpc": (102, 214),
            "acyclic": (6, 124),
            "loop_residue": (3, 48),
            "fourier_motzkin": (90, 167),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(DIRECTION_TOTALS))
def test_direction_table_full_scale_totals(name):
    columns, splits = DIRECTION_TOTALS[name]
    result = _full(name)
    totals = [sum(row[k] for row in result.rows) for k in range(2, 6)]
    assert totals == columns
    assert result.extra["total_tests"] == sum(columns)
    outcomes = {
        test: (
            result.extra["outcomes"].get((test, "independent"), 0),
            result.extra["outcomes"].get((test, "dependent"), 0),
        )
        for test in splits
    }
    assert outcomes == splits
    assert sum(result.extra["outcomes"].values()) == sum(columns)


class TestOutcomes:
    def test_every_test_row_present(self):
        result = run_outcomes(scale=0.05)
        names = [row[0] for row in result.rows]
        assert names == [
            "svpc", "acyclic", "loop_residue", "fourier_motzkin"
        ]


class TestBaselineComparison:
    def test_baseline_misses_independent_pairs(self):
        result = run_baseline_comparison(scale=0.05)
        assert (
            result.extra["independent_baseline"]
            < result.extra["independent_exact"]
        )

    def test_baseline_over_reports_vectors(self):
        result = run_baseline_comparison(scale=0.05)
        assert (
            result.extra["vectors_baseline"] >= result.extra["vectors_exact"]
        )


class TestTimings:
    def test_representative_systems_decidable(self):
        from repro.deptests.base import Verdict
        from repro.deptests.fourier_motzkin import FourierMotzkinTest
        from repro.deptests.loop_residue import LoopResidueTest
        from repro.deptests.svpc import SvpcTest

        assert (
            SvpcTest().run(representative_system("svpc")).verdict.decided
        )
        assert (
            LoopResidueTest()
            .run(representative_system("loop_residue"))
            .verdict.decided
        )
        fm = FourierMotzkinTest().run(
            representative_system("fourier_motzkin")
        )
        assert fm.verdict is not Verdict.NOT_APPLICABLE

    def test_time_tests_returns_all_four(self):
        timings = time_tests(repeats=3)
        assert {t.name for t in timings} == {
            "svpc", "acyclic", "loop_residue", "fourier_motzkin"
        }
        for timing in timings:
            assert timing.microseconds > 0
