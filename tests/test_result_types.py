"""Coverage for result types, stats merging and small harness surfaces."""

import pytest

from repro.core.result import DependenceResult, DirectionResult
from repro.core.stats import AnalyzerStats
from repro.deptests.base import TestResult, Verdict
from repro.harness.cli import main as harness_main
from repro.system.constraints import Interval


class TestDependenceResult:
    def test_independent_property(self):
        result = DependenceResult(dependent=False, decided_by="gcd")
        assert result.independent
        assert not DependenceResult(dependent=True, decided_by="svpc").independent


class TestDirectionResult:
    def test_elementary_expansion(self):
        result = DirectionResult(
            vectors=frozenset({("*", "<")}), n_common=2
        )
        assert result.elementary_vectors() == {
            ("<", "<"), ("=", "<"), (">", "<"),
        }
        assert result.count_elementary() == 3

    def test_empty_is_independent(self):
        result = DirectionResult(vectors=frozenset(), n_common=1)
        assert result.independent and not result.dependent
        assert result.count_elementary() == 0

    def test_no_common_loops(self):
        result = DirectionResult(vectors=frozenset({()}), n_common=0)
        assert result.dependent
        assert result.elementary_vectors() == {()}


class TestTestResult:
    def test_dependent_requires_witness(self):
        with pytest.raises(ValueError):
            TestResult(Verdict.DEPENDENT, "svpc")

    def test_verdict_decided(self):
        assert Verdict.INDEPENDENT.decided
        assert Verdict.DEPENDENT.decided
        assert not Verdict.NOT_APPLICABLE.decided
        assert not Verdict.UNKNOWN.decided


class TestInterval:
    def test_tighten(self):
        interval = Interval()
        interval.tighten_lo(3)
        interval.tighten_hi(7)
        interval.tighten_lo(1)  # looser: ignored
        interval.tighten_hi(9)  # looser: ignored
        assert (interval.lo, interval.hi) == (3, 7)
        assert interval.pick() == 3

    def test_pick_prefers_finite(self):
        upper_only = Interval()
        upper_only.tighten_hi(-2)
        assert upper_only.pick() == -2


class TestStatsMerge:
    def test_merge_accumulates(self):
        a = AnalyzerStats()
        b = AnalyzerStats()
        a.total_queries = 3
        a.record_decision("svpc", independent=True)
        b.total_queries = 4
        b.record_decision("svpc", independent=False)
        b.record_direction_test("acyclic", independent=True)
        a.merge(b)
        assert a.total_queries == 7
        assert a.decided_by["svpc"] == 2
        assert a.direction_tests["acyclic"] == 1
        assert a.outcomes[("svpc", "independent")] == 1
        assert a.outcomes[("svpc", "dependent")] == 1

    def test_unique_case_properties(self):
        stats = AnalyzerStats()
        stats.memo_queries_bounds = 10
        stats.memo_hits_bounds = 7
        assert stats.unique_cases_bounds == 3


class TestHarnessSurfaces:
    def test_costs_command(self, capsys):
        assert harness_main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "usec/test" in out
        assert "fourier_motzkin" in out
