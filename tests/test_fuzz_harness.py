"""Tests for the differential-fuzzing harness.

The expensive acceptance sweeps (10k cases) run in CI's nightly fuzz
job; here we keep the campaigns small but cover every moving part:
clean runs, determinism across worker counts, fault injection with
shrinking, and corpus round-trips.
"""

import pytest

from repro.core.analyzer import DependenceAnalyzer
from repro.deptests.base import TestResult as CascadeResult
from repro.deptests.base import Verdict
from repro.deptests.svpc import SvpcTest
from repro.fuzz.corpus import fingerprint, load_corpus, save_case
from repro.fuzz.generator import generate_case, generate_cases
from repro.fuzz.harness import (
    FuzzConfig,
    check_case,
    replay_cases,
    run_fuzz,
)


class _BrokenSvpc(SvpcTest):
    """Fault injection: claims independence whenever SVPC proves
    dependence (a 'broken bound check' that flips the verdict)."""

    def _decide(self, system, sink, scope):
        result = super()._decide(system, sink, scope)
        if result.verdict is Verdict.DEPENDENT:
            return CascadeResult(Verdict.INDEPENDENT, self.name)
        return result


def _make_broken(**kwargs):
    analyzer = DependenceAnalyzer(**kwargs)
    broken = _BrokenSvpc()
    analyzer._svpc = broken
    analyzer._cascade = (broken,) + analyzer._cascade[1:]
    return analyzer


class TestCleanRuns:
    def test_small_campaign_is_clean(self):
        report = run_fuzz(FuzzConfig(seed=0, iterations=60))
        assert report.ok
        assert not report.discrepancies
        assert report.cross_shard_ok is True
        assert len(report.outcomes) == 60
        assert report.registry.get("fuzz.cases") == 60

    def test_check_case_single(self):
        outcome = check_case(generate_case(0, 0, "constant"))
        assert not outcome.discrepancies
        assert outcome.decided_by

    def test_render_mentions_discrepancy_count(self):
        report = run_fuzz(FuzzConfig(seed=0, iterations=10, cross_shard=False))
        assert "discrepancies: 0" in report.render()

    def test_time_budget_stops_early(self):
        report = run_fuzz(
            FuzzConfig(seed=0, iterations=100000, time_budget=0.5)
        )
        assert len(report.outcomes) < 100000


class TestDeterminismAcrossJobs:
    def test_stats_equal_serial_vs_sharded(self):
        serial = run_fuzz(FuzzConfig(seed=11, iterations=40, jobs=1))
        sharded = run_fuzz(FuzzConfig(seed=11, iterations=40, jobs=2))
        assert serial.stats_dict() == sharded.stats_dict()
        assert serial.render() == sharded.render()
        assert [o.dependent for o in serial.outcomes] == [
            o.dependent for o in sharded.outcomes
        ]
        assert [o.decided_by for o in serial.outcomes] == [
            o.decided_by for o in sharded.outcomes
        ]

    def test_repeat_run_bitwise_equal(self):
        a = run_fuzz(FuzzConfig(seed=5, iterations=30))
        b = run_fuzz(FuzzConfig(seed=5, iterations=30))
        assert a.stats_dict() == b.stats_dict()
        assert a.render() == b.render()


class TestFaultInjection:
    def test_broken_svpc_is_caught_and_shrunk(self):
        config = FuzzConfig(
            seed=0,
            iterations=60,
            tiers=("constant",),
            shrink=True,
            cross_shard=False,
        )
        report = run_fuzz(config, make_analyzer=_make_broken)
        assert not report.ok
        kinds = {d.kind for d in report.discrepancies}
        assert "verdict-vs-oracle" in kinds or "verdict-vs-box" in kinds
        assert report.shrunk
        # The minimized counterexample must be tiny: at most two loops
        # total, i.e. at most four loop-bound constraints.
        _, smallest = min(
            report.shrunk,
            key=lambda pair: pair[1].nest1.depth + pair[1].nest2.depth,
        )
        assert smallest.nest1.depth + smallest.nest2.depth <= 2
        assert len(smallest.problem().bounds.constraints) <= 4

    def test_facade_checked_without_the_e2e_steps(self, monkeypatch):
        """A one-call path that drops a direction vector is caught even
        with the source round trip off (CI's ``--no-e2e`` oracle step)."""
        real = DependenceAnalyzer.analyze_with_directions

        def lossy(self, *query):
            result, directions = real(self, *query)
            if directions.vectors:
                directions.vectors = frozenset(sorted(directions.vectors)[1:])
            return result, directions

        case = generate_case(0, 4, "triangular")
        clean = check_case(case, e2e=False)
        assert clean.dependent and not clean.discrepancies
        monkeypatch.setattr(DependenceAnalyzer, "analyze_with_directions", lossy)
        kinds = {d.kind for d in check_case(case, e2e=False).discrepancies}
        assert kinds == {"facade-vs-analyzer"}

    def test_broken_analyzer_rejected_with_jobs(self):
        with pytest.raises(ValueError):
            run_fuzz(
                FuzzConfig(seed=0, iterations=4, jobs=2),
                make_analyzer=_make_broken,
            )


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        case = generate_case(0, 7, "coupled")
        path = save_case(case, tmp_path, note="unit test")
        assert path.exists()
        assert path.name.startswith("coupled-")
        [loaded] = load_corpus(tmp_path)
        assert loaded.to_dict()["ref1"] == case.to_dict()["ref1"]
        assert loaded.env == case.env

    def test_fingerprint_ignores_origin(self):
        case = generate_case(0, 7, "coupled")
        twin = type(case)(
            tier=case.tier,
            seed=99,
            index=1234,
            ref1=case.ref1,
            nest1=case.nest1,
            ref2=case.ref2,
            nest2=case.nest2,
            env=case.env,
        )
        assert fingerprint(case) == fingerprint(twin)

    def test_duplicate_save_is_one_file(self, tmp_path):
        case = generate_case(0, 3, "constant")
        save_case(case, tmp_path)
        save_case(case, tmp_path, note="again")
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_replay_corpus_cases(self, tmp_path):
        for index in range(4):
            save_case(generate_case(0, index, "constant"), tmp_path)
        cases = load_corpus(tmp_path)
        report = replay_cases(cases, FuzzConfig(shrink=False))
        assert report.ok
        assert len(report.outcomes) == len(cases)

    def test_failing_campaign_writes_corpus(self, tmp_path):
        config = FuzzConfig(
            seed=0,
            iterations=30,
            tiers=("constant",),
            shrink=True,
            corpus=str(tmp_path),
            cross_shard=False,
        )
        report = run_fuzz(config, make_analyzer=_make_broken)
        assert not report.ok
        written = list(tmp_path.glob("*.json"))
        assert written
        assert all(p.name.startswith("constant-") for p in written)


class TestReplaySharded:
    def test_replay_with_duplicate_indices(self):
        # Corpus cases can share index values; the sharded path must
        # not collapse them.
        from dataclasses import replace

        clones = [replace(c, index=0) for c in generate_cases(0, 6)]
        report = replay_cases(
            clones, FuzzConfig(jobs=2, shrink=False, cross_shard=False, e2e=False)
        )
        assert len(report.outcomes) == 6


class TestShardWatchdog:
    def test_worker_dead_on_every_attempt_raises(self):
        # The shards run under the shard watchdog: a worker that dies on
        # every attempt is an error (CLI exit 3), never a hung run.
        from repro.robust.chaos import FaultPlan

        FaultPlan(seed=1, crash_rate=1.0).install()
        try:
            with pytest.raises(RuntimeError, match="failed 2 attempts"):
                run_fuzz(FuzzConfig(seed=0, iterations=4, jobs=2))
        finally:
            FaultPlan.uninstall()
