"""Refinement reuses what the cascade has already proved.

Two reuses, both answer-preserving:

* a dependent refinement node hands its t-space witness to its three
  children, and a child whose system reaches the Fourier-Motzkin stage
  is answered from that point when it satisfies every row the stage
  receives;
* :meth:`DependenceAnalyzer.analyze_with_directions` hands the plain
  query's reduced problem, GCD transform, constant distances and
  witness to the pair's direction query.

These tests pin that the answers, credits and counters are those of
separate ``analyze`` and ``directions`` calls, that the stage really
stops eliminating, and that a hint that fails a row changes nothing.
"""

import pytest

import repro.deptests.fourier_motzkin as fm_module
from repro.api import AnalysisSession
from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer
from repro.core.result import DirectionResult
from repro.deptests.base import Verdict
from repro.fuzz.generator import TIERS, generate_case, generate_cases
from repro.obs.events import FmSample
from repro.obs.sinks import CollectingSink
from repro.system.constraints import ConstraintSystem

DIGEST_SEED = 20260807  # the cascade-digest corpus (test_cascade_digests.py)
N_PER_TIER = 100
ROUND_TIERS = ("coupled", "triangular", "symbolic", "degenerate")


def _answers(result, directions):
    return (
        result.dependent,
        result.decided_by,
        result.exact,
        result.witness,
        result.distance,
        sorted(directions.vectors),
        directions.exact,
        directions.n_common,
    )


def _separately(analyzer, case):
    """``analyze``, then ``directions`` only for a dependent pair."""
    result = analyzer.analyze(case.ref1, case.nest1, case.ref2, case.nest2)
    if result.dependent:
        directions = analyzer.directions(
            case.ref1, case.nest1, case.ref2, case.nest2
        )
    else:
        directions = DirectionResult(
            vectors=frozenset(),
            n_common=case.nest1.common_prefix_depth(case.nest2),
        )
    return _answers(result, directions)


def _in_one_call(analyzer, case):
    return _answers(
        *analyzer.analyze_with_directions(
            case.ref1, case.nest1, case.ref2, case.nest2
        )
    )


def _count_fm_eliminations(monkeypatch) -> list[int]:
    """Count the systems Fourier-Motzkin eliminates (not its B&B nodes)."""
    count = [0]
    decide = fm_module.FourierMotzkinTest._decide

    def counting(self, system, sink, scope):
        count[0] += 1
        return decide(self, system, sink, scope)

    monkeypatch.setattr(fm_module.FourierMotzkinTest, "_decide", counting)
    return count


class TestOneCallPath:
    @pytest.mark.parametrize(
        "memo",
        [
            lambda: Memoizer(),
            lambda: Memoizer(symmetry=True),
            lambda: Memoizer(improved=False),
            lambda: None,
        ],
        ids=["improved", "symmetry", "simple", "no-memo"],
    )
    def test_same_answers_and_counters_as_separate_calls(self, memo):
        """The digest corpus, twice over (the second pass hits the memo):
        every answer and the counter snapshot match two separate calls."""
        cases = [
            generate_case(DIGEST_SEED, index, tier)
            for tier in TIERS
            for index in range(N_PER_TIER)
        ]
        one = DependenceAnalyzer(memoizer=memo())
        two = DependenceAnalyzer(memoizer=memo())
        for _ in range(2):
            for case in cases:
                assert _in_one_call(one, case) == _separately(two, case), case
        assert (
            one.stats.registry.counter_snapshot()
            == two.stats.registry.counter_snapshot()
        )


class TestUniqueCascadeRound:
    def test_counts_hold_and_fourier_motzkin_eliminates_less(self, monkeypatch):
        """One unique-cascade round: every test count as before the
        reuse, and at most 4,000 Fourier-Motzkin eliminations (6,211
        when every system was eliminated)."""
        eliminated = _count_fm_eliminations(monkeypatch)
        session = AnalysisSession()
        for case in generate_cases(0, 2400, tiers=ROUND_TIERS):
            session.analyze(
                case.ref1, case.nest1, case.ref2, case.nest2, want_directions=True
            )
        assert dict(session.stats.direction_tests) == {
            "svpc": 251,
            "acyclic": 1024,
            "loop_residue": 428,
            "fourier_motzkin": 5236,
        }
        assert dict(session.stats.decided_by) == {
            "svpc": 369,
            "acyclic": 532,
            "loop_residue": 55,
            "fourier_motzkin": 975,
        }
        assert eliminated[0] <= 4000


def _cycle(n_vars: int = 2) -> ConstraintSystem:
    """``2*t0 <= 3*t1 <= 2*t0 + 2`` in a box: a cycle Acyclic cannot
    break whose coefficients Loop Residue cannot take."""
    system = ConstraintSystem(tuple(f"t{k}" for k in range(n_vars)))
    pad = [0] * (n_vars - 2)
    system.add([2, -3] + pad, 0)
    system.add([-2, 3] + pad, 2)
    system.add([-1, 0] + pad, 0)
    system.add([1, 0] + pad, 20)
    system.add([0, -1] + pad, 0)
    system.add([0, 1] + pad, 10)
    return system


def _cycle_with_tail() -> ConstraintSystem:
    """The cycle plus ``t0 + t2 <= 10, 0 <= t2 <= 5``.  Acyclic pins
    t2 to 0 and hands Fourier-Motzkin a residual in which the first
    row reads ``t0 <= 10``."""
    system = _cycle(3)
    system.add([1, 0, 1], 10)
    system.add([0, 0, -1], 0)
    system.add([0, 0, 1], 5)
    return system


def _run(system, hint):
    sink = CollectingSink()
    decision = DependenceAnalyzer()._run_cascade(
        system, record=False, sink=sink, hint=hint
    )
    samples = {e.outcome for e in sink.events if isinstance(e, FmSample)}
    return decision, samples


class TestFourierMotzkinStageHint:
    def test_satisfying_hint_answers_without_elimination(self, monkeypatch):
        eliminated = _count_fm_eliminations(monkeypatch)
        decision, samples = _run(_cycle(), (3, 2))
        assert decision.result.verdict is Verdict.DEPENDENT
        assert decision.result.test_name == "fourier_motzkin"
        assert decision.result.exact
        assert decision.witness_t == (3, 2)
        assert samples == {"witness_reused"}
        assert eliminated[0] == 0

    def test_hint_violating_one_row_is_ignored(self, monkeypatch):
        eliminated = _count_fm_eliminations(monkeypatch)
        system = _cycle()
        hint = (3, 3)  # fails only -2*t0 + 3*t1 <= 2
        assert [con.evaluate(hint) for con in system.constraints].count(False) == 1
        decision, samples = _run(system, hint)
        unhinted, _ = _run(_cycle(), None)
        assert decision.result.verdict is Verdict.DEPENDENT
        assert decision.result.test_name == "fourier_motzkin"
        assert decision.witness_t == unhinted.witness_t != hint
        assert system.evaluate(decision.witness_t)
        assert samples == {"integer_picked"}
        assert eliminated[0] == 2  # the hinted run and the unhinted one

    def test_hint_is_checked_against_the_acyclic_residual(self, monkeypatch):
        """(12, 8, -2) satisfies ``t0 + t2 <= 10`` but not the residual's
        ``t0 <= 10`` (t2 pinned to 0): it fails one row of the system
        the stage receives, so Fourier-Motzkin eliminates."""
        eliminated = _count_fm_eliminations(monkeypatch)
        system = _cycle_with_tail()
        decision, samples = _run(system, (12, 8, -2))
        assert decision.result.verdict is Verdict.DEPENDENT
        assert decision.result.test_name == "fourier_motzkin"
        assert system.evaluate(decision.witness_t)
        assert samples == {"integer_picked"}
        assert eliminated[0] == 1

    def test_residual_point_is_lifted_by_the_completion(self, monkeypatch):
        """(3, 2, 9) breaks two rows of the whole system but none of the
        residual's; Acyclic's completion pins t2 back to 0."""
        eliminated = _count_fm_eliminations(monkeypatch)
        system = _cycle_with_tail()
        assert not system.evaluate((3, 2, 9))
        decision, samples = _run(system, (3, 2, 9))
        assert decision.result.verdict is Verdict.DEPENDENT
        assert decision.result.test_name == "fourier_motzkin"
        assert decision.witness_t == (3, 2, 0)
        assert system.evaluate(decision.witness_t)
        assert samples == {"witness_reused"}
        assert eliminated[0] == 0

    def test_independent_system_ignores_its_hint(self):
        # 2*t0 = 3*t1 with t1 = 1 has a real solution but no integer one.
        system = ConstraintSystem(("t0", "t1"))
        system.add([2, -3], 0)
        system.add([-2, 3], 0)
        system.add([0, -1], -1)
        system.add([0, 1], 1)
        decision, _ = _run(system, (1, 1))
        assert decision.result.verdict is Verdict.INDEPENDENT
        assert decision.result.test_name == "fourier_motzkin"

    def test_special_cases_never_see_the_hint(self):
        # SVPC decides a box; a hint outside it changes nothing.
        system = ConstraintSystem(("t0",))
        system.add([1], 5)
        system.add([-1], -2)
        decision, samples = _run(system, (9,))
        assert decision.result.test_name == "svpc"
        assert system.evaluate(decision.witness_t)
        assert not samples
