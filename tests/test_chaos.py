"""Deterministic chaos tests (repro.robust.chaos).

The acceptance bar for the whole robustness layer: under a seeded
fault plan injecting worker crashes, hangs, torn writes and corrupt
cache bytes, a batch run must finish (zero hangs), every verdict must
be correct or conservatively degraded (zero correctness violations),
and every injected fault must be accounted for — the fault schedule is
a pure function of ``(seed, site, key)``, so tests *compute* the
faults a run will experience and check the books afterwards.
"""

import hashlib
import time
import warnings

import pytest

from repro.core import persist
from repro.core.analyzer import DependenceAnalyzer
from repro.core.engine import PairQuery, analyze_batch
from repro.core.memo import Memoizer
from repro.ir import builder as B
from repro.robust.chaos import (
    CRASH,
    CRASH_EXIT_CODE,
    HANG,
    FaultPlan,
    active_plan,
    chaos_roll,
    corrupt_bytes,
    injected_counts,
    injection_log,
    reset_log,
)
from repro.robust.watchdog import KIND_CRASH, run_supervised


@pytest.fixture(autouse=True)
def _chaos_off():
    """Never leak a fault plan (it rides an env var into every child)."""
    FaultPlan.uninstall()
    reset_log()
    yield
    FaultPlan.uninstall()
    reset_log()


def _queries(n=8):
    nest = B.nest(("i", 1, 20))
    return [
        PairQuery(
            ref1=B.ref("a", [B.v("i") + k], write=True),
            nest1=nest,
            ref2=B.ref("a", [B.v("i")]),
            nest2=nest,
        )
        for k in range(n)
    ]


def _double_worker(payload):
    return [item * 2 for item in payload]


def _split(payload):
    return [(index, f"item-{item}", [item]) for index, item in enumerate(payload)]


def _fallback(payload):
    return ["fallback", payload]


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42, crash_rate=0.25, hang_rate=0.1, write_fail_rate=0.5
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=-0.1)

    def test_uniform_is_deterministic_and_in_range(self):
        plan = FaultPlan(seed=7)
        draws = [plan.uniform("site", f"key-{i}") for i in range(100)]
        assert draws == [plan.uniform("site", f"key-{i}") for i in range(100)]
        assert all(0.0 <= draw < 1.0 for draw in draws)
        assert len(set(draws)) > 90  # actually spread out

    def test_uniform_depends_on_seed_site_and_key(self):
        base = FaultPlan(seed=1).uniform("s", "k")
        assert FaultPlan(seed=2).uniform("s", "k") != base
        assert FaultPlan(seed=1).uniform("t", "k") != base
        assert FaultPlan(seed=1).uniform("s", "j") != base

    def test_every_seeded_schedule_draws_the_same_roll(self):
        """Both fault plans and the retry jitter draw one SHA-256 roll:
        the first 8 digest bytes of ``seed NUL site NUL key``."""
        from repro.robust.netchaos import NetFaultPlan
        from repro.serve.client import RetryPolicy

        def roll(seed, site, key):
            digest = hashlib.sha256(f"{seed}\x00{site}\x00{key}".encode()).digest()
            return int.from_bytes(digest[:8], "big") / 2**64

        for seed in range(4):
            for key in ("k", "0:3", "shard:1:0"):
                assert FaultPlan(seed=seed).uniform("s", key) == roll(seed, "s", key)
                assert NetFaultPlan(seed=seed).uniform("s", key) == roll(
                    seed, "s", key
                )
            for attempt in range(5):
                assert RetryPolicy(seed=seed).jitter(attempt) == (
                    0.5 + roll(seed, "retry", attempt) / 2.0
                )

    def test_peek_thresholds(self):
        always = FaultPlan(seed=0, crash_rate=1.0)
        never = FaultPlan(seed=0)
        assert always.peek("s", "k", (CRASH, HANG)) == CRASH
        assert never.peek("s", "k", (CRASH, HANG)) is None
        # Cumulative thresholds: zero crash mass, full hang mass.
        hangs = FaultPlan(seed=0, hang_rate=1.0)
        assert hangs.peek("s", "k", (CRASH, HANG)) == HANG

    def test_chaos_roll_matches_peek_and_logs(self):
        plan = FaultPlan(seed=5, crash_rate=0.5)
        plan.install()
        for i in range(20):
            expected = plan.peek("site", f"k{i}", (CRASH, HANG))
            assert chaos_roll("site", f"k{i}", (CRASH, HANG)) == expected
        logged = injection_log()
        expected_hits = [
            ("site", f"k{i}", CRASH)
            for i in range(20)
            if plan.peek("site", f"k{i}", (CRASH, HANG)) == CRASH
        ]
        assert logged == expected_hits
        assert injected_counts()[CRASH] == len(expected_hits)

    def test_no_plan_means_no_faults(self):
        assert active_plan() is None
        assert chaos_roll("site", "key", (CRASH, HANG)) is None
        assert injection_log() == []

    def test_install_uninstall_cycle(self):
        plan = FaultPlan(seed=9, crash_rate=0.3)
        plan.install()
        assert active_plan() == plan
        FaultPlan.uninstall()
        assert active_plan() is None


class TestCorruptBytes:
    def test_deterministic_and_actually_corrupt(self):
        plan = FaultPlan(seed=11, corrupt_rate=1.0)
        plan.install()
        data = b'{"version": 1, "payload": [1, 2, 3, 4, 5, 6, 7, 8]}'
        mangled = corrupt_bytes(data, "s", "k")
        assert mangled == corrupt_bytes(data, "s", "k")
        assert mangled != data
        assert len(mangled) == max(1, len(data) // 2)


class TestWriteFaultSite:
    def test_injected_write_failure_preserves_destination(self, tmp_path):
        target = tmp_path / "cache.json"
        target.write_text("previous complete content")
        FaultPlan(seed=3, write_fail_rate=1.0).install()
        with pytest.raises(OSError, match="chaos"):
            persist.atomic_write_text(target, "new content", chaos_site="t.w")
        # All-or-nothing: the reader still sees the old complete file.
        assert target.read_text() == "previous complete content"
        assert list(tmp_path.iterdir()) == [target]  # no temp litter

    def test_unnamed_writes_are_never_faulted(self, tmp_path):
        FaultPlan(seed=3, write_fail_rate=1.0).install()
        target = tmp_path / "plain.txt"
        persist.atomic_write_text(target, "content")  # no chaos_site
        assert target.read_text() == "content"

    def test_corrupted_cache_loads_safe_as_cold_start(self, tmp_path):
        path = tmp_path / "memo.json"
        memoizer = Memoizer()
        DependenceAnalyzer(memoizer=memoizer).analyze(
            *(lambda q: (q.ref1, q.nest1, q.ref2, q.nest2))(_queries(1)[0])
        )
        FaultPlan(seed=13, corrupt_rate=1.0).install()
        persist.save_memoizer(memoizer, path)  # bytes mangled en route
        FaultPlan.uninstall()
        with pytest.warns(RuntimeWarning, match="corrupt warm-start cache"):
            assert persist.load_memoizer_safe(path) is None


class TestWorkerFaultSite:
    def test_injected_crash_is_contained_by_watchdog(self):
        # crash_rate=1.0: every worker process dies at entry with the
        # distinctive chaos exit code; the watchdog quarantines every
        # case and the run still completes with fallback answers.
        FaultPlan(seed=1, crash_rate=1.0).install()
        groups, quarantine = run_supervised(
            [[1, 2]],
            _double_worker,
            attempts=2,
            split=_split,
            fallback=_fallback,
        )
        assert groups == [[["fallback", [1]], ["fallback", [2]]]]
        assert [case.reason for case in quarantine] == [KIND_CRASH, KIND_CRASH]
        assert CRASH_EXIT_CODE == 113  # documented, distinctive

    def test_injected_hang_without_watchdog_still_terminates(self):
        # hang then *continue*: a hang site never deadlocks a run that
        # has no timeout configured — it just makes it slow.
        FaultPlan(seed=1, hang_rate=1.0, hang_s=0.2).install()
        start = time.monotonic()
        groups, quarantine = run_supervised([[5]], _double_worker, attempts=1)
        elapsed = time.monotonic() - start
        assert groups == [[[10]]]
        assert quarantine == []
        assert elapsed >= 0.2

    def test_injected_hang_is_killed_by_shard_timeout(self):
        FaultPlan(seed=1, hang_rate=1.0, hang_s=30.0).install()
        start = time.monotonic()
        groups, quarantine = run_supervised(
            [[5]],
            _double_worker,
            timeout=0.3,
            attempts=1,
            split=_split,
            fallback=_fallback,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 10
        assert groups == [[["fallback", [5]]]]
        assert quarantine[0].reason == "timeout"


# The end-to-end schedule below is pinned: seed 18 at crash_rate 0.4
# kills shard 1's worker on both attempts, crashes exactly one of its
# isolated cases (rep 1 -> quarantined to the strict-budget fallback),
# and leaves shard 0 untouched.  The simulation in the test re-derives
# all of that from FaultPlan.peek, so a drift in either the roll or
# the watchdog's key layout fails loudly.
_E2E_PLAN = FaultPlan(seed=18, crash_rate=0.4)
_E2E_JOBS = 2
_E2E_RETRIES = 1


def _expected_schedule(plan, n_queries):
    """Replicate the watchdog's chaos-key sequence without running it."""
    shards = {}
    for rep_index in range(n_queries):
        shards.setdefault(rep_index % _E2E_JOBS, []).append(rep_index)
    attempts = 1 + _E2E_RETRIES
    crashes = retries = 0
    quarantined_reps = []
    for payload_index, reps in sorted(shards.items()):
        attempt_faults = 0
        for attempt in range(attempts):
            kind = plan.peek(
                "engine.shard", f"shard:{payload_index}:{attempt}", (CRASH, HANG)
            )
            if kind != CRASH:
                break
            crashes += 1
            attempt_faults += 1
            if attempt + 1 < attempts:
                retries += 1
        if attempt_faults == attempts:
            for rep_index in reps:
                kind = plan.peek(
                    "engine.shard",
                    f"case:{payload_index}:{rep_index}",
                    (CRASH, HANG),
                )
                if kind == CRASH:
                    crashes += 1
                    quarantined_reps.append(rep_index)
    return crashes, retries, quarantined_reps


class TestChaosBatchEndToEnd:
    # Without a shard timeout the batch still forks through the
    # watchdog, so a dead worker is retried and quarantined, not waited
    # on forever.
    @pytest.mark.usefixtures("two_cpus")
    @pytest.mark.parametrize("shard_timeout", [30.0, None])
    def test_seeded_crash_storm_is_survived_and_accounted(self, shard_timeout):
        queries = _queries()
        clean = analyze_batch(queries, jobs=_E2E_JOBS)

        crashes, retries, quarantined_reps = _expected_schedule(
            _E2E_PLAN, len(queries)
        )
        # The pinned schedule must not be vacuous: real faults fire.
        assert crashes > 0 and quarantined_reps == [1]

        _E2E_PLAN.install()
        report = analyze_batch(
            queries,
            jobs=_E2E_JOBS,
            shard_timeout=shard_timeout,
            shard_retries=_E2E_RETRIES,
        )
        FaultPlan.uninstall()

        # Zero correctness violations: every verdict matches the clean
        # run or is the flagged conservative over-approximation.
        assert len(report.outcomes) == len(clean.outcomes)
        for chaotic, reference in zip(report.outcomes, clean.outcomes):
            if chaotic.result.degraded:
                assert chaotic.result.dependent is True
            else:
                assert chaotic.result == reference.result

        # Every injected fault is accounted for in the metrics.
        registry = report.stats.registry
        assert registry.get("robust.shard_crashes") == crashes
        assert registry.get("robust.shard_retries") == retries
        assert registry.get("robust.quarantined") == len(quarantined_reps)
        assert [case.rep_index for case in report.quarantine] == quarantined_reps
        assert all(case.reason == KIND_CRASH for case in report.quarantine)
        assert report.summary()["quarantined"] == len(quarantined_reps)

    def test_chaos_run_is_reproducible(self):
        queries = _queries(4)
        _E2E_PLAN.install()
        first = analyze_batch(
            queries, jobs=2, shard_timeout=30.0, shard_retries=1
        )
        second = analyze_batch(
            queries, jobs=2, shard_timeout=30.0, shard_retries=1
        )
        FaultPlan.uninstall()
        assert [o.result for o in first.outcomes] == [
            o.result for o in second.outcomes
        ]
        assert first.quarantine == second.quarantine
        assert (
            first.stats.registry.counter_snapshot()
            == second.stats.registry.counter_snapshot()
        )

    def test_checkpoint_survives_total_write_failure(self, tmp_path):
        queries = _queries(4)
        clean = analyze_batch(queries, jobs=2)
        path = tmp_path / "ck.json"
        FaultPlan(seed=6, write_fail_rate=1.0).install()
        with pytest.warns(RuntimeWarning, match="checkpoint write"):
            report = analyze_batch(queries, jobs=2, checkpoint=path)
        FaultPlan.uninstall()
        # The run completes with correct answers; only durability of
        # the checkpoint is lost.
        assert [o.result for o in report.outcomes] == [
            o.result for o in clean.outcomes
        ]
        assert not path.exists()

    def test_clean_plan_changes_nothing(self):
        queries = _queries(4)
        clean = analyze_batch(queries, jobs=2)
        FaultPlan(seed=0).install()  # all rates zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze_batch(
                queries, jobs=2, shard_timeout=30.0, shard_retries=1
            )
        FaultPlan.uninstall()
        assert [o.result for o in report.outcomes] == [
            o.result for o in clean.outcomes
        ]
        assert report.quarantine == []
        assert report.stats.registry.get("robust.shard_crashes") == 0
