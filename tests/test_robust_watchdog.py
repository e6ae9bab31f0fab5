"""Tests for the shard watchdog (repro.robust.watchdog).

Workers here are module-level functions (picklable under any
multiprocessing start method) that misbehave on purpose: crash, hang,
or crash only on a designated poison item — the scenarios the watchdog
exists to contain.
"""

import os
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.robust.watchdog import (
    KIND_CRASH,
    KIND_TIMEOUT,
    QuarantinedCase,
    run_supervised,
)

POISON = 666


def _ok_worker(payload):
    return [item * 2 for item in payload]


def _crash_worker(payload):
    os._exit(3)


def _hang_worker(payload):
    time.sleep(60)


def _poison_worker(payload):
    if POISON in payload:
        os._exit(5)
    return [item * 2 for item in payload]


def _crash_once_worker(payload):
    """Die while the flag file exists, removing it first: the retry
    in a fresh process succeeds."""
    flag, items = payload
    if os.path.exists(flag):
        os.unlink(flag)
        os._exit(13)
    return [item * 2 for item in items]


def _split(payload):
    return [(index, f"item-{item}", [item]) for index, item in enumerate(payload)]


def _fallback(payload):
    return ["fallback", payload]


class TestHappyPath:
    def test_all_payloads_complete(self):
        groups, quarantine = run_supervised(
            [[1, 2], [3], [4, 5, 6]], _ok_worker, attempts=1
        )
        assert groups == [[[2, 4]], [[6]], [[8, 10, 12]]]
        assert quarantine == []

    def test_empty_payload_list(self):
        groups, quarantine = run_supervised([], _ok_worker)
        assert groups == []
        assert quarantine == []

    def test_invalid_attempts_rejected(self):
        with pytest.raises(ValueError):
            run_supervised([[1]], _ok_worker, attempts=0)


class TestCrashContainment:
    def test_crash_without_quarantine_path_raises(self):
        with pytest.raises(RuntimeError, match="no quarantine path"):
            run_supervised([[1]], _crash_worker, attempts=1)

    def test_crashed_worker_is_retried_in_a_fresh_process(self, tmp_path):
        flag = tmp_path / "crash-once"
        flag.write_text("1")
        registry = MetricsRegistry()
        groups, quarantine = run_supervised(
            [(str(flag), [1, 2])], _crash_once_worker, registry=registry
        )
        assert groups == [[[2, 4]]]
        assert quarantine == []
        assert registry.get("robust.shard_crashes") == 1
        assert registry.get("robust.shard_retries") == 1

    def test_poison_case_is_quarantined(self):
        registry = MetricsRegistry()
        groups, quarantine = run_supervised(
            [[1, POISON, 3]],
            _poison_worker,
            attempts=2,
            split=_split,
            fallback=_fallback,
            registry=registry,
        )
        # The shard crashed twice, was split, and only the poison case
        # fell through to the fallback; innocent cases completed.
        assert groups == [[[2], ["fallback", [POISON]], [6]]]
        assert quarantine == [
            QuarantinedCase(
                rep_index=1, label=f"item-{POISON}", reason=KIND_CRASH, attempts=3
            )
        ]
        assert registry.get("robust.shard_crashes") == 3  # 2 shard + 1 case
        assert registry.get("robust.shard_retries") == 1
        assert registry.get("robust.quarantined") == 1

    def test_healthy_payloads_unaffected_by_sibling_poison(self):
        groups, quarantine = run_supervised(
            [[1, 2], [POISON]],
            _poison_worker,
            attempts=1,
            split=_split,
            fallback=_fallback,
        )
        assert groups[0] == [[2, 4]]
        assert groups[1] == [["fallback", [POISON]]]
        assert [case.rep_index for case in quarantine] == [0]


class TestTimeouts:
    def test_hung_worker_is_killed_and_quarantined(self):
        registry = MetricsRegistry()
        start = time.monotonic()
        groups, quarantine = run_supervised(
            [[1]],
            _hang_worker,
            timeout=0.3,
            attempts=1,
            split=_split,
            fallback=_fallback,
            registry=registry,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 10  # never waits out the 60s sleep
        assert groups == [[["fallback", [1]]]]
        assert quarantine[0].reason == KIND_TIMEOUT
        assert registry.get("robust.shard_timeouts") == 2  # shard + case


class TestResume:
    def test_done_payloads_are_not_rerun(self):
        # Payloads marked done use a crashing worker: if the watchdog
        # ran them anyway, the call would raise RuntimeError.
        done = {0: (["cached-output"], [])}
        groups, quarantine = run_supervised(
            [[1], [2]],
            _poison_worker,
            attempts=1,
            done=done,
        )
        assert groups == [["cached-output"], [[4]]]
        assert quarantine == []

    def test_fully_done_runs_nothing(self):
        done = {0: (["a"], []), 1: (["b"], [QuarantinedCase(7, "x", "crash", 2)])}
        groups, quarantine = run_supervised(
            [[POISON], [POISON]], _crash_worker, attempts=1, done=done
        )
        assert groups == [["a"], ["b"]]
        assert quarantine == [QuarantinedCase(7, "x", "crash", 2)]

    def test_on_result_fires_per_completed_payload(self):
        seen = []
        run_supervised(
            [[1], [2], [3]],
            _ok_worker,
            attempts=1,
            done={1: (["cached"], [])},
            on_result=lambda index, outputs, quarantine: seen.append(index),
        )
        # Only freshly computed payloads are recorded (the checkpoint
        # already holds the done ones).
        assert sorted(seen) == [0, 2]


class TestQuarantinedCaseSerde:
    def test_round_trip(self):
        case = QuarantinedCase(3, "a[i] vs a[i+1]", KIND_TIMEOUT, 2)
        assert QuarantinedCase.from_dict(case.to_dict()) == case
