"""Tests for crash-safe batch checkpoints (repro.robust.checkpoint).

The load-bearing acceptance property: a batch interrupted at any shard
boundary and resumed with ``--resume`` produces results and a counter
snapshot bit-identical to an uninterrupted run.  Safety net: corrupt,
truncated, version-skewed or wrong-batch checkpoints cold-start with a
warning, never a wrong answer.
"""

import json

import pytest

from repro.core.analyzer import DependenceAnalyzer
from repro.core.engine import PairQuery, analyze_batch
from repro.core.memo import Memoizer
from repro.core.result import DependenceResult, DirectionResult
from repro.ir import builder as B
from repro.obs.sinks import CollectingSink
from repro.robust.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    BatchCheckpoint,
    decode_directions,
    decode_result,
    encode_directions,
    encode_result,
    fingerprint_batch,
)
from repro.robust.watchdog import QuarantinedCase


def _queries(n=6):
    nest = B.nest(("i", 1, 10), ("j", 1, 10))
    out = []
    for k in range(n):
        out.append(
            PairQuery(
                ref1=B.ref("a", [B.v("i") + k, B.v("j")], write=True),
                nest1=nest,
                ref2=B.ref("a", [B.v("i"), B.v("j") + 1]),
                nest2=nest,
            )
        )
    return out


class TestFingerprint:
    def test_stable(self):
        keys = [(1, 2, 3), (4, 5)]
        opts = {"improved": True, "fm_budget": 256}
        assert fingerprint_batch(keys, opts) == fingerprint_batch(keys, opts)

    def test_sensitive_to_keys_and_opts(self):
        keys = [(1, 2, 3)]
        opts = {"improved": True}
        assert fingerprint_batch(keys, opts) != fingerprint_batch(
            [(1, 2, 4)], opts
        )
        assert fingerprint_batch(keys, opts) != fingerprint_batch(
            keys, {"improved": False}
        )

    def test_handles_dataclass_opts(self):
        from repro.robust.budget import ResourceBudget

        opts = {"budget": ResourceBudget(deadline_s=1.0)}
        assert fingerprint_batch([], opts) != fingerprint_batch(
            [], {"budget": ResourceBudget(deadline_s=2.0)}
        )
        assert fingerprint_batch([], opts) != fingerprint_batch(
            [], {"budget": None}
        )


class TestResultSerde:
    def test_result_round_trip(self):
        result = DependenceResult(
            dependent=True,
            decided_by="fourier_motzkin",
            exact=True,
            witness=(1, 2, 1, 3),
            distance=(0, 1),
        )
        assert decode_result(encode_result(result)) == result

    def test_degraded_result_round_trip(self):
        result = DependenceResult(
            dependent=True,
            decided_by="budget",
            exact=False,
            degraded_reason="wall_clock",
        )
        assert decode_result(encode_result(result)) == result

    def test_directions_round_trip(self):
        directions = DirectionResult(
            vectors=frozenset({("<", "="), ("=", "*")}),
            n_common=2,
            exact=True,
            tests_performed=5,
        )
        assert decode_directions(encode_directions(directions)) == directions

    def test_none_directions(self):
        assert encode_directions(None) is None
        assert decode_directions(None) is None


class TestBatchCheckpointFile:
    def test_cold_without_resume(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        ckpt = BatchCheckpoint(path, "fp")
        assert ckpt.load(resume=False) == {}

    def test_missing_file_is_silent_cold_start(self, tmp_path):
        ckpt = BatchCheckpoint(tmp_path / "absent.json", "fp")
        assert ckpt.load(resume=True) == {}

    def test_corrupt_file_warns_and_cold_starts(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{truncated garbage")
        ckpt = BatchCheckpoint(path, "fp")
        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            assert ckpt.load(resume=True) == {}

    def test_wrong_fingerprint_warns_and_cold_starts(self, tmp_path):
        path = tmp_path / "ck.json"
        BatchCheckpoint(path, "fp-one").record(
            0, [([], _stats(), Memoizer(), [])], []
        )
        ckpt = BatchCheckpoint(path, "fp-two")
        with pytest.warns(RuntimeWarning, match="different batch"):
            assert ckpt.load(resume=True) == {}

    def test_version_skew_warns_and_cold_starts(self, tmp_path):
        path = tmp_path / "ck.json"
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION + 1,
            "fingerprint": "fp",
            "shards": {},
        }
        path.write_text(json.dumps(payload))
        ckpt = BatchCheckpoint(path, "fp")
        with pytest.warns(RuntimeWarning, match="version"):
            assert ckpt.load(resume=True) == {}

    def test_record_then_load_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        answers = [
            (
                0,
                DependenceResult(dependent=True, decided_by="svpc"),
                DirectionResult(vectors=frozenset({("<",)}), n_common=1),
            )
        ]
        quarantined = QuarantinedCase(2, "b vs b", "timeout", 2)
        memo = Memoizer()
        query = _queries(1)[0]
        DependenceAnalyzer(memoizer=memo).directions(
            query.ref1, query.nest1, query.ref2, query.nest2
        )
        writer = BatchCheckpoint(path, "fp")
        writer.record(0, [(answers, _stats(), memo, [])], [quarantined])
        writer.record(1, [(answers, _stats(), Memoizer(), [])], [])

        done = BatchCheckpoint(path, "fp").load(resume=True)
        assert sorted(done) == [0, 1]
        outputs, quarantine = done[0]
        assert quarantine == [quarantined]
        got_answers, got_stats, got_memo, got_events = outputs[0]
        assert got_answers == answers
        assert _entries(got_memo) == _entries(memo)
        assert len(memo.with_bounds) > 0
        # The memo is embedded as an image object, not an escaped string.
        image = json.loads(path.read_text())["shards"]["0"]["outputs"][0]["memo"]
        assert image["format"] == "repro-memo"
        assert got_events == []

    def test_trace_events_refuse_to_checkpoint(self, tmp_path):
        ckpt = BatchCheckpoint(tmp_path / "ck.json", "fp")
        with pytest.raises(ValueError, match="not checkpointable"):
            ckpt.record(0, [([], _stats(), Memoizer(), ["event"])], [])


def _stats():
    from repro.core.stats import AnalyzerStats

    return AnalyzerStats()


def _entries(memoizer):
    return {
        name: dict(getattr(memoizer, name).items())
        for name in ("no_bounds", "with_bounds")
    }


class TestEngineResume:
    def test_resume_is_bit_identical(self, tmp_path):
        queries = _queries()
        path = tmp_path / "ck.json"
        first = analyze_batch(queries, jobs=3, checkpoint=path)
        assert path.exists()
        resumed = analyze_batch(queries, jobs=3, checkpoint=path, resume=True)
        assert [(o.result, o.directions) for o in first.outcomes] == [
            (o.result, o.directions) for o in resumed.outcomes
        ]
        assert (
            first.stats.registry.counter_snapshot()
            == resumed.stats.registry.counter_snapshot()
        )
        assert _entries(resumed.memoizer) == _entries(first.memoizer)

    def test_partial_resume_is_bit_identical(self, tmp_path):
        queries = _queries()
        path = tmp_path / "ck.json"
        first = analyze_batch(queries, jobs=3, checkpoint=path)

        # Simulate a crash that lost the last shard: drop one entry
        # from the (valid) checkpoint image.
        payload = json.loads(path.read_text())
        assert len(payload["shards"]) == 3
        dropped = sorted(payload["shards"])[-1]
        del payload["shards"][dropped]
        path.write_text(json.dumps(payload))

        resumed = analyze_batch(queries, jobs=3, checkpoint=path, resume=True)
        assert [(o.result, o.directions) for o in first.outcomes] == [
            (o.result, o.directions) for o in resumed.outcomes
        ]
        assert (
            first.stats.registry.counter_snapshot()
            == resumed.stats.registry.counter_snapshot()
        )
        assert _entries(resumed.memoizer) == _entries(first.memoizer)

    def test_changed_options_cold_start_with_warning(self, tmp_path):
        queries = _queries()
        path = tmp_path / "ck.json"
        analyze_batch(queries, jobs=2, checkpoint=path)
        with pytest.warns(RuntimeWarning, match="different batch"):
            report = analyze_batch(
                queries,
                jobs=2,
                checkpoint=path,
                resume=True,
                want_witness=True,  # changes the batch fingerprint
            )
        assert len(report.outcomes) == len(queries)

    def test_checkpoint_refuses_trace_sink(self, tmp_path):
        with pytest.raises(ValueError, match="trace"):
            analyze_batch(
                _queries(2),
                jobs=1,
                checkpoint=tmp_path / "ck.json",
                sink=CollectingSink(),
            )

    def test_resume_without_checkpoint_runs_cold(self):
        report = analyze_batch(_queries(2), jobs=1)
        assert len(report.outcomes) == 2
