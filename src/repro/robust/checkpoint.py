"""Crash-safe batch checkpoints: resume = replay completed shards.

A long batch run should survive the machine it runs on.  The engine's
supervised path records every completed shard's output — answers,
metrics registry, memo tables, quarantine record — into one JSON
checkpoint file, rewritten atomically by
:func:`repro.core.persist.atomic_write_text` after each shard.
``kill -9`` the batch process at any point, rerun with ``--resume``,
and the finished shards load from disk while only the unfinished ones
re-run; because the engine merges shard outputs in payload order
regardless of where they came from, the resumed run's results, counter
snapshot and memo entries are bit-identical to an uninterrupted run.

The file is self-validating: a ``fingerprint`` (SHA-256 over the
canonicalized batch options and every deduped problem's key vector)
ties a checkpoint to exactly one batch.  A resume against a different
input set, different options, a truncated file or chaos-corrupted
bytes degrades to a cold start with a warning — never a wrong answer.

Format (version 2)::

    {
      "format": "repro-batch-checkpoint",
      "version": 2,
      "fingerprint": "<sha256 hex>",
      "shards": {
        "<payload index>": {
          "outputs": [
            {"answers": [[rep_index, result, directions|null], ...],
             "registry": <MetricsRegistry.to_dict()>,
             "memo": <memo image object, see repro.core.persist>},
            ...
          ],
          "quarantine": [<QuarantinedCase.to_dict()>, ...]
        }
      }
    }

Version bumps are strict: any mismatch is a cold start.  Trace sinks
are not checkpointable (event streams are not serialized here), which
the engine enforces up front.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from pathlib import Path
from typing import Any

from repro.core.persist import (
    LOAD_ERRORS,
    atomic_write_text,
    decode_image,
    encode_image,
)
from repro.core.result import DependenceResult, DirectionResult
from repro.core.stats import AnalyzerStats
from repro.obs.metrics import MetricsRegistry
from repro.robust.watchdog import QuarantinedCase

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "BatchCheckpoint",
    "fingerprint_batch",
    "encode_result",
    "decode_result",
    "encode_directions",
    "decode_directions",
]

CHECKPOINT_FORMAT = "repro-batch-checkpoint"
CHECKPOINT_VERSION = 2


def _jsonable(value: Any) -> Any:
    """Canonicalize arbitrary option/key structures for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__} | {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def fingerprint_batch(keys: list[tuple], opts: dict) -> str:
    """SHA-256 identity of one batch: its unique problems + options."""
    payload = json.dumps(
        {"keys": _jsonable(keys), "opts": _jsonable(opts)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# -- result serde ----------------------------------------------------------


def encode_result(result: DependenceResult) -> dict:
    return {
        "dependent": result.dependent,
        "decided_by": result.decided_by,
        "exact": result.exact,
        "witness": list(result.witness) if result.witness is not None else None,
        "from_memo": result.from_memo,
        "distance": list(result.distance) if result.distance is not None else None,
        "degraded_reason": result.degraded_reason,
    }


def decode_result(payload: dict) -> DependenceResult:
    witness = payload["witness"]
    distance = payload["distance"]
    return DependenceResult(
        dependent=payload["dependent"],
        decided_by=payload["decided_by"],
        exact=payload["exact"],
        witness=tuple(witness) if witness is not None else None,
        from_memo=payload["from_memo"],
        distance=tuple(distance) if distance is not None else None,
        degraded_reason=payload["degraded_reason"],
    )


def encode_directions(directions: DirectionResult | None) -> dict | None:
    if directions is None:
        return None
    return {
        "vectors": sorted(list(vector) for vector in directions.vectors),
        "n_common": directions.n_common,
        "exact": directions.exact,
        "from_memo": directions.from_memo,
        "tests_performed": directions.tests_performed,
        "degraded_reason": directions.degraded_reason,
    }


def decode_directions(payload: dict | None) -> DirectionResult | None:
    if payload is None:
        return None
    return DirectionResult(
        vectors=frozenset(tuple(vector) for vector in payload["vectors"]),
        n_common=payload["n_common"],
        exact=payload["exact"],
        from_memo=payload["from_memo"],
        tests_performed=payload["tests_performed"],
        degraded_reason=payload["degraded_reason"],
    )


def _encode_output(output: tuple) -> dict:
    answers, stats, memoizer, events = output
    if events:
        raise ValueError("trace events are not checkpointable")
    return {
        "answers": [
            [rep_index, encode_result(result), encode_directions(directions)]
            for rep_index, result, directions in answers
        ],
        "registry": stats.registry.to_dict(),
        "memo": encode_image(memoizer),
    }


def _decode_output(payload: dict) -> tuple:
    answers = [
        (rep_index, decode_result(result), decode_directions(directions))
        for rep_index, result, directions in payload["answers"]
    ]
    stats = AnalyzerStats(MetricsRegistry.from_dict(payload["registry"]))
    return answers, stats, decode_image(payload["memo"]), []


class BatchCheckpoint:
    """One batch run's checkpoint file, rewritten after every shard.

    The engine drives it through three calls: :meth:`load` (resume),
    :meth:`record` (after each completed payload, serialized by the
    watchdog) and nothing else — the file on disk is always a complete,
    valid snapshot or the previous one (atomic replace).
    """

    def __init__(self, path: str | Path, fingerprint: str):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._shards: dict[int, dict] = {}

    def load(self, resume: bool) -> dict[int, tuple[list, list[QuarantinedCase]]]:
        """Completed payloads from disk; empty (cold) unless resuming.

        Corrupt, truncated, version-skewed or wrong-batch checkpoints
        warn and cold-start — resuming must never be less safe than
        starting over.
        """
        if not resume:
            return {}
        try:
            payload = json.loads(self.path.read_text())
            if payload["format"] != CHECKPOINT_FORMAT:
                raise ValueError("not a batch checkpoint")
            if payload["version"] != CHECKPOINT_VERSION:
                raise ValueError(
                    f"checkpoint version {payload['version']} "
                    f"!= supported {CHECKPOINT_VERSION}"
                )
            if payload["fingerprint"] != self.fingerprint:
                raise ValueError(
                    "checkpoint was written by a different batch "
                    "(inputs or options changed)"
                )
            done = {}
            for index, shard in payload["shards"].items():
                done[int(index)] = (
                    [_decode_output(output) for output in shard["outputs"]],
                    [
                        QuarantinedCase.from_dict(case)
                        for case in shard["quarantine"]
                    ],
                )
        except FileNotFoundError:
            return {}
        except LOAD_ERRORS as exc:
            warnings.warn(
                f"ignoring unusable checkpoint {self.path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return {}
        # Seed the in-memory image with the shards as read, so later
        # record() calls rewrite the resumed shards too (the file stays
        # complete throughout).
        self._shards = {int(i): shard for i, shard in payload["shards"].items()}
        return done

    def record(
        self,
        index: int,
        outputs: list,
        quarantine: list[QuarantinedCase],
    ) -> None:
        """Fold one completed payload in and rewrite the file atomically.

        Best-effort by design: a failed write (disk full, injected
        chaos fault) costs resume granularity, never the run — the
        batch carries on and the next record() retries the full image.
        """
        self._shards[index] = {
            "outputs": [_encode_output(output) for output in outputs],
            "quarantine": [case.to_dict() for case in quarantine],
        }
        image = json.dumps(
            {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "fingerprint": self.fingerprint,
                "shards": {
                    str(i): shard for i, shard in sorted(self._shards.items())
                },
            },
            sort_keys=True,
        )
        try:
            atomic_write_text(self.path, image, chaos_site="checkpoint.write")
        except OSError as exc:
            warnings.warn(
                f"checkpoint write to {self.path} failed ({exc}); "
                "continuing without it",
                RuntimeWarning,
                stacklevel=2,
            )
