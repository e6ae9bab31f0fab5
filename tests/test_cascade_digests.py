"""The cascade's answers and counters, pinned by digest.

The digest gate runs the analyzer over the deterministic fuzz corpus —
500 cases on each of the five tiers — and hashes every answer the
cascade gives: the plain verdict (dependent, deciding test, exactness,
witness, distance) and the direction vectors (the set, its exactness
and the common depth).  The analyzer's counter snapshot after the run
(the per-test counts behind the paper's tables) is hashed too.  Both
are compared with ``tests/goldens/cascade_digests.json``, so any change
in what the cascade decides, how it decides it, or which test it
credits shows here, down to the case index.  The analyzer memoizes, so
the gate also covers memo hits.  After an intentional change to the
cascade's answers, regenerate with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/test_cascade_digests.py

and review the diff like any other code change.

Also covered here: the byte memo keys are exactly the zigzag-varint
encoding of the published integer key vectors (so the two keyspaces
cannot drift), and the sharded batch engine produces bit-identical
outcomes to the serial engine.
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer, encode_key
from repro.fuzz.generator import TIERS, generate_case
from repro.system.depsystem import build_problem

SEED = 20260807
N_CASES = 500
DIGESTS = pathlib.Path(__file__).parent / "goldens" / "cascade_digests.json"


def _answers(analyzer, case):
    plain = analyzer.analyze(case.ref1, case.nest1, case.ref2, case.nest2)
    vectors = analyzer.directions(
        case.ref1, case.nest1, case.ref2, case.nest2
    )
    return [
        plain.dependent,
        plain.decided_by,
        plain.exact,
        plain.witness,
        plain.distance,
        vectors.exact,
        sorted(vectors.vectors),
        vectors.n_common,
    ]


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _tier_digests(tier: str) -> dict:
    analyzer = DependenceAnalyzer(memoizer=Memoizer())
    answers = [
        _digest(_answers(analyzer, generate_case(SEED, index, tier)))
        for index in range(N_CASES)
    ]
    counters = _digest(analyzer.stats.registry.counter_snapshot())
    return {"answers": answers, "counters": counters}


def _record(tier: str, digests: dict) -> None:
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pinned[tier] = digests
    lines = (
        f"{json.dumps(name)}: {json.dumps(pinned[name], sort_keys=True)}"
        for name in TIERS
        if name in pinned
    )
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.mark.parametrize("tier", TIERS)
def test_cascade_answers_match_digests(tier):
    """Same answers and counters as recorded, 500 cases per tier."""
    got = _tier_digests(tier)
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        _record(tier, got)
    want = json.loads(DIGESTS.read_text())[tier]
    changed = [
        index
        for index, (a, b) in enumerate(zip(got["answers"], want["answers"]))
        if a != b
    ]
    assert not changed, f"tier={tier}: {len(changed)} cases changed: {changed[:20]}"
    assert len(got["answers"]) == len(want["answers"])
    assert got["counters"] == want["counters"], f"tier={tier}: counters changed"


@pytest.mark.parametrize("tier", TIERS)
def test_byte_keys_encode_the_key_vectors(tier):
    """``key_bytes`` is exactly ``encode_key(key_vector)`` — per tier.

    The memo keyspace must not depend on which accessor built the key;
    the byte form is the varint encoding of the published integer
    vector, for both the with-bounds and no-bounds tables.
    """
    for index in range(0, N_CASES, 5):
        case = generate_case(SEED, index, tier)
        problem = build_problem(case.ref1, case.nest1, case.ref2, case.nest2)
        for with_bounds in (True, False):
            vector = problem.key_vector(with_bounds=with_bounds)
            data = problem.key_bytes(with_bounds=with_bounds)
            assert data == encode_key(vector)
        reduced, _ = problem.eliminate_unused()
        assert reduced.key_bytes(True) == encode_key(reduced.key_vector(True))


def test_serial_matches_sharded():
    """The sharded engine stays bitwise-equal to serial."""
    from repro.core.engine import analyze_batch, queries_from_suite
    from repro.perfect import load_suite

    queries = queries_from_suite(load_suite(include_symbolic=True, scale=0.02))

    def canon(report):
        out = []
        for outcome in report.outcomes:
            result, directions = outcome.result, outcome.directions
            out.append(
                (
                    str(outcome.query.ref1),
                    str(outcome.query.ref2),
                    result.dependent,
                    result.decided_by,
                    result.exact,
                    result.distance,
                    sorted(directions.vectors) if directions else None,
                )
            )
        return out

    serial = analyze_batch(queries, jobs=1, want_directions=True)
    sharded = analyze_batch(queries, jobs=3, want_directions=True)
    assert canon(serial) == canon(sharded)
