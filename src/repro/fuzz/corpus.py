"""Regression-corpus I/O for shrunk fuzz counterexamples.

Every interesting case (shrunk counterexamples, curated seeds) is
committed under ``tests/corpus/`` as one JSON file whose name is
``{tier}-{fingerprint}.json``.  The fingerprint is a content hash of
the case *structure* (references, nests, env — not the originating
seed/index), so re-discovering the same minimal counterexample from a
different seed maps to the same file instead of piling up duplicates.

PR CI replays the whole corpus deterministically (fast — no random
generation), while the nightly fuzz job appends newly shrunk failures
here for triage.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.fuzz.generator import FuzzCase

__all__ = ["SCHEMA_VERSION", "fingerprint", "save_case", "load_case", "load_corpus"]

SCHEMA_VERSION = 1


def fingerprint(case: FuzzCase) -> str:
    """Stable 12-hex-digit content hash of the case structure."""
    payload = case.to_dict()
    payload.pop("seed", None)
    payload.pop("index", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def save_case(case: FuzzCase, directory: str | Path, note: str = "") -> Path:
    """Write the case to ``directory`` under its fingerprint filename."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest = fingerprint(case)
    path = directory / f"{case.tier}-{digest}.json"
    payload = {
        "schema": SCHEMA_VERSION,
        "tier": case.tier,
        "fingerprint": digest,
        "note": note,
        "origin": {"seed": case.seed, "index": case.index},
        "case": case.to_dict(),
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_case(path: str | Path) -> FuzzCase:
    """Read one corpus file back into a :class:`FuzzCase`.

    Raises ValueError, naming the file, when it holds no ``case``.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not JSON ({err})") from None
    if not isinstance(payload, dict) or "case" not in payload:
        raise ValueError(f"{path}: not a fuzz corpus case (no 'case' field)")
    schema = payload.get("schema", 0)
    if schema > SCHEMA_VERSION:
        raise ValueError(
            f"{path}: corpus schema {schema} is newer than supported "
            f"({SCHEMA_VERSION})"
        )
    return FuzzCase.from_dict(payload["case"])


def load_corpus(directory: str | Path) -> list[FuzzCase]:
    """All corpus cases in a directory, ordered by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [load_case(path) for path in sorted(directory.glob("*.json"))]
