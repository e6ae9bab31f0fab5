"""Canonical fingerprints for statements, loop nests and programs.

The incremental re-analysis engine (:mod:`repro.core.incremental`)
needs to answer one question cheaply after an edit: *which statements
still mean what they meant before?*  Fingerprints make that a string
comparison.

Every fingerprint is the SHA-256 hex digest of a canonical JSON
rendering of the analysis-relevant IR content:

* a **loop-nest fingerprint** covers the nest's variables and its
  normalized affine bounds, outermost first;
* a **statement fingerprint** covers the enclosing nest plus the
  written reference and every read reference (normalized subscripts,
  access kinds), in program order within the statement;
* a **program fingerprint** is the ordered list of its statement
  fingerprints plus one combined digest.

Canonicalization rides on :mod:`repro.ir.serde` (sorted dict keys,
zero coefficients dropped by :class:`~repro.ir.affine.AffineExpr`), so
the digest is a pure function of the IR's meaning: whitespace,
comment and formatting differences in the surface source vanish in the
parser, and an unparse → re-parse round trip
(:func:`repro.lang.unparse.program_to_source`) reproduces every
fingerprint bit-for-bit.  Statement labels are deliberately excluded —
they never influence a dependence verdict.

The **pair key** is the same construction applied to an ordered pair
of access sites; it names one dependence question.  The incremental
engine keys its kept answers by statement identity instead, carried
through :func:`diff_fingerprints`' kept map, so keying them costs no
hashing at all.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.ir.loops import LoopNest
from repro.ir.program import AccessSite, Program, Statement
from repro.ir.serde import nest_to_dict, ref_to_dict

__all__ = [
    "nest_fingerprint",
    "statement_fingerprint",
    "program_fingerprint",
    "pair_key",
    "ProgramFingerprint",
    "FingerprintDelta",
    "diff_fingerprints",
]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def nest_fingerprint(nest: LoopNest) -> str:
    """Canonical digest of one loop nest (vars + normalized bounds)."""
    return _digest(nest_to_dict(nest))


def statement_fingerprint(stmt: Statement) -> str:
    """Canonical digest of one statement's analysis-relevant content."""
    return _digest(
        {
            "nest": nest_to_dict(stmt.nest),
            "write": ref_to_dict(stmt.write) if stmt.write is not None else None,
            "reads": [ref_to_dict(ref) for ref in stmt.reads],
        }
    )


def pair_key(site1: AccessSite, site2: AccessSite) -> str:
    """Canonical digest naming one ordered dependence question.

    Covers both references (subscripts + access kind) and both nests —
    the complete input of a direction-vector query.  Two textually
    identical pairs pose identical questions and deliberately share
    one key; the answer is a pure function of it.
    """
    return _digest(
        {
            "ref1": ref_to_dict(site1.ref),
            "nest1": nest_to_dict(site1.nest),
            "ref2": ref_to_dict(site2.ref),
            "nest2": nest_to_dict(site2.nest),
        }
    )


@dataclass(frozen=True)
class ProgramFingerprint:
    """Ordered statement fingerprints plus one combined digest."""

    statements: tuple[str, ...]
    digest: str

    def __len__(self) -> int:
        return len(self.statements)


def program_fingerprint(
    program: Program, statements: tuple[str, ...] | None = None
) -> ProgramFingerprint:
    """``statements`` passes the statement fingerprints when the caller
    already has them (:class:`repro.opt.spans.SpanCompiler` does)."""
    if statements is None:
        statements = tuple(statement_fingerprint(s) for s in program.statements)
    return ProgramFingerprint(statements=statements, digest=_digest(list(statements)))


@dataclass(frozen=True)
class FingerprintDelta:
    """What an edit did, at statement granularity.

    ``kept`` maps old statement index → new statement index for every
    statement whose fingerprint survived (greedy in-order matching, so
    duplicated statements pair up positionally).  ``dirty`` holds new
    indices with no surviving twin (edited or inserted statements);
    ``removed`` holds old indices whose statement disappeared.
    """

    kept: tuple[tuple[int, int], ...]
    dirty: tuple[int, ...]
    removed: tuple[int, ...]

    @property
    def unchanged(self) -> bool:
        return not self.dirty and not self.removed


def diff_fingerprints(
    old: ProgramFingerprint, new: ProgramFingerprint
) -> FingerprintDelta:
    """Match statements of two program versions by fingerprint.

    Greedy and in-order: the first unmatched old occurrence of a
    fingerprint pairs with the first new occurrence, so a program of
    repeated statements diffs to "all kept" against itself.
    """
    available: dict[str, list[int]] = {}
    for index, fp in enumerate(old.statements):
        available.setdefault(fp, []).append(index)
    kept: list[tuple[int, int]] = []
    dirty: list[int] = []
    matched_old: set[int] = set()
    for new_index, fp in enumerate(new.statements):
        slots = available.get(fp)
        if slots:
            old_index = slots.pop(0)
            matched_old.add(old_index)
            kept.append((old_index, new_index))
        else:
            dirty.append(new_index)
    removed = tuple(
        index
        for index in range(len(old.statements))
        if index not in matched_old
    )
    return FingerprintDelta(
        kept=tuple(kept), dirty=tuple(dirty), removed=removed
    )
