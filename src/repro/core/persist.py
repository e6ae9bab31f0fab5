"""The memo image: the one on-disk format of the memo tables (paper §5).

"One other possible improvement is to store the hash table across
compilations.  This will eliminate the data dependence cost of
incremental compilation.  In addition, if there is similarity across
programs, one could use a set of benchmarks to set up a standard table
which would be used by all programs."

This module is the only encoder, decoder and atomic writer of a
:class:`~repro.core.memo.Memoizer` on disk.  Every disk user goes
through it — ``repro batch --warm-cache`` (:func:`save_memoizer`,
:func:`load_memoizer_safe`), the serve disk tier
(:class:`repro.serve.cache.ServeCache`) and the batch checkpoint
(:mod:`repro.robust.checkpoint`, which embeds the image as an object) —
so a file written by any of them loads in the others.  The format (version 2)::

    {
      "format": "repro-memo",
      "version": 2,
      "improved": true,
      "symmetry": false,
      "tables": {
        "no_bounds":   [<entry>, ...],
        "with_bounds": [<entry>, ...]
      }
    }

    <entry> = {"key": [int, ...], "key_type": "b", "value": {...}, "used": 17}

``key`` lists the key's integers; ``key_type: "b"`` marks an interned
byte key (absent: a tuple key).  ``value`` is one cacheable payload —
a verdict, reduced directions or a GCD factorization; degraded answers
are never memoized, so an image cannot carry one.  ``used`` is the
serve tier's optional least-recently-used stamp.  Hit statistics are
not stored.  Any other format or version, version-1 files of the older
layouts included, is refused with :class:`MemoImageSkew`: images are
caches, so callers warn and start cold rather than keep a second
reader.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any

from repro.core.analyzer import _CachedDirections, _CachedVerdict, _GcdCacheEntry
from repro.core.memo import Memoizer, intern_key

__all__ = [
    "MEMO_FORMAT",
    "MEMO_VERSION",
    "TABLES",
    "LOAD_ERRORS",
    "MemoImageSkew",
    "encode_entry",
    "encode_image",
    "decode_tables",
    "decode_image",
    "dumps",
    "loads",
    "save_memoizer",
    "load_memoizer",
    "load_memoizer_safe",
    "merge_memoizers",
    "atomic_write_text",
]

MEMO_FORMAT = "repro-memo"
MEMO_VERSION = 2
TABLES = ("no_bounds", "with_bounds")

# Everything a structurally broken image can raise while being read and
# decoded: I/O errors, truncated/garbage JSON (json raises a ValueError
# subclass), missing or mistyped fields, non-dict payloads.
LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError)


class MemoImageSkew(ValueError):
    """A well-formed file of another format, version or keying scheme."""


def _encode_value(value: Any) -> dict:
    if isinstance(value, _GcdCacheEntry):
        return {
            "kind": "gcd",
            "independent": value.independent,
            # `is not None`, not truthiness: a *dependent* entry may
            # legitimately carry an empty basis (unique solution) or an
            # empty offset, which must survive the round trip.
            "x_offset": list(value.x_offset)
            if value.x_offset is not None
            else None,
            "x_basis": [list(row) for row in value.x_basis]
            if value.x_basis is not None
            else None,
        }
    if isinstance(value, _CachedVerdict):
        return {
            "kind": "verdict",
            "dependent": value.dependent,
            "decided_by": value.decided_by,
            "exact": value.exact,
            "distance": list(value.distance_reduced)
            if value.distance_reduced is not None
            else None,
        }
    if isinstance(value, _CachedDirections):
        return {
            "kind": "directions",
            "vectors": sorted(list(v) for v in value.vectors_reduced),
            "exact": value.exact,
            "n_common": value.reduced_n_common,
        }
    raise TypeError(f"cannot persist memo value {value!r}")


def _decode_value(blob: dict) -> Any:
    kind = blob["kind"]
    if kind == "gcd":
        return _GcdCacheEntry(
            independent=blob["independent"],
            x_offset=tuple(blob["x_offset"])
            if blob["x_offset"] is not None
            else None,
            x_basis=tuple(tuple(row) for row in blob["x_basis"])
            if blob["x_basis"] is not None
            else None,
        )
    if kind == "verdict":
        return _CachedVerdict(
            dependent=blob["dependent"],
            decided_by=blob["decided_by"],
            exact=blob["exact"],
            distance_reduced=tuple(blob["distance"])
            if blob["distance"] is not None
            else None,
        )
    if kind == "directions":
        return _CachedDirections(
            vectors_reduced=frozenset(tuple(v) for v in blob["vectors"]),
            exact=blob["exact"],
            reduced_n_common=blob["n_common"],
        )
    raise ValueError(f"unknown memo value kind {kind!r}")


def encode_entry(key, value: Any, used: int | None = None) -> dict:
    """One ``<entry>`` of the image; ``used`` is the optional LRU stamp."""
    entry = {"key": list(key), "value": _encode_value(value)}
    if isinstance(key, bytes):
        entry["key_type"] = "b"
    if used is not None:
        entry["used"] = used
    return entry


def _decode_entry(entry: dict) -> tuple[Any, Any, int | None]:
    if entry.get("key_type") == "b":
        key = intern_key(bytes(entry["key"]))
    else:
        key = tuple(entry["key"])
    used = entry.get("used")
    return key, _decode_value(entry["value"]), None if used is None else int(used)


def encode_image(memoizer: Memoizer, tables: dict | None = None) -> dict:
    """The image of ``memoizer``.

    ``tables`` maps each name in :data:`TABLES` to its encoded entries;
    by default every entry of both tables, without ``used`` stamps.
    """
    if tables is None:
        tables = {
            name: [
                encode_entry(key, value)
                for key, value in getattr(memoizer, name).items()
            ]
            for name in TABLES
        }
    return {
        "format": MEMO_FORMAT,
        "version": MEMO_VERSION,
        "improved": memoizer.improved,
        "symmetry": memoizer.symmetry,
        "tables": tables,
    }


def decode_tables(
    blob: Any, like: Memoizer | None = None
) -> dict[str, list[tuple[Any, Any, int | None]]]:
    """Check an image's header and decode every entry, or raise.

    Returns ``(key, value, used)`` triples per table.  Nothing is
    returned until every entry has decoded, so a caller adopts the
    whole image or none of it.  With ``like``, the image's keying
    scheme must match that memoizer's.
    """
    if not isinstance(blob, dict):
        raise ValueError("a memo image must be a JSON object")
    found = (blob.get("format"), blob.get("version"))
    if found != (MEMO_FORMAT, MEMO_VERSION):
        raise MemoImageSkew(
            f"memo image format/version mismatch: {found} "
            f"!= {(MEMO_FORMAT, MEMO_VERSION)}"
        )
    if like is not None:
        found = (blob["improved"], blob["symmetry"])
        if found != (like.improved, like.symmetry):
            raise MemoImageSkew(
                f"memo keying mismatch: improved/symmetry {found} "
                f"!= {(like.improved, like.symmetry)}"
            )
    return {
        name: [_decode_entry(entry) for entry in blob["tables"][name]]
        for name in TABLES
    }


def decode_image(blob: Any) -> Memoizer:
    """Restore a memoizer from :func:`encode_image` output."""
    tables = decode_tables(blob)
    memoizer = Memoizer(improved=blob["improved"], symmetry=blob["symmetry"])
    for name, entries in tables.items():
        table = getattr(memoizer, name)
        for key, value, _used in entries:
            table.update(key, value)
    return memoizer


def dumps(memoizer: Memoizer) -> str:
    """Serialize a memoizer to the image's JSON text."""
    return json.dumps(encode_image(memoizer), separators=(",", ":"))


def loads(text: str) -> Memoizer:
    """Restore a memoizer from :func:`dumps` output."""
    return decode_image(json.loads(text))


def merge_memoizers(memoizers) -> Memoizer:
    """Union many memoizers' tables into one fresh memoizer.

    The map-reduce step of the batch engine: each worker fills its own
    tables; the merged table answers every case any worker saw and can
    be persisted to warm-start the next compilation.  All inputs must
    share one keying scheme; values for duplicate keys are equal by
    construction, so last-in wins without affecting answers.  Hit
    statistics start fresh in the merged memoizer.
    """
    memoizers = list(memoizers)
    if not memoizers:
        return Memoizer()
    merged = Memoizer(
        improved=memoizers[0].improved, symmetry=memoizers[0].symmetry
    )
    for memoizer in memoizers:
        merged.merge_from(memoizer)
    return merged


def atomic_write_text(
    path: str | Path, text: str, chaos_site: str | None = None
) -> None:
    """Write a file all-or-nothing: mkstemp + fsync + rename.

    A reader never observes a torn file — it sees either the previous
    complete content or the new one.  The temp file lands in the target
    directory so the final :func:`os.replace` stays within one
    filesystem (rename atomicity).  ``chaos_site`` names this write for
    the deterministic fault-injection harness
    (:mod:`repro.robust.chaos`); injected write failures surface as the
    same :class:`OSError` a full disk would raise, and injected
    corruption mangles the payload before it hits the temp file — both
    without ever corrupting the destination in place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode()
    if chaos_site is not None:
        from repro.robust.chaos import active_plan, write_fault

        if active_plan() is not None:
            data = write_fault(data, chaos_site, str(path))
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_memoizer(memoizer: Memoizer, path: str | Path) -> None:
    """Write the memoizer to disk for the next compilation session.

    Atomic (see :func:`atomic_write_text`): a crash mid-save leaves the
    previous cache intact instead of a truncated file.
    """
    atomic_write_text(path, dumps(memoizer), chaos_site="persist.save_memoizer")


def load_memoizer(path: str | Path) -> Memoizer:
    """Load a memoizer saved by :func:`save_memoizer` (or any image)."""
    return loads(Path(path).read_text())


def load_memoizer_safe(path: str | Path) -> Memoizer | None:
    """Load a warm-start table, or ``None`` when the file is unusable.

    A corrupt, truncated or version-mismatched cache file must never
    take the analysis down — it only costs warmth.  Every structural
    decode failure is reported as a :class:`RuntimeWarning` and the
    caller proceeds cold.  A *missing* file is also ``None``, silently:
    "no cache yet" is the normal first-run state, not a defect.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        return load_memoizer(path)
    except LOAD_ERRORS as err:
        warnings.warn(
            f"skipping corrupt warm-start cache {path}: {err!r} "
            "(analysis proceeds cold)",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
