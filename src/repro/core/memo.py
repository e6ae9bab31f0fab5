"""Memoization of dependence queries (paper section 5).

Real programs repeat a small number of unique subscript/bound patterns,
so remembering previous answers removes the vast majority of test
invocations (5,679 -> 332 on the PERFECT Club).  Two tables are kept:

* a **no-bounds** table keyed on the subscript equations alone — a hit
  here reuses the Extended GCD outcome (the GCD test never looks at
  bounds);
* a **with-bounds** table keyed on equations plus loop bounds — a hit
  reuses the full verdict (and any direction-vector analysis).

The paper keys a 4096-slot open hash table with
``h(z) = size(z) + sum_i 2^i * z_i`` over the problem vector ``z``.
Here each table is a plain ``dict`` over interned zigzag-varint byte
keys (:func:`encode_key`, :func:`intern_key`).  Hashing only decides
where an entry lives, never whether two problems match: a probe hits
exactly when an equal key was inserted.  So the published counts —
queries, hits and unique inserts, which Tables 2-3 report — depend only
on key equality and come out the same under any hash.

The *improved* scheme additionally drops the bound constraints of
unused loop indices before keying, merging cases that differ only in
irrelevant surrounding loops; see
:meth:`repro.system.depsystem.DependenceProblem.eliminate_unused`.

As a further optimization the paper suggests canonicalizing symmetric
pairs (comparing ``a[i]`` to ``a[i-1]`` is the same problem as
comparing ``a[i-1]`` to ``a[i]``); :class:`Memoizer` supports this via
``symmetry=True`` (off by default to mirror the published scheme).

The on-disk image of a :class:`Memoizer` is defined once, in
:mod:`repro.core.persist`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "MemoTable",
    "MemoStats",
    "encode_key",
    "intern_key",
]


def encode_key(vector) -> bytes:
    """Zigzag-varint encode an integer sequence into a stable byte key.

    Each element encodes independently (zigzag to fold sign, then 7-bit
    groups with a continuation bit), so the encoding of a concatenated
    sequence is the concatenation of the encodings — the analyzer
    relies on this to append pre-encoded option tails to a problem's
    cached key bytes.  The per-element encoding is prefix-free, making
    the sequence encoding injective: distinct key vectors never collide
    as bytes.
    """
    out = bytearray()
    append = out.append
    for z in vector:
        u = z + z if z >= 0 else -z - z - 1
        while u > 0x7F:
            append((u & 0x7F) | 0x80)
            u >>= 7
        append(u)
    return bytes(out)


# Global intern table for byte keys.  Problems repeat heavily (that is
# the whole premise of memoization), so interning makes every repeated
# probe reuse one bytes object — one dict hit here, then one dict hit in
# the memo table, with zero tuple construction.  ``bytes`` cannot go
# through ``sys.intern`` (str-only); a plain setdefault dict gives the
# same sharing.  The table is process-global and append-only; shard
# workers each build their own, and keys decoded from a memo image
# re-intern (see repro.core.persist).
_INTERN: dict[bytes, bytes] = {}


def intern_key(data: bytes) -> bytes:
    """Return the canonical shared instance of ``data``."""
    return _INTERN.setdefault(data, data)


_ABSENT = object()  # lookup miss sentinel (None is a legal value)


@dataclass
class MemoStats:
    """Hit/miss accounting for one table."""

    queries: int = 0
    hits: int = 0
    inserts: int = 0

    @property
    def unique(self) -> int:
        return self.inserts

    @property
    def unique_fraction(self) -> float:
        if self.queries == 0:
            return 0.0
        return self.inserts / self.queries


class MemoTable:
    """One memo table: a dict from problem keys to cached answers.

    ``stats`` counts every probe, hit and first insert of a key.
    """

    def __init__(self):
        self._entries: dict[Any, Any] = {}
        self.stats = MemoStats()

    def lookup(self, key) -> tuple[bool, Any]:
        """Return ``(hit, value)``; counts the query."""
        stats = self.stats
        stats.queries += 1
        value = self._entries.get(key, _ABSENT)
        if value is not _ABSENT:
            stats.hits += 1
            return True, value
        return False, None

    def insert(self, key: tuple[int, ...], value: Any) -> None:
        entries = self._entries
        if key not in entries:
            self.stats.inserts += 1
        entries[key] = value

    def update(self, key: tuple[int, ...], value: Any) -> None:
        """Overwrite the value without counting a fresh unique insert."""
        self._entries[key] = value

    def items(self) -> list[tuple[Any, Any]]:
        """A snapshot of every ``(key, value)`` entry."""
        return list(self._entries.items())

    def copy(self) -> "MemoTable":
        """A plain, independent table with the same entries; fresh stats."""
        table = MemoTable()
        table._entries = self._entries.copy()
        return table

    def merge_from(self, other: "MemoTable") -> None:
        """Adopt every entry of ``other`` (map-reduce merge step).

        Entries already present take the incoming value — memo values
        for equal keys are equal by construction, so the choice is
        immaterial; hit statistics are left untouched.
        """
        for key, value in other.items():
            self.update(key, value)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class Memoizer:
    """The analyzer's pair of memo tables (section 5).

    ``improved`` selects the unused-variable-eliminated keys (the
    paper's improved scheme); the analyzer consults it when encoding.
    """

    no_bounds: MemoTable = field(default_factory=MemoTable)
    with_bounds: MemoTable = field(default_factory=MemoTable)
    improved: bool = True
    # The paper's "further optimization": canonicalize a problem and its
    # reference-swapped twin onto one slot.  Applies to plain queries
    # (distances are re-oriented on retrieval); direction-vector queries
    # keep orientation-specific entries.
    symmetry: bool = False

    def copy(self) -> "Memoizer":
        """A plain, independent snapshot: same entries and keying.

        The copy's tables are lock-free :class:`MemoTable` objects with
        fresh statistics, whatever the source tables are, so it can be
        extended or pickled without touching the original.
        """
        return Memoizer(
            no_bounds=self.no_bounds.copy(),
            with_bounds=self.with_bounds.copy(),
            improved=self.improved,
            symmetry=self.symmetry,
        )

    def compatible_with(self, other: "Memoizer") -> bool:
        """Same keying scheme — a prerequisite for merging tables."""
        return (
            self.improved == other.improved
            and self.symmetry == other.symmetry
        )

    def merge_from(self, other: "Memoizer") -> "Memoizer":
        """Adopt every entry of ``other``'s tables; returns ``self``.

        Both memoizers must use the same keying scheme (``improved`` /
        ``symmetry``), otherwise their key vectors are incomparable.
        """
        if not self.compatible_with(other):
            raise ValueError(
                "cannot merge memoizers with different keying schemes: "
                f"improved={self.improved}/{other.improved} "
                f"symmetry={self.symmetry}/{other.symmetry}"
            )
        self.no_bounds.merge_from(other.no_bounds)
        self.with_bounds.merge_from(other.with_bounds)
        return self
