"""Loop-transformation legality from direction vectors.

The classical clients of exact dependence analysis: a loop
transformation is legal iff it keeps every dependence's direction
vector *lexicographically non-negative* (the sink iteration must not
move before its source).  Exact vectors make these checks exact:

* **parallelization** of loop ``k`` — no dependence carried at ``k``
  (see :mod:`repro.core.parallel`);
* **reversal** of loop ``k`` — legal iff no dependence is carried at
  ``k`` (a carried ``<`` would flip to ``>``);
* **interchange / arbitrary permutation** — legal iff every vector,
  with its components permuted, is still lexicographically
  non-negative.

Vectors here are *oriented* (source executes before sink, so the first
non-``=`` component is ``<`` or ``*``); ``*`` components are expanded
conservatively.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.analyzer import DependenceAnalyzer
from repro.core.graph import build_graph
from repro.core.kinds import DependenceEdge
from repro.ir.program import Program
from repro.system.depsystem import Direction

__all__ = [
    "gather_dependences",
    "lexicographic_sign",
    "permutation_legal",
    "interchange_legal",
    "reversal_legal",
]


def gather_dependences(
    program: Program, analyzer: DependenceAnalyzer | None = None
) -> list[DependenceEdge]:
    """All oriented dependence edges of the program (input deps skipped)."""
    return build_graph(program, analyzer).edges


def _expand(vector: Sequence[str]) -> Iterable[tuple[str, ...]]:
    """Elementary vectors covered by a (possibly wildcarded) vector."""
    out: list[tuple[str, ...]] = [()]
    for component in vector:
        options = (
            Direction.ALL if component == Direction.ANY else (component,)
        )
        out = [prefix + (o,) for prefix in out for o in options]
    return out


def lexicographic_sign(vector: Sequence[str]) -> int:
    """+1 if the first non-= component is <, -1 if >, 0 if all =.

    Raises on ``*`` — callers expand wildcards first.
    """
    for component in vector:
        if component == Direction.EQ:
            continue
        if component == Direction.LT:
            return 1
        if component == Direction.GT:
            return -1
        raise ValueError("wildcard component; expand first")
    return 0


def permutation_legal(
    edges: Iterable[DependenceEdge], perm: Sequence[int]
) -> bool:
    """Is permuting the loops of a depth-``len(perm)`` nest legal?

    ``perm[new_level] = old_level``.  Legal iff no *realizable*
    dependence vector becomes lexicographically negative.  Edges whose
    vectors are shorter than the permutation's depth constrain only
    their own levels; deeper components are treated as ``=``.
    """
    depth = len(perm)
    if sorted(perm) != list(range(depth)):
        raise ValueError(f"{perm} is not a permutation of 0..{depth - 1}")
    for edge in edges:
        padded = tuple(edge.vector) + (Direction.EQ,) * (
            depth - len(edge.vector)
        )
        for elementary in _expand(padded[:depth]):
            if lexicographic_sign(elementary) < 0:
                # Not realizable source->sink; skip (comes from '*').
                continue
            permuted = tuple(elementary[perm[new]] for new in range(depth))
            if lexicographic_sign(permuted) < 0:
                return False
    return True


def interchange_legal(
    edges: Iterable[DependenceEdge], level: int, depth: int
) -> bool:
    """May loops ``level`` and ``level + 1`` of a depth-``depth`` nest swap?"""
    perm = list(range(depth))
    perm[level], perm[level + 1] = perm[level + 1], perm[level]
    return permutation_legal(edges, perm)


def reversal_legal(edges: Iterable[DependenceEdge], level: int) -> bool:
    """May loop ``level`` run its iterations in reverse order?

    Legal iff no dependence is carried at ``level``: reversing flips a
    carried ``<`` into an illegal ``>``.
    """
    for edge in edges:
        if level >= len(edge.vector):
            continue
        for elementary in _expand(edge.vector):
            if lexicographic_sign(elementary) < 0:
                continue
            prefix = elementary[:level]
            if all(c == Direction.EQ for c in prefix) and elementary[
                level
            ] != Direction.EQ:
                return False
    return True
