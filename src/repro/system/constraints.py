"""Canonical linear constraints over integer variables.

Every dependence test in the cascade consumes the same representation
(the paper stresses this: "They all expect their data in the same form:
A x <= b").  A :class:`LinearConstraint` is an inequality

    coeffs[0]*t0 + coeffs[1]*t1 + ... + coeffs[n-1]*t(n-1)  <=  bound

with integer coefficients over integer-valued variables.  Constraints
are gcd-normalized on construction: dividing through by the coefficient
gcd and *flooring* the bound is an exact tightening for integer
solutions (e.g. ``2t <= 5`` becomes ``t <= 2``).

Each constraint computes its *support* once, at construction: ``mask``
has bit ``i`` set iff ``coeffs[i] != 0``.  Every structure query — which
variables occur, how many, whether a row is trivial or a contradiction
— reads the mask instead of rescanning the coefficients, and so do the
tests' eliminations.  Rows hold Python ints, so no coefficient can
overflow however far elimination grows it.

A :class:`ConstraintSystem` is a named collection of constraints over a
shared variable space, with the bookkeeping the tests need: which
variables occur, per-constraint variable counts, substitution of a
variable by a constant, and single-variable interval extraction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import mul

from repro.linalg.gcdext import floor_div

__all__ = [
    "LinearConstraint",
    "ConstraintSystem",
    "Interval",
    "NEG_INF",
    "POS_INF",
    "mask_bits",
]

# Sentinels for unbounded interval ends.  Using None-free sentinels keeps
# comparisons simple: any int compares against these via the helpers below.
NEG_INF = float("-inf")
POS_INF = float("inf")


def mask_bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of a support mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True, slots=True)
class LinearConstraint:
    """An immutable, gcd-normalized inequality ``coeffs . t <= bound``.

    ``mask`` is derived from ``coeffs`` on construction; equality,
    hashing and the repr see only ``(coeffs, bound)``.
    """

    coeffs: tuple[int, ...]
    bound: int
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mask = 0
        bit = 1
        for c in self.coeffs:
            if c:
                mask |= bit
            bit <<= 1
        object.__setattr__(self, "mask", mask)

    @staticmethod
    def make(coeffs: Sequence[int], bound: int) -> "LinearConstraint":
        """Build a constraint, normalizing by the coefficient gcd."""
        coeffs = tuple(map(int, coeffs))
        bound = int(bound)
        g = math.gcd(*coeffs)
        if g > 1:
            coeffs = tuple(c // g for c in coeffs)
            bound = floor_div(bound, g)
        return LinearConstraint(coeffs, bound)

    # -- structure queries -------------------------------------------------

    def variables(self) -> tuple[int, ...]:
        """Indices of variables with non-zero coefficients."""
        return mask_bits(self.mask)

    @property
    def num_vars_used(self) -> int:
        return self.mask.bit_count()

    @property
    def is_trivial(self) -> bool:
        """All-zero coefficients and a satisfiable bound (``0 <= b, b >= 0``)."""
        return not self.mask and self.bound >= 0

    @property
    def is_contradiction(self) -> bool:
        """All-zero coefficients and an unsatisfiable bound (``0 <= b, b < 0``)."""
        return not self.mask and self.bound < 0

    # -- transformations -----------------------------------------------------

    def substitute(self, var: int, value: int) -> "LinearConstraint":
        """Pin ``t[var] = value``, folding its term into the bound."""
        if not self.mask >> var & 1:
            return self
        c = self.coeffs[var]
        coeffs = list(self.coeffs)
        coeffs[var] = 0
        return LinearConstraint.make(coeffs, self.bound - c * value)

    def evaluate(self, point: Sequence[int]) -> bool:
        """True iff ``point`` satisfies the constraint.

        ``point`` must give every variable a value: a point of another
        length raises ``ValueError`` rather than being truncated.
        """
        if len(point) != len(self.coeffs):
            raise ValueError(
                f"point has {len(point)} values, "
                f"constraint has {len(self.coeffs)} coefficients"
            )
        return sum(map(mul, self.coeffs, point)) <= self.bound

    def __str__(self) -> str:
        terms = [
            f"{'+' if c > 0 else '-'}{abs(c) if abs(c) != 1 else ''}t{i}"
            for i, c in enumerate(self.coeffs)
            if c != 0
        ]
        lhs = " ".join(terms) if terms else "0"
        return f"{lhs} <= {self.bound}"


@dataclass(slots=True)
class Interval:
    """A (possibly unbounded) integer interval ``[lo, hi]``."""

    lo: float = NEG_INF  # int or NEG_INF
    hi: float = POS_INF  # int or POS_INF

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def tighten_lo(self, value: int) -> None:
        if value > self.lo:
            self.lo = value

    def tighten_hi(self, value: int) -> None:
        if value < self.hi:
            self.hi = value

    def pick(self) -> int:
        """An arbitrary integer in the interval (prefers a finite end)."""
        if self.empty:
            raise ValueError("cannot pick from an empty interval")
        if self.lo != NEG_INF:
            return int(self.lo)
        if self.hi != POS_INF:
            return int(self.hi)
        return 0


@dataclass(slots=True)
class ConstraintSystem:
    """A set of constraints over named integer variables."""

    names: tuple[str, ...]
    constraints: list[LinearConstraint] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.names)

    def add(self, coeffs: Sequence[int], bound: int) -> None:
        if len(coeffs) != self.n_vars:
            raise ValueError(
                f"constraint has {len(coeffs)} coefficients, "
                f"system has {self.n_vars} variables"
            )
        self.constraints.append(LinearConstraint.make(coeffs, bound))

    def add_constraint(self, constraint: LinearConstraint) -> None:
        if len(constraint.coeffs) != self.n_vars:
            raise ValueError("constraint arity mismatch")
        self.constraints.append(constraint)

    def copy(self) -> "ConstraintSystem":
        return ConstraintSystem(self.names, list(self.constraints))

    # -- queries --------------------------------------------------------------

    def used_variables(self) -> set[int]:
        used = 0
        for c in self.constraints:
            used |= c.mask
        return set(mask_bits(used))

    def has_contradiction(self) -> bool:
        return any(c.is_contradiction for c in self.constraints)

    def evaluate(self, point: Sequence[int]) -> bool:
        """True iff ``point`` satisfies every constraint.

        ``point`` must give every variable a value: a point of another
        length raises ``ValueError``.  The length is checked once here,
        not once per row.
        """
        if len(point) != self.n_vars:
            raise ValueError(
                f"point has {len(point)} values, system has {self.n_vars} variables"
            )
        return all(
            sum(map(mul, c.coeffs, point)) <= c.bound for c in self.constraints
        )

    def single_variable_intervals(self) -> list[Interval]:
        """Per-variable intervals implied by the one-variable constraints.

        This is the bound-gathering half of the SVPC test (section 3.2);
        the Acyclic test reuses it to know each variable's extreme value.
        Multi-variable constraints are ignored here.
        """
        intervals = [Interval() for _ in range(self.n_vars)]
        for c in self.constraints:
            mask = c.mask
            if not mask or mask & (mask - 1):
                continue
            var = mask.bit_length() - 1
            a = c.coeffs[var]
            # After normalization |a| may still exceed 1 only if the bound
            # made make() keep it; handle the general a*t <= b exactly.
            if a > 0:
                intervals[var].tighten_hi(floor_div(c.bound, a))
            else:
                # a*t <= b with a < 0  ==>  t >= b/a = -b/|a|, i.e.
                # t >= ceil(-b/|a|) = -floor(b/|a|).
                intervals[var].tighten_lo(-floor_div(c.bound, -a))
        return intervals

    def without_trivial(self) -> "ConstraintSystem":
        """Drop constraints that are satisfied by every point."""
        return ConstraintSystem(
            self.names, [c for c in self.constraints if not c.is_trivial]
        )

    def __str__(self) -> str:
        header = ", ".join(self.names)
        body = "\n".join(f"  {c}" for c in self.constraints)
        return f"ConstraintSystem({header}):\n{body}"
