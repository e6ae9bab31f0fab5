"""Extended GCD preprocessing: equalities -> free-variable system.

This implements section 3.1 of the paper.  The subscript equalities
``x @ A == c`` (one column of ``A`` per array dimension) are solved over
the integers via the unimodular/echelon factorization ``U @ A == D``:

* Solve ``t @ D == c`` by forward substitution.  Because ``D`` is
  echelon, each pivot column determines one component of ``t`` (which
  must be integral, else the references are **independent**), and
  non-pivot columns are consistency checks.
* The remaining components of ``t`` are *free*; the original variables
  are recovered as ``x = t @ U``, i.e. each ``x_j`` is an affine
  function of the free ``t``s.
* Every loop-bound inequality over ``x`` is rewritten as an inequality
  over the free ``t``s, producing the smaller, simpler system the rest
  of the cascade consumes.  Equality constraints are gone entirely —
  the Acyclic test requires this.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.linalg.echelon import echelon_factor
from repro.linalg.matrix import IntMatrix
from repro.system.constraints import ConstraintSystem, LinearConstraint
from repro.system.depsystem import DependenceProblem

__all__ = ["TransformedSystem", "GcdOutcome", "gcd_transform"]

# A sparse x-space row: ``(((var, coeff), ...), bound)`` meaning
# ``sum coeff * x[var] <= bound`` (see DependenceProblem.direction_rows).
SparseRow = tuple[tuple[tuple[int, int], ...], int]


class TransformedSystem:
    """The bound constraints re-expressed over the free ``t`` variables.

    ``x_offset`` and ``x_basis`` encode the general integer solution of
    the equalities:  ``x[j] = x_offset[j] + sum_f t[f] * x_basis[f][j]``.

    ``system`` is the t-space :class:`ConstraintSystem` the cascade runs
    on, built from the problem's bounds on first access and cached.
    Constructing the transform itself costs nothing — a memo hit that
    never reaches the cascade never transforms a single bound.  One row
    builder, :meth:`rows`, serves both the bounds and every direction
    refinement's extra rows.
    """

    __slots__ = ("t_names", "x_offset", "x_basis", "problem", "_system")

    def __init__(
        self,
        t_names: tuple[str, ...],
        x_offset: tuple[int, ...] = (),
        x_basis: tuple[tuple[int, ...], ...] = (),
        problem: DependenceProblem | None = None,
    ):
        self.t_names = t_names
        self.x_offset = x_offset
        self.x_basis = x_basis
        self.problem = problem
        self._system: ConstraintSystem | None = None

    @property
    def n_free(self) -> int:
        return len(self.t_names)

    @property
    def system(self) -> ConstraintSystem:
        """The transformed bounds (built on first access)."""
        if self._system is None:
            self._system = ConstraintSystem(
                self.t_names,
                self.rows(
                    (tuple((j, con.coeffs[j]) for j in con.variables()), con.bound)
                    for con in self.problem.bounds.constraints
                ),
            )
        return self._system

    def rows(self, x_rows: Iterable[SparseRow]) -> list[LinearConstraint]:
        """Rewrite sparse x-space rows as gcd-normalized t-space rows."""
        offset = self.x_offset
        basis = self.x_basis
        n_free = len(basis)
        out = []
        for entries, bound in x_rows:
            row = [0] * n_free
            const = 0
            for j, a in entries:
                const += a * offset[j]
                for f in range(n_free):
                    b = basis[f][j]
                    if b:
                        row[f] += a * b
            out.append(LinearConstraint.make(row, bound - const))
        return out

    def transform_expr(
        self, coeffs_x: Sequence[int], const: int
    ) -> tuple[list[int], int]:
        """Rewrite ``coeffs_x . x + const`` as ``coeffs_t . t + const'``."""
        entries = [(j, a) for j, a in enumerate(coeffs_x) if a]
        new_const = const + sum(a * self.x_offset[j] for j, a in entries)
        coeffs_t = [
            sum(a * basis_row[j] for j, a in entries)
            for basis_row in self.x_basis
        ]
        return coeffs_t, new_const

    def x_value(self, t: Sequence[int]) -> list[int]:
        """Evaluate the original variables at a free-variable point."""
        if len(t) != self.n_free:
            raise ValueError("wrong free-variable arity")
        return [
            off + sum(tv * row[j] for tv, row in zip(t, self.x_basis))
            for j, off in enumerate(self.x_offset)
        ]


@dataclass
class GcdOutcome:
    """Result of Extended GCD preprocessing.

    ``independent`` is True when the equalities alone have no integer
    solution — the references cannot conflict regardless of bounds.
    Otherwise ``transformed`` carries the reduced inequality system.
    """

    independent: bool
    transformed: TransformedSystem | None = None


def gcd_transform(problem: DependenceProblem) -> GcdOutcome:
    """Run the Extended GCD test and change of variables (section 3.1)."""
    n = problem.n_vars
    m = len(problem.equations)

    if m == 0:
        # No subscript equalities (e.g. scalar treated as rank-0): every
        # variable stays free and x == t.
        identity = IntMatrix.identity(n)
        return _build_transformed(
            problem,
            u=identity,
            determined=[],
            rank=0,
        )

    # A has one row per variable and one column per equation.
    a = IntMatrix(
        [[problem.equations[e][0][j] for e in range(m)] for j in range(n)]
    )
    rhs = [problem.equations[e][1] for e in range(m)]

    fact = echelon_factor(a)
    d, u, rank = fact.d, fact.u, fact.rank

    # Forward-substitute t @ D == rhs, column by column.
    determined: list[int] = []
    pivot_cols = list(fact.pivot_cols)
    for col in range(m):
        acc = sum(determined[k] * d[k, col] for k in range(len(determined)))
        if len(determined) < rank and pivot_cols[len(determined)] == col:
            pivot = d[len(determined), col]
            numer = rhs[col] - acc
            if numer % pivot != 0:
                return GcdOutcome(independent=True)
            determined.append(numer // pivot)
        else:
            if acc != rhs[col]:
                return GcdOutcome(independent=True)

    return _build_transformed(problem, u=u, determined=determined, rank=rank)


def _build_transformed(
    problem: DependenceProblem,
    u: IntMatrix,
    determined: list[int],
    rank: int,
) -> GcdOutcome:
    n = problem.n_vars
    # x = t @ U with t = (determined constants | free variables).
    x_offset = [
        sum(determined[k] * u[k, j] for k in range(rank)) for j in range(n)
    ]
    x_basis = [tuple(u.row(k)) for k in range(rank, n)]
    t_names = tuple(f"t{k + 1}" for k in range(len(x_basis)))

    # The t-space bound system is built lazily on access.
    transformed = TransformedSystem(
        t_names=t_names,
        x_offset=tuple(x_offset),
        x_basis=tuple(x_basis),
        problem=problem,
    )
    return GcdOutcome(independent=False, transformed=transformed)
