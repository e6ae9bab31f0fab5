"""Shared interface of the cascaded dependence tests.

Each test consumes a :class:`~repro.system.constraints.ConstraintSystem`
over the free ``t`` variables produced by Extended GCD preprocessing
and returns a :class:`TestResult`.  A test either *decides* the system
(INDEPENDENT / DEPENDENT, exactly), reports itself NOT_APPLICABLE so
the cascade moves on, or — only Fourier-Motzkin with an exhausted
branch-and-bound budget — returns UNKNOWN.

All tests share the same input form (the paper lists this as a design
criterion for choosing the suite), so the cascade never converts data
between representations.  They also share one *calling* form: every
test is invoked as ``test.run(system, sink)`` and every result carries
the same provenance fields (``name``, ``exact``, ``elapsed_ns``), so
the analyzer's cascade is a plain loop with no per-test special cases.
A NOT_APPLICABLE result may still carry work forward: the Acyclic test
hands its partially-eliminated ``residual`` system and a ``completion``
callback (lifting a residual witness over the eliminated variables) to
whichever later test finishes the job.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.obs.sinks import NULL_SINK, TraceSink
from repro.robust.budget import NULL_SCOPE, BudgetScope
from repro.system.constraints import ConstraintSystem

__all__ = ["Verdict", "TestResult", "CascadeTest", "DependenceTest"]


class Verdict(enum.Enum):
    """Outcome of one dependence test on one constraint system."""

    INDEPENDENT = "independent"
    DEPENDENT = "dependent"
    NOT_APPLICABLE = "not_applicable"
    UNKNOWN = "unknown"

    @property
    def decided(self) -> bool:
        return self in (Verdict.INDEPENDENT, Verdict.DEPENDENT)


@dataclass
class TestResult:
    """What a test found.

    Attributes:
        verdict: the decision (or NOT_APPLICABLE / UNKNOWN).
        test_name: which test produced this result.
        witness: for DEPENDENT, an integer point (over the system's
            variables) satisfying every constraint — the existence proof.
        exact: False only for an UNKNOWN forced out of Fourier-Motzkin
            by the branch-and-bound budget; such answers are treated as
            dependent but flagged.
        elapsed_ns: wall time :meth:`CascadeTest.run` spent producing
            this result.
        residual: for a NOT_APPLICABLE that made partial progress (the
            Acyclic test hitting a cycle), the simplified system the
            next cascade stage should decide instead of the original.
        completion: paired with ``residual`` — lifts a witness for the
            residual system into one for the original system.
    """

    verdict: Verdict
    test_name: str
    witness: tuple[int, ...] | None = None
    exact: bool = True
    elapsed_ns: int = 0
    residual: ConstraintSystem | None = None
    completion: Callable[[tuple[int, ...] | None], tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if self.verdict is Verdict.DEPENDENT and self.witness is None:
            raise ValueError("DEPENDENT results must carry a witness")

    @property
    def name(self) -> str:
        """Uniform provenance alias for ``test_name``."""
        return self.test_name


class CascadeTest:
    """Base class giving every dependence test one uniform entry point.

    Subclasses implement ``_decide(system, sink)`` (returning
    NOT_APPLICABLE themselves when they cannot handle the system) and
    inherit ``run``, which times the attempt and stamps ``elapsed_ns``.
    """

    name = "cascade-test"

    def applicable(self, system: ConstraintSystem) -> bool:
        """Cheap structural check: can this test decide ``system`` exactly?"""
        raise NotImplementedError

    def _decide(
        self, system: ConstraintSystem, sink: TraceSink, scope: BudgetScope
    ) -> TestResult:
        raise NotImplementedError

    def run(
        self,
        system: ConstraintSystem,
        sink: TraceSink | None = None,
        scope: BudgetScope | None = None,
    ) -> TestResult:
        """Attempt the system; the result carries uniform provenance.

        ``scope`` is the query's resource-budget scope (see
        :mod:`repro.robust.budget`); a test whose work trips a limit
        raises :class:`~repro.robust.budget.BudgetExceeded` out of
        here, which the analyzer converts into a flagged conservative
        verdict at the query boundary.  None means unlimited.
        """
        start = time.perf_counter_ns()
        result = self._decide(
            system,
            sink if sink is not None else NULL_SINK,
            scope if scope is not None else NULL_SCOPE,
        )
        result.elapsed_ns = time.perf_counter_ns() - start
        return result


class DependenceTest(Protocol):
    """Protocol implemented by every test in the cascade."""

    name: str

    def applicable(self, system: ConstraintSystem) -> bool:
        """Cheap structural check: can this test decide ``system`` exactly?"""
        ...

    def run(
        self,
        system: ConstraintSystem,
        sink: TraceSink | None = None,
        scope: BudgetScope | None = None,
    ) -> TestResult:
        """Decide the system, or report NOT_APPLICABLE."""
        ...
