"""Resource budgets: typed limits that degrade, never hang.

Dependence testing is NP-complete in general; the paper's bet is that
real queries are cheap.  This module is the insurance policy for the
queries that are not: a :class:`ResourceBudget` bounds every dimension
along which the cascade can blow up —

* **wall clock** (``deadline_s``) — the whole query, including
  direction refinement;
* **Fourier-Motzkin branch nodes** (``fm_branch_nodes``) — the
  branch-and-bound tree (the only limit the pre-robustness analyzer
  had, as a hard-coded constructor argument);
* **live constraints** (``max_live_constraints``) — FM elimination can
  square the constraint count per eliminated variable;
* **coefficient bit length** (``max_coeff_bits``) — cross-multiplied
  combinations grow coefficients multiplicatively; exact bignum
  arithmetic never overflows but can get arbitrarily slow;
* **elimination depth** (``max_elim_depth``) — branch-and-bound
  recursion depth.

A blown budget raises :class:`BudgetExceeded` carrying a
machine-readable reason code; the analyzer catches it at the query
boundary and answers with the *conservative* flagged verdict
("dependent, any direction") instead of hanging or dying — the same
safe-approximation discipline the serving layer applies to blown
response deadlines.  Checks are explicit calls at the hot loops' heads
(a :class:`BudgetScope` per query), so an analyzer with no budget pays
a single ``None`` test per potential check site.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = [
    "BudgetExceeded",
    "ResourceBudget",
    "BudgetScope",
    "REASON_WALL_CLOCK",
    "REASON_FM_BRANCH_NODES",
    "REASON_LIVE_CONSTRAINTS",
    "REASON_COEFF_BITS",
    "REASON_ELIM_DEPTH",
    "REASON_QUARANTINE",
    "REASON_DEADLINE",
    "DEGRADED_BUDGET",
    "ALL_REASONS",
    "NULL_SCOPE",
]

# Machine-readable reason codes, shared by the analyzer's degradation
# path, the batch watchdog's quarantine and serve's response deadline
# (all surface as ``robust.degraded.<reason>`` metric labels).
REASON_WALL_CLOCK = "wall_clock"
REASON_FM_BRANCH_NODES = "fm_branch_nodes"
REASON_LIVE_CONSTRAINTS = "live_constraints"
REASON_COEFF_BITS = "coeff_bits"
REASON_ELIM_DEPTH = "elim_depth"
REASON_QUARANTINE = "quarantine"  # the batch watchdog isolated the case
REASON_DEADLINE = "deadline"  # serve's response deadline fired

ALL_REASONS = frozenset(
    {
        REASON_WALL_CLOCK,
        REASON_FM_BRANCH_NODES,
        REASON_LIVE_CONSTRAINTS,
        REASON_COEFF_BITS,
        REASON_ELIM_DEPTH,
        REASON_QUARANTINE,
        REASON_DEADLINE,
    }
)

# Pseudo test name for budget-degraded verdicts (like DECIDED_CONSTANT
# for the constant screen): ``decided_by`` of a conservative answer.
DEGRADED_BUDGET = "budget"


class BudgetExceeded(Exception):
    """A resource budget was blown; ``reason`` names which one."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class ResourceBudget:
    """Immutable per-query resource limits (``None`` = unlimited).

    Plain ints/floats only, so a budget pickles across the batch
    engine's worker-process boundary unchanged.
    """

    deadline_s: float | None = None
    fm_branch_nodes: int | None = None
    max_live_constraints: int | None = None
    max_coeff_bits: int | None = None
    max_elim_depth: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "deadline_s",
            "fm_branch_nodes",
            "max_live_constraints",
            "max_coeff_bits",
            "max_elim_depth",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline_s is None
            and self.fm_branch_nodes is None
            and self.max_live_constraints is None
            and self.max_coeff_bits is None
            and self.max_elim_depth is None
        )

    def open(self) -> "BudgetScope":
        """Start the clock: one scope governs one query."""
        return BudgetScope(self)

    @classmethod
    def strict(cls, deadline_s: float = 1.0) -> "ResourceBudget":
        """The quarantine budget: tight enough that nothing lingers."""
        return cls(
            deadline_s=deadline_s,
            fm_branch_nodes=32,
            max_live_constraints=512,
            max_coeff_bits=256,
            max_elim_depth=8,
        )


class BudgetScope:
    """Mutable per-query state: the running clock and FM node counter.

    Check methods raise :class:`BudgetExceeded`; every check is a no-op
    (single attribute test) for limits the budget leaves unset.
    """

    __slots__ = ("budget", "_deadline_ns", "_fm_nodes_left")

    def __init__(self, budget: ResourceBudget):
        self.budget = budget
        self._deadline_ns = (
            time.monotonic_ns() + int(budget.deadline_s * 1e9)
            if budget.deadline_s is not None
            else None
        )
        self._fm_nodes_left = budget.fm_branch_nodes

    # -- wall clock --------------------------------------------------------

    def tick(self) -> None:
        """Deadline check; call at the head of every potentially long loop."""
        if (
            self._deadline_ns is not None
            and time.monotonic_ns() > self._deadline_ns
        ):
            raise BudgetExceeded(
                REASON_WALL_CLOCK,
                f"query exceeded its {self.budget.deadline_s}s deadline",
            )

    # -- Fourier-Motzkin branch-and-bound ----------------------------------

    def charge_fm_node(self) -> None:
        if self._fm_nodes_left is None:
            return
        if self._fm_nodes_left <= 0:
            raise BudgetExceeded(
                REASON_FM_BRANCH_NODES,
                f"branch-and-bound exceeded {self.budget.fm_branch_nodes} nodes",
            )
        self._fm_nodes_left -= 1

    # -- structural growth -------------------------------------------------

    def check_constraints(self, count: int) -> None:
        limit = self.budget.max_live_constraints
        if limit is not None and count > limit:
            raise BudgetExceeded(
                REASON_LIVE_CONSTRAINTS,
                f"{count} live constraints exceed the limit of {limit}",
            )

    def check_coeff(self, value: int) -> None:
        limit = self.budget.max_coeff_bits
        if limit is not None and value.bit_length() > limit:
            raise BudgetExceeded(
                REASON_COEFF_BITS,
                f"coefficient of {value.bit_length()} bits exceeds "
                f"the {limit}-bit limit",
            )

    def check_depth(self, depth: int) -> None:
        limit = self.budget.max_elim_depth
        if limit is not None and depth > limit:
            raise BudgetExceeded(
                REASON_ELIM_DEPTH,
                f"elimination depth {depth} exceeds the limit of {limit}",
            )


#: The no-limits scope threaded through un-budgeted queries, so check
#: sites never need a ``scope is None`` test.  Shared and stateless:
#: every check on it short-circuits on an unset limit.
NULL_SCOPE = BudgetScope(ResourceBudget())
