"""Counters reproducing the paper's per-test statistics.

Every table in the evaluation is a view over these counters: how many
cases each test decided (Table 1), how memoization collapses repeats
(Tables 2-3), how many test invocations direction vectors cost
(Tables 4-5, 7), and per-test independent/dependent outcome splits
(section 7's discussion numbers).

Since the observability layer landed, :class:`AnalyzerStats` is itself
a *view* over a :class:`repro.obs.metrics.MetricsRegistry`: every
attribute reads and writes a named registry entry, so the registry is
the single source of truth, ``merged()`` folds registries, and cascade
stage timings (histograms) ride along with the counters through the
batch engine's map-reduce shard merge.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.metrics import MetricsRegistry

__all__ = ["AnalyzerStats", "TEST_ORDER"]

# Canonical column order used by the tables.  Extra (future) test names
# still merge and still appear in *_counts(); the tables pick their
# columns at render time.
TEST_ORDER = ("svpc", "acyclic", "loop_residue", "fourier_motzkin")

# test name -> "time.cascade.<name>", built on demand: the cascade hot
# path attributes a timing per stage and must not pay an f-string each
# time.  Process-global; the handful of test names never grows.
_STAGE_TIMERS: dict[str, str] = {
    name: f"time.cascade.{name}" for name in TEST_ORDER
}


# attribute name -> registry name of every scalar counter, filled as
# the AnalyzerStats class body names its _Scalar attributes.
_SCALARS: dict[str, str] = {}


class _Scalar:
    """One scalar counter as an attribute over its registry entry.

    Reading is lock-free and assigning puts the value.  Increments go
    through :meth:`AnalyzerStats.inc` instead: ``+=`` on the attribute
    reads and writes in two steps, so threads sharing a registry would
    lose counts.
    """

    def __init__(self, name: str, doc: str):
        self.name = name
        self.__doc__ = doc

    def __set_name__(self, owner: type, attr: str) -> None:
        _SCALARS[attr] = self.name

    def __get__(self, stats: "AnalyzerStats | None", owner: type | None = None):
        if stats is None:
            return self
        return stats.registry.get(self.name)

    def __set__(self, stats: "AnalyzerStats", value: int) -> None:
        stats.registry.put(self.name, value)


def _family(name: str, doc: str) -> property:
    def fget(self: "AnalyzerStats") -> Counter:
        return self.registry.family(name)

    return property(fget, doc=doc)


class AnalyzerStats:
    """Mutable counters accumulated by one analyzer run.

    A thin view: all state lives in :attr:`registry`.  Counters read
    as attributes (``stats.total_queries``, ``stats.decided_by["svpc"]``)
    as in the pre-registry dataclass; increments go through
    :meth:`inc`, which is atomic when threads share the registry.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- plain dependence queries (Tables 1 and 3) -------------------------
    total_queries = _Scalar("queries.total", "Dependence queries received.")
    constant_cases = _Scalar("queries.constant", "Constant fast-path cases.")
    gcd_independent = _Scalar(
        "queries.gcd_independent", "Queries Extended GCD proved independent."
    )
    decided_by = _family("tests.decided_by", "Cascade test -> queries decided.")

    # -- memoization (Tables 2 and 3) ----------------------------------------
    memo_queries_no_bounds = _Scalar(
        "memo.no_bounds.queries", "No-bounds memo probes."
    )
    memo_hits_no_bounds = _Scalar("memo.no_bounds.hits", "No-bounds memo hits.")
    memo_queries_bounds = _Scalar(
        "memo.bounds.queries", "With-bounds memo probes."
    )
    memo_hits_bounds = _Scalar("memo.bounds.hits", "With-bounds memo hits.")

    # -- direction vectors (Tables 4, 5 and 7) ---------------------------------
    direction_tests = _family(
        "tests.direction", "Cascade test -> direction-refinement invocations."
    )
    direction_vectors_found = _Scalar(
        "directions.vectors_found", "Direction vectors reported."
    )

    # -- per-test outcomes (section 7 discussion) --------------------------------
    outcomes = _family(
        "tests.outcomes", '(test, "independent"/"dependent") -> count.'
    )

    def inc(self, counter: str, amount: int = 1) -> None:
        """Add ``amount`` to the scalar counter ``counter``, named as
        its attribute (``stats.inc("total_queries")``), in one locked
        read-modify-write of the registry."""
        self.registry.inc(_SCALARS[counter], amount)

    def record_decision(self, test_name: str, independent: bool) -> None:
        outcome = "independent" if independent else "dependent"
        self.registry.inc_family("tests.decided_by", test_name)
        self.registry.inc_family("tests.outcomes", (test_name, outcome))

    def record_direction_test(self, test_name: str, independent: bool) -> None:
        outcome = "independent" if independent else "dependent"
        self.registry.inc_family("tests.direction", test_name)
        self.registry.inc_family("tests.outcomes", (test_name, outcome))

    def observe_stage_ns(self, test_name: str, elapsed_ns: int) -> None:
        """Attribute one cascade stage's wall time to its test's timer."""
        name = _STAGE_TIMERS.get(test_name)
        if name is None:
            name = _STAGE_TIMERS[test_name] = f"time.cascade.{test_name}"
        self.registry.observe(name, elapsed_ns)

    @property
    def unique_cases_no_bounds(self) -> int:
        return self.memo_queries_no_bounds - self.memo_hits_no_bounds

    @property
    def unique_cases_bounds(self) -> int:
        return self.memo_queries_bounds - self.memo_hits_bounds

    @classmethod
    def merged(
        cls, runs: "list[AnalyzerStats] | tuple[AnalyzerStats, ...]"
    ) -> "AnalyzerStats":
        """Fold many runs' counters into a fresh total (map-reduce step).

        Every counter is a sum, so the fold is associative and
        order-independent — sharded runs merge to the same totals no
        matter how the work was split.  All keys of every family are
        kept, including test names outside ``TEST_ORDER``.
        """
        total = cls()
        for run in runs:
            total.merge(run)
        return total

    def merge(self, other: "AnalyzerStats") -> None:
        """Accumulate another run's registry into this one."""
        self.registry.merge(other.registry)

    def _ordered_counts(self, counter: Counter) -> dict[str, int]:
        counts = {name: counter.get(name, 0) for name in TEST_ORDER}
        for name in sorted(counter):
            if name not in counts:
                counts[name] = counter[name]
        return counts

    def test_counts(self) -> dict[str, int]:
        """Plain-query decision counts, table column order first.

        Keys beyond ``TEST_ORDER`` follow in sorted order — nothing is
        dropped; renderers select the columns they print.
        """
        return self._ordered_counts(self.decided_by)

    def direction_test_counts(self) -> dict[str, int]:
        return self._ordered_counts(self.direction_tests)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnalyzerStats):
            return NotImplemented
        return self.registry == other.registry

    def __repr__(self) -> str:
        snapshot = self.registry.counter_snapshot()
        return f"AnalyzerStats({snapshot['scalars']!r}, {snapshot['families']!r})"
