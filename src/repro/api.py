"""repro.api — the stable public facade.

One import surface for the whole analyzer.  Instead of juggling
:class:`~repro.core.result.DependenceResult`,
:class:`~repro.core.result.DirectionResult`, engine batch records and
deep imports from ``repro.core.*`` / ``repro.system.*``, callers build
an :class:`AnalysisConfig`, open an :class:`AnalysisSession`, and get
every per-query answer as one unified :class:`DependenceReport`::

    from repro.api import AnalysisConfig, AnalysisSession

    session = AnalysisSession(AnalysisConfig(symmetry=True))
    report = session.analyze(ref1, nest1, ref2, nest2)
    if report.dependent:
        print(report.decided_by, report.directions)

    program_report = session.analyze_program(program)   # batch engine
    for pair in program_report.pairs:                   # DependenceReports
        ...

The session owns the memoizer and the statistics registry, so repeated
queries share memo tables, ``session.registry`` accumulates the metrics
every harness table is derived from, and ``session.explain(...)``
captures one query's full decision trace (the ``repro explain`` CLI is
a thin wrapper over it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer
from repro.core.result import DependenceResult, DirectionResult
from repro.core.stats import AnalyzerStats
from repro.ir.arrays import ArrayRef
from repro.ir.loops import LoopNest
from repro.ir.program import AccessSite, Program
from repro.obs.metrics import MetricsRegistry
from repro.obs.render import format_trace
from repro.obs.sinks import CollectingSink, TraceSink
from repro.robust.budget import ResourceBudget

__all__ = [
    "AnalysisConfig",
    "AnalysisSession",
    "DependenceReport",
    "ProgramReport",
    "ExplainResult",
    "SourceReport",
    "analyze_source",
    "run_fuzz",
    "Client",
    "RetryPolicy",
    "CircuitBreaker",
    "TransportError",
    "CircuitOpenError",
]


def run_fuzz(*args: Any, **kwargs: Any):
    """Run a differential-fuzzing campaign (see :mod:`repro.fuzz`).

    Thin lazy forwarder to :func:`repro.fuzz.harness.run_fuzz` so
    facade users don't need a second import surface (and so importing
    ``repro.api`` never pulls in the fuzzing stack, which itself calls
    back into this module for the end-to-end source check).
    """
    from repro.fuzz.harness import run_fuzz as _run_fuzz

    return _run_fuzz(*args, **kwargs)


#: Serve-client symbols re-exported lazily: the resilience surface
#: (retry policy, breaker, typed transport errors) belongs to the
#: facade, but importing ``repro.api`` must not drag in the
#: socket/subprocess machinery for pure-analysis uses.
_CLIENT_EXPORTS = frozenset(
    {"Client", "RetryPolicy", "CircuitBreaker", "TransportError", "CircuitOpenError"}
)


def __getattr__(name: str):
    if name in _CLIENT_EXPORTS:
        from repro.serve import client as _client

        return getattr(_client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a session can be configured with.

    Attributes:
        memo: keep a memo table across the session's queries (the
            paper's section-5 scheme; on by default).
        improved: use the reduced-problem memo keying (improved scheme).
        symmetry: share one memo slot between reference-swapped twins.
        fm_budget: Fourier-Motzkin branch-and-bound node budget.
        eliminate_unused: drop loop variables no subscript mentions.
        want_witness: lift an integer witness for dependent answers.
        jobs: worker processes for :meth:`AnalysisSession.analyze_program`
            (None: CPU count).
        sink: trace sink receiving every query's decision events
            (None: tracing off, the zero-overhead default).
        budget: resource governor
            (:class:`~repro.robust.budget.ResourceBudget`) applied to
            every query; a blown budget degrades that query to a
            conservative flagged answer (None: ungoverned).
    """

    memo: bool = True
    improved: bool = True
    symmetry: bool = False
    fm_budget: int = 256
    eliminate_unused: bool = True
    want_witness: bool = True
    jobs: int | None = None
    sink: TraceSink | None = None
    budget: ResourceBudget | None = None


@dataclass
class DependenceReport:
    """The unified answer to one dependence query.

    Produced by every facade entry point — plain queries, direction
    queries and each pair of a whole-program batch — so callers handle
    one shape.  ``directions`` is None when direction vectors were not
    requested (a plain ``analyze``), an empty frozenset when the pair
    is independent.
    """

    ref1: str
    ref2: str
    dependent: bool
    decided_by: str
    exact: bool = True
    from_memo: bool = False
    distance: tuple[int | None, ...] | None = None
    witness: tuple[int, ...] | None = None
    directions: frozenset[tuple[str, ...]] | None = None
    n_common: int = 0
    deduped: bool = False
    tag: Any = None
    degraded_reason: str | None = None

    @property
    def degraded(self) -> bool:
        """True when a blown resource budget forced this conservative
        answer (see :mod:`repro.robust.budget` for the reason codes)."""
        return self.degraded_reason is not None

    @classmethod
    def from_results(
        cls,
        ref1: str,
        ref2: str,
        result: DependenceResult | None,
        directions: DirectionResult | None,
        deduped: bool = False,
        tag: Any = None,
    ) -> "DependenceReport":
        """Fuse the legacy result pair into one report."""
        if result is None:
            assert directions is not None
            return cls(
                ref1=ref1,
                ref2=ref2,
                dependent=bool(directions.vectors),
                decided_by="directions",
                exact=directions.exact,
                from_memo=directions.from_memo,
                directions=directions.vectors,
                n_common=directions.n_common,
                deduped=deduped,
                tag=tag,
                degraded_reason=directions.degraded_reason,
            )
        degraded_reason = result.degraded_reason
        if degraded_reason is None and directions is not None:
            degraded_reason = directions.degraded_reason
        return cls(
            ref1=ref1,
            ref2=ref2,
            dependent=result.dependent,
            decided_by=result.decided_by,
            exact=result.exact if directions is None else (
                result.exact and directions.exact
            ),
            from_memo=result.from_memo,
            distance=result.distance,
            witness=result.witness,
            directions=None if directions is None else directions.vectors,
            n_common=0 if directions is None else directions.n_common,
            deduped=deduped,
            tag=tag,
            degraded_reason=degraded_reason,
        )

    def elementary_directions(self) -> list[tuple[str, ...]]:
        """Wildcard-free vectors, sorted (empty when none were computed)."""
        if not self.directions:
            return []
        out: set[tuple[str, ...]] = set()
        for vector in self.directions:
            out.update(_expand_wildcards(vector))
        return sorted(out)


def _expand_wildcards(vector: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    from repro.system.depsystem import Direction

    if "*" not in vector:
        yield vector
        return
    idx = vector.index("*")
    for direction in Direction.ALL:
        replaced = vector[:idx] + (direction,) + vector[idx + 1 :]
        yield from _expand_wildcards(replaced)


@dataclass
class ProgramReport:
    """A whole program's dependence analysis, one report per pair."""

    pairs: list[DependenceReport]
    stats: AnalyzerStats
    summary: dict = field(default_factory=dict)

    def __iter__(self) -> Iterator[DependenceReport]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def dependent_pairs(self) -> list[DependenceReport]:
        return [pair for pair in self.pairs if pair.dependent]


@dataclass
class SourceReport:
    """Extraction plus whole-program analysis of one real-source file.

    ``extraction`` carries the nests, skip diagnostics and symbols the
    frontend produced (see :mod:`repro.frontends`); ``report`` is the
    ordinary :class:`ProgramReport` over the extracted program.
    """

    extraction: Any  # repro.frontends.ExtractResult
    report: ProgramReport

    def summary(self) -> dict:
        out = dict(self.extraction.summary())
        out.update(self.report.summary)
        return out


def analyze_source(
    text: str,
    lang: str | None = None,
    name: str = "<source>",
    config: AnalysisConfig | None = None,
    want_directions: bool = True,
) -> SourceReport:
    """Extract loop nests from real source text and analyze them.

    ``lang`` is ``"python"``, ``"c"`` or ``"loop"`` (None: mini-Fortran
    ``.loop``, the historical default).  Sugar over
    :func:`repro.frontends.extract_source` plus
    :meth:`AnalysisSession.analyze_program` on a fresh session; open a
    session yourself to share memo tables across files.
    """
    from repro.frontends import extract_source

    extraction = extract_source(text, lang=lang or "loop", name=name)
    session = AnalysisSession(config)
    report = session.analyze_program(
        extraction.program, want_directions=want_directions
    )
    return SourceReport(extraction=extraction, report=report)


@dataclass
class ExplainResult:
    """One query's answer together with its full decision trace."""

    report: DependenceReport
    events: list[Any]

    def render(self) -> str:
        return format_trace(self.events)


def _report(
    analyzer: DependenceAnalyzer,
    ref1: ArrayRef,
    nest1: LoopNest,
    ref2: ArrayRef,
    nest2: LoopNest,
    want_directions: bool,
) -> DependenceReport:
    """One query's :class:`DependenceReport` from ``analyzer``."""
    result = analyzer.analyze(ref1, nest1, ref2, nest2)
    directions = None
    if want_directions:
        if result.dependent:
            directions = analyzer.directions(ref1, nest1, ref2, nest2)
        else:
            # The documented contract (and the batch engine's
            # behavior): requested directions on an independent
            # pair are the empty set, not "not computed".
            directions = DirectionResult(
                vectors=frozenset(),
                n_common=nest1.common_prefix_depth(nest2),
            )
    return DependenceReport.from_results(str(ref1), str(ref2), result, directions)


class AnalysisSession:
    """A configured analyzer with persistent memo tables and metrics.

    The session wraps one :class:`DependenceAnalyzer` (so its memoizer
    and statistics accumulate across calls) and the batch engine (for
    whole programs, sharded over ``config.jobs`` workers with the memo
    and metrics folded back into the session).
    """

    def __init__(
        self,
        config: AnalysisConfig | None = None,
        memoizer: Memoizer | None = None,
    ):
        self.config = config if config is not None else AnalysisConfig()
        if memoizer is not None:
            self.memoizer: Memoizer | None = memoizer
        elif self.config.memo:
            self.memoizer = Memoizer(
                improved=self.config.improved, symmetry=self.config.symmetry
            )
        else:
            self.memoizer = None
        self.analyzer = self._new_analyzer(self.config.sink)
        # Lazily created by update(): the incremental re-analysis
        # engine, sharing this session's memo table.
        self._incremental = None

    def _new_analyzer(self, sink: TraceSink | None) -> DependenceAnalyzer:
        """An analyzer on the session's memo table and configuration."""
        return DependenceAnalyzer(
            memoizer=self.memoizer,
            fm_budget=self.config.fm_budget,
            eliminate_unused=self.config.eliminate_unused,
            want_witness=self.config.want_witness,
            sink=sink,
            budget=self.config.budget,
        )

    @property
    def stats(self) -> AnalyzerStats:
        return self.analyzer.stats

    @property
    def registry(self) -> MetricsRegistry:
        """The session's metrics registry (stats are a view over it)."""
        return self.analyzer.stats.registry

    # -- single queries ----------------------------------------------------

    def analyze(
        self,
        ref1: ArrayRef,
        nest1: LoopNest,
        ref2: ArrayRef,
        nest2: LoopNest,
        want_directions: bool = False,
    ) -> DependenceReport:
        """Is a dependence possible between the two references?"""
        return _report(
            self.analyzer, ref1, nest1, ref2, nest2, want_directions
        )

    def analyze_sites(
        self, site1: AccessSite, site2: AccessSite, want_directions: bool = False
    ) -> DependenceReport:
        return self.analyze(
            site1.ref, site1.nest, site2.ref, site2.nest, want_directions
        )

    def directions(
        self,
        ref1: ArrayRef,
        nest1: LoopNest,
        ref2: ArrayRef,
        nest2: LoopNest,
        **options: Any,
    ) -> DependenceReport:
        """The pair's direction vectors (options as in the analyzer)."""
        directions = self.analyzer.directions(ref1, nest1, ref2, nest2, **options)
        return DependenceReport.from_results(
            str(ref1), str(ref2), None, directions
        )

    # -- whole programs ----------------------------------------------------

    def analyze_program(
        self,
        program: Program,
        want_directions: bool = True,
        include_self_output: bool = False,
    ) -> ProgramReport:
        """Analyze every testable pair of a program via the batch engine.

        The sharded run warm-starts from the session's memo table and
        folds the merged table and worker metrics back into the
        session, so later queries (and ``session.registry``) see the
        batch's work.
        """
        from repro.core.engine import analyze_batch, queries_from_program

        report = analyze_batch(
            queries_from_program(
                program, include_self_output=include_self_output
            ),
            jobs=self.config.jobs,
            warm=self.memoizer,
            want_directions=want_directions,
            want_witness=self.config.want_witness,
            improved=self.config.improved,
            symmetry=self.config.symmetry,
            fm_budget=self.config.fm_budget,
            sink=self.config.sink,
            budget=self.config.budget,
        )
        self.stats.merge(report.stats)
        if self.memoizer is not None:
            self.memoizer.merge_from(report.memoizer)
        pairs = [
            DependenceReport.from_results(
                str(outcome.query.ref1),
                str(outcome.query.ref2),
                outcome.result,
                outcome.directions,
                deduped=outcome.deduped,
                tag=outcome.query.tag,
            )
            for outcome in report.outcomes
        ]
        return ProgramReport(
            pairs=pairs, stats=report.stats, summary=report.summary()
        )

    # -- incremental re-analysis -------------------------------------------

    def update(self, program: Program, verify: bool = False):
        """Incrementally (re-)analyze a program as it is edited.

        The first call runs a full analysis and retains the program's
        dependence graph plus a per-pair answer cache keyed on
        canonical fingerprints (:mod:`repro.ir.fingerprint`).  Every
        later call diffs statement fingerprints and re-queries *only*
        pairs an edit dirtied, through the batch engine with the
        session's warm memo table — the spliced graph is bit-identical
        to a cold full re-analysis (``verify=True`` asserts it).

        Returns an :class:`repro.core.incremental.UpdateReport`; the
        retained graph is ``session.graph``.
        """
        return self._incremental_session().update(program, verify=verify)

    def update_source(
        self,
        text: str,
        verify: bool = False,
        name: str = "<source>",
        lang: str = "loop",
    ):
        """:meth:`update` on source text in ``lang``; ``.loop`` text
        recompiles only the top-level statements that changed since
        the last text
        (:meth:`repro.core.incremental.IncrementalSession.update_source`).

        Raises :class:`~repro.lang.errors.LangError` on a bad edit and
        keeps the last program and graph.
        """
        return self._incremental_session().update_source(
            text, verify=verify, name=name, lang=lang
        )

    def _incremental_session(self):
        if self._incremental is None:
            from repro.core.incremental import IncrementalSession

            self._incremental = IncrementalSession(
                memoizer=self.memoizer,
                jobs=self.config.jobs or 1,
                improved=self.config.improved,
                symmetry=self.config.symmetry,
                fm_budget=self.config.fm_budget,
                budget=self.config.budget,
            )
        return self._incremental

    @property
    def graph(self):
        """The dependence graph retained by :meth:`update` (or None)."""
        if self._incremental is None:
            return None
        return self._incremental.graph

    # -- tracing -----------------------------------------------------------

    def explain(
        self,
        ref1: ArrayRef,
        nest1: LoopNest,
        ref2: ArrayRef,
        nest2: LoopNest,
        want_directions: bool = True,
    ) -> ExplainResult:
        """Answer one query and capture its full decision trace.

        The query runs on an analyzer of its own over the session's
        memo table, so queries that other threads run on the session
        meanwhile stay out of the trace; its statistics are folded into
        the session's.  The trace's query ids count from 0.  Works
        regardless of the session's configured sink: events are
        collected locally (and forwarded to the configured sink too,
        when one is active).
        """
        collector = CollectingSink()
        analyzer = self._new_analyzer(collector)
        report = _report(analyzer, ref1, nest1, ref2, nest2, want_directions)
        self.stats.merge(analyzer.stats)
        outer = self.analyzer.sink
        if outer.enabled:
            for event in collector.events:
                outer.emit(event)
        return ExplainResult(report=report, events=collector.events)

    def explain_sites(
        self, site1: AccessSite, site2: AccessSite, want_directions: bool = True
    ) -> ExplainResult:
        return self.explain(
            site1.ref, site1.nest, site2.ref, site2.nest, want_directions
        )
