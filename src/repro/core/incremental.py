"""Incremental whole-program re-analysis: the dependence-delta engine.

The paper's memo table makes a *repeated query* free; this module makes
a *repeated program* nearly free.  An :class:`IncrementalSession` keeps
the last analyzed :class:`~repro.ir.program.Program` alongside its
:class:`~repro.core.graph.DependenceGraph` and a cache of every pair's
direction-vector answer keyed by the pair's canonical content
(:func:`repro.ir.fingerprint.program_pair_keys`).  When the program is
edited:

1. statement fingerprints of the old and new versions are diffed into
   **kept / dirty / removed** sets (:func:`~repro.ir.fingerprint.
   diff_fingerprints`);
2. only pairs with at least one dirty endpoint miss the pair cache —
   every edge between two kept statements is reused verbatim, however
   the edit shifted statement indices;
3. the missing pairs are re-queried through the existing batch engine
   (:func:`~repro.core.engine.analyze_batch`) with the session's warm
   memo table, so even "new" statements that repeat a known subscript
   pattern cost one memo probe;
4. the results are spliced into a fresh graph built in exactly
   :func:`~repro.core.graph.build_graph`'s pair order, so the delta
   path is **bit-identical** to a cold full re-analysis — the same
   edge list, the same ``to_dot`` text, the same ``edge_dicts`` serde.

:meth:`IncrementalSession.update_source` takes ``.loop`` text instead
of a program.  Its :class:`~repro.opt.spans.SpanCompiler` recompiles
only the top-level statements whose lines changed since the last text
and hands over the fingerprints of the statements it reused, so an
edit pays for the edit in the front end as well.

That identity is the module's contract, not an aspiration:
``update(..., verify=True)`` runs the full analysis from scratch and
raises :class:`IncrementalMismatchError` on any divergence (and
``update_source(..., verify=True)`` first checks the compile against
``compile_source``), and the CI ``incremental-smoke`` job enforces it
over a seeded edit storm.

Degraded verdicts (a blown :mod:`repro.robust.budget`) are answered
conservatively in the returned graph but **never retained**: they are
excluded from the pair cache, so the next update re-queries them — a
hedge must not outlive the resource pressure that forced it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.analyzer import DependenceAnalyzer
from repro.core.engine import PairQuery, analyze_batch
from repro.core.graph import DependenceGraph, build_graph
from repro.core.kinds import classify_pair
from repro.core.memo import Memoizer
from repro.core.result import DirectionResult
from repro.ir.fingerprint import (
    FingerprintDelta,
    ProgramFingerprint,
    diff_fingerprints,
    program_fingerprint,
    program_pair_keys,
)
from repro.ir.program import Program, reference_pairs
from repro.opt.pipeline import compile_source
from repro.opt.spans import SpanCompiler
from repro.robust.budget import ResourceBudget

__all__ = [
    "IncrementalSession",
    "UpdateReport",
    "IncrementalMismatchError",
    "full_graph",
]


class IncrementalMismatchError(AssertionError):
    """The delta path diverged from a full re-analysis (a bug)."""


def full_graph(
    program: Program,
    improved: bool = True,
    symmetry: bool = False,
    fm_budget: int = 256,
) -> DependenceGraph:
    """A cold full re-analysis: fresh analyzer, fresh memo, all pairs.

    The reference the delta path is verified against (``verify=True``,
    the test suite, ``scripts/incremental_smoke.py``).  Deliberately
    ungoverned: the invariant is *delta ≡ full*, and a wall-clock
    budget could make "full" itself nondeterministic.
    """
    analyzer = DependenceAnalyzer(
        memoizer=Memoizer(improved=improved, symmetry=symmetry),
        fm_budget=fm_budget,
        want_witness=False,
    )
    return build_graph(program, analyzer)


@dataclass
class UpdateReport:
    """What one :meth:`IncrementalSession.update` call did."""

    graph: DependenceGraph
    delta: FingerprintDelta
    total_pairs: int
    reused_pairs: int
    requeried_pairs: int
    degraded_pairs: int = 0
    elapsed_s: float = 0.0
    verified: bool = False
    statements: int = 0
    edges: int = field(default=0)
    # update_source only: top-level statements compiled and reused, and
    # the compile's skip messages.
    spans_compiled: int = 0
    spans_reused: int = 0
    skipped: list[str] = field(default_factory=list)

    @property
    def requery_fraction(self) -> float:
        if self.total_pairs == 0:
            return 0.0
        return self.requeried_pairs / self.total_pairs

    def summary(self) -> dict:
        """Plain-data digest (the serve session ops' wire shape)."""
        return {
            "statements": self.statements,
            "kept": len(self.delta.kept),
            "dirty": list(self.delta.dirty),
            "removed": list(self.delta.removed),
            "pairs": self.total_pairs,
            "reused": self.reused_pairs,
            "requeried": self.requeried_pairs,
            "requery_fraction": round(self.requery_fraction, 6),
            "degraded_pairs": self.degraded_pairs,
            "edges": self.edges,
            "spans_compiled": self.spans_compiled,
            "spans_reused": self.spans_reused,
            "elapsed_ms": round(self.elapsed_s * 1000.0, 3),
        }


class IncrementalSession:
    """Analyze a program once, then re-analyze its edits by delta.

    The first :meth:`update` is a full analysis that seeds the pair
    cache; every later call diffs fingerprints and re-queries only the
    dirty pairs.  The session owns (or shares) a
    :class:`~repro.core.memo.Memoizer`, so re-queries warm-start from
    everything the session has ever computed.
    """

    def __init__(
        self,
        memoizer: Memoizer | None = None,
        jobs: int = 1,
        improved: bool = True,
        symmetry: bool = False,
        fm_budget: int = 256,
        budget: ResourceBudget | None = None,
    ):
        self.memoizer = (
            memoizer
            if memoizer is not None
            else Memoizer(improved=improved, symmetry=symmetry)
        )
        self.jobs = jobs
        self.improved = improved
        self.symmetry = symmetry
        self.fm_budget = fm_budget
        self.budget = budget
        self.program: Program | None = None
        self.graph: DependenceGraph | None = None
        self.fingerprint: ProgramFingerprint | None = None
        self.spans = SpanCompiler()
        self._pair_results: dict[str, DirectionResult] = {}

    # -- the delta path ----------------------------------------------------

    def update(self, program: Program, verify: bool = False) -> UpdateReport:
        """Re-analyze ``program``, reusing everything an edit kept.

        Returns the new graph plus delta statistics.  With
        ``verify=True`` a cold full re-analysis runs afterwards and any
        divergence raises :class:`IncrementalMismatchError` (intended
        for tests and smoke jobs; it forfeits the speedup).
        """
        start = time.perf_counter()
        return self._update(program, program_fingerprint(program), start, verify)

    def update_source(
        self, text: str, verify: bool = False, name: str = "<source>"
    ) -> UpdateReport:
        """:meth:`update` on ``compile_source(text, name, strict=False)``,
        recompiling only the top-level statements an edit changed.

        A front-end error is the full compile's own
        (:class:`~repro.lang.errors.LangError`) and leaves the session
        as it was.  ``elapsed_s`` covers compile plus update; with
        ``verify=True`` the compile is checked against
        ``compile_source`` before the graph is checked.
        """
        start = time.perf_counter()
        compiled = self.spans.compile(text, name)
        result = compiled.result
        if verify:
            full = compile_source(text, name=name, strict=False)
            if (result.program, result.symbols, result.skipped) != (
                full.program,
                full.symbols,
                full.skipped,
            ):
                raise IncrementalMismatchError(
                    "span compile diverged from compile_source"
                )
        report = self._update(
            result.program,
            program_fingerprint(result.program, compiled.fingerprints),
            start,
            verify,
        )
        report.spans_compiled = compiled.compiled
        report.spans_reused = compiled.reused
        report.skipped = result.skipped
        return report

    def _update(
        self,
        program: Program,
        new_fp: ProgramFingerprint,
        start: float,
        verify: bool,
    ) -> UpdateReport:
        if self.fingerprint is None:
            delta = FingerprintDelta(
                kept=(),
                dirty=tuple(range(len(new_fp.statements))),
                removed=(),
            )
        else:
            delta = diff_fingerprints(self.fingerprint, new_fp)

        pairs = reference_pairs(program)
        keys = program_pair_keys(program, new_fp, pairs)
        results: dict[int, DirectionResult] = {}
        to_query: list[int] = []
        for index, key in enumerate(keys):
            cached = self._pair_results.get(key)
            if cached is not None:
                results[index] = cached
            else:
                to_query.append(index)

        if to_query:
            report = analyze_batch(
                [
                    PairQuery(
                        ref1=pairs[index][0].ref,
                        nest1=pairs[index][0].nest,
                        ref2=pairs[index][1].ref,
                        nest2=pairs[index][1].nest,
                        tag=index,
                    )
                    for index in to_query
                ],
                jobs=self.jobs,
                warm=self.memoizer,
                want_directions=True,
                want_witness=False,
                improved=self.improved,
                symmetry=self.symmetry,
                fm_budget=self.fm_budget,
                budget=self.budget,
                share_warm=True,
            )
            if report.memoizer is not self.memoizer:
                # Multi-job path: fold the workers' new entries back in
                # (share_warm already did this in place when jobs=1).
                self.memoizer.merge_from(report.memoizer)
            for outcome in report.outcomes:
                directions = outcome.directions
                assert directions is not None  # want_directions=True
                if (
                    directions.degraded_reason is None
                    and outcome.result.degraded_reason is not None
                ):
                    # The verdict itself was degraded: poison the
                    # directions too so retention (below) skips them.
                    directions = DirectionResult(
                        vectors=directions.vectors,
                        n_common=directions.n_common,
                        exact=False,
                        degraded_reason=outcome.result.degraded_reason,
                    )
                results[outcome.query.tag] = directions

        # Splice: rebuild every edge in build_graph's exact pair order,
        # so reused and re-queried answers are indistinguishable.
        graph = DependenceGraph(program)
        degraded_pairs = 0
        retained: dict[str, DirectionResult] = {}
        for index, (site1, site2) in enumerate(pairs):
            directions = results[index]
            if directions.degraded_reason is not None:
                degraded_pairs += 1
            else:
                # The invalidation rule: the retained cache holds only
                # this program's pairs (stale entries for removed or
                # edited statements drop out) and only exact answers.
                retained[keys[index]] = directions
            for edge in classify_pair(site1, site2, directions=directions):
                if edge.kind != "input":
                    graph.edges.append(edge)

        self.program = program
        self.graph = graph
        self.fingerprint = new_fp
        self._pair_results = retained

        report_out = UpdateReport(
            graph=graph,
            delta=delta,
            total_pairs=len(pairs),
            reused_pairs=len(pairs) - len(to_query),
            requeried_pairs=len(to_query),
            degraded_pairs=degraded_pairs,
            elapsed_s=time.perf_counter() - start,
            statements=len(program.statements),
            edges=len(graph.edges),
        )
        if verify:
            self.verify()
            report_out.verified = True
        return report_out

    # -- the invariant -----------------------------------------------------

    def verify(self) -> None:
        """Assert the retained graph ≡ a cold full re-analysis."""
        assert self.program is not None and self.graph is not None
        reference = full_graph(
            self.program,
            improved=self.improved,
            symmetry=self.symmetry,
            fm_budget=self.fm_budget,
        )
        if (
            self.graph.edges != reference.edges
            or self.graph.to_dot() != reference.to_dot()
            or self.graph.edge_dicts() != reference.edge_dicts()
        ):
            raise IncrementalMismatchError(
                "delta graph diverged from full re-analysis: "
                f"{len(self.graph.edges)} delta edges vs "
                f"{len(reference.edges)} full edges"
            )
