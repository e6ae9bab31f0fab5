"""Incremental whole-program re-analysis: the dependence-delta engine.

The paper's memo table makes a *repeated query* free; this module makes
a *repeated program* nearly free.  An :class:`IncrementalSession` keeps
the last analyzed :class:`~repro.ir.program.Program` alongside its
:class:`~repro.core.graph.DependenceGraph`, and across updates it keeps
three more things: a stable identity for every statement, each
statement's :class:`~repro.ir.program.AccessSite` objects, and for every
array one **row** per site — that site's edges with the later sites of
its array, in :func:`~repro.core.graph.build_graph` order, together
with each pair's edges keyed by the later site's identity.  The graph's
edge list is the rows concatenated, arrays in first-appearance order.
When the program is edited:

1. statement fingerprints of the old and new versions are diffed into
   **kept / dirty / removed** sets (:func:`~repro.ir.fingerprint.
   diff_fingerprints`); a kept statement keeps its identity, and its
   sites while its indices do not move;
2. a row is reused as is when neither its site nor any later site of
   its array changed; every other row is rebuilt from its pairs' kept
   edges, re-pointed at the new sites when an insert or delete shifted
   them (an index shift changes no kind, vector or orientation);
3. only pairs with no kept edges — a dirty endpoint, two statements an
   edit swapped, or an answer that was degraded — are re-queried
   through the batch engine of the session's
   :class:`~repro.api.AnalysisSession`, on its warm memo table, so even
   "new" statements that repeat a known subscript pattern cost one memo
   probe, and only they are classified
   (:func:`~repro.core.kinds.classify_pair`).

So an edit re-queries and classifies only its dirty pairs and builds
new edges only where it shifted sites; a row it rebuilt costs one
lookup per pair.  The graph is **bit-identical** to a cold full
re-analysis — the same edge list, the same ``to_dot`` text, the same
``edge_dicts`` serde.

:meth:`IncrementalSession.update_source` takes source text instead of
a program, and is where the front end is chosen.  For ``.loop`` text
its :class:`~repro.opt.spans.SpanCompiler` recompiles only the
top-level statements whose lines changed since the last text and
hands over the fingerprints of the statements it reused, so an edit
pays for the edit in the front end as well; Python and C text goes
through :func:`~repro.frontends.extract_or_raise`.

That identity is the module's contract, not an aspiration:
``update(..., verify=True)`` runs the full analysis from scratch and
raises :class:`IncrementalMismatchError` on any divergence (and
``update_source(..., verify=True)`` first checks the compile against
``compile_source``), and the CI ``incremental-smoke`` job enforces it
over a seeded edit storm.

Degraded verdicts (a blown :mod:`repro.robust.budget`) are answered
conservatively in the returned graph but **never retained**: they are
left out of their row's pairs and the row is rebuilt on the next
update, which re-queries them — a hedge must not outlive the resource
pressure that forced it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api import AnalysisSession
from repro.core.analyzer import DependenceAnalyzer
from repro.core.engine import PairQuery
from repro.core.graph import DependenceGraph, build_graph
from repro.core.kinds import DependenceEdge, classify_pair
from repro.core.memo import Memoizer
from repro.frontends import SkipRecord, extract_or_raise, lowering_skip_record
from repro.ir.fingerprint import (
    FingerprintDelta,
    ProgramFingerprint,
    diff_fingerprints,
    program_fingerprint,
    statement_fingerprint,
)
from repro.ir.program import AccessSite, Program, Statement
from repro.opt.pipeline import compile_source
from repro.opt.spans import SpanCompiler

__all__ = [
    "IncrementalSession",
    "UpdateReport",
    "IncrementalMismatchError",
    "full_graph",
]


class IncrementalMismatchError(AssertionError):
    """The delta path diverged from a full re-analysis (a bug)."""


def full_graph(program: Program) -> DependenceGraph:
    """A cold full re-analysis: fresh analyzer, fresh memo, all pairs.

    The reference the delta path is verified against (``verify=True``,
    the test suite, ``scripts/incremental_smoke.py``).  Deliberately
    ungoverned: the invariant is *delta ≡ full*, and a wall-clock
    budget could make "full" itself nondeterministic.
    """
    analyzer = DependenceAnalyzer(memoizer=Memoizer(), want_witness=False)
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
    # update_source only: top-level statements compiled and reused and
    # the span compile's skip messages (.loop text), and every skip of
    # any language as a record with its reason code.
    spans_compiled: int = 0
    spans_reused: int = 0
    skipped: list[str] = field(default_factory=list)
    skip_records: list[SkipRecord] = field(default_factory=list)

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


@dataclass(slots=True)
class _Row:
    """One site's edges with the later sites of its array.

    ``pairs`` maps each later site's identity to that pair's non-input
    edges, in :func:`~repro.core.graph.build_graph` order and exact
    answers only; ``edges`` is their concatenation.  A row that holds a
    degraded answer (in ``edges``, not in ``pairs``) is not ``exact``,
    so the next update rebuilds it.
    """

    site_id: int
    site: AccessSite
    pairs: dict[int, tuple[DependenceEdge, ...]]
    edges: list[DependenceEdge]
    exact: bool = True


def _flatten(pairs: dict[int, tuple[DependenceEdge, ...]]) -> list[DependenceEdge]:
    return [edge for edges in pairs.values() for edge in edges]


def _move(
    edges: tuple[DependenceEdge, ...], moved: dict[int, AccessSite]
) -> tuple[DependenceEdge, ...]:
    """A kept pair's edges on its sites' current objects; ``moved``
    maps ``id`` of each site an insert or delete shifted to its new one.

    A shift keeps each site's statement and the two sites' order, so
    :func:`classify_pair` would give the same kinds, vectors and
    orientations: only the endpoints move.
    """
    return tuple(
        DependenceEdge(
            moved.get(id(edge.source), edge.source),
            moved.get(id(edge.sink), edge.sink),
            edge.kind,
            edge.vector,
            edge.loop_carried,
        )
        for edge in edges
    )


def _splice(
    group: list[tuple[int, AccessSite, bool, bool]],
    previous: list[_Row],
    moved: dict[int, AccessSite],
    misses: list[tuple[AccessSite, AccessSite, int, _Row]],
    pending: list[_Row],
) -> list[_Row]:
    """One array's rows for its sites ``group`` (identity, site, whether
    it writes, whether an insert or delete shifted it) given its
    ``previous`` rows.

    Pairs with no kept edges are appended to ``misses`` as (site, later
    site, its identity, row), holding ``None`` in their row's pairs
    until they are answered, and their rows to ``pending``.
    """
    n, m = len(group), len(previous)
    # The last `same` sites are the previous sites as they were: their
    # rows are the previous rows as they were.
    same = 0
    while same < min(n, m) and group[-1 - same][1] is previous[-1 - same].site:
        same += 1
    rows: list[_Row] = []
    kept_pairs = None
    for position, (site_id, site, writes, site_shifted) in enumerate(group):
        tail = n - position
        if tail <= same and previous[m - tail].exact:
            rows.append(previous[m - tail])
            continue
        if kept_pairs is None:
            kept_pairs = {row.site_id: row.pairs for row in previous}
        cached = kept_pairs.get(site_id, {})
        row = _Row(site_id, site, {}, [])
        waiting = len(misses)
        for later_id, later, later_writes, later_shifted in group[position + 1 :]:
            if not (writes or later_writes):
                continue
            edges = cached.get(later_id)
            if edges is None:
                misses.append((site, later, later_id, row))
            elif edges and (site_shifted or later_shifted):
                edges = _move(edges, moved)
            row.pairs[later_id] = edges
        if len(misses) == waiting:
            row.edges = _flatten(row.pairs)
        else:
            pending.append(row)
        rows.append(row)
    return rows


class IncrementalSession:
    """Analyze a program once, then re-analyze its edits by delta.

    The first :meth:`update` is a full analysis that seeds the rows;
    every later call diffs fingerprints, re-queries only the pairs
    with no kept edges and rebuilds only the rows an edit touched.
    Re-queries run through ``session`` (a default
    :class:`~repro.api.AnalysisSession` when None): on its memoizer,
    sink and budget, with its ``jobs`` or in-process, and their
    statistics join its registry, so they warm-start from everything
    the session has ever computed.
    """

    def __init__(self, session: AnalysisSession | None = None):
        self.session = session if session is not None else AnalysisSession()
        self.program: Program | None = None
        self.graph: DependenceGraph | None = None
        self.fingerprint: ProgramFingerprint | None = None
        # The statements self.fingerprint was taken of, in order: held
        # so that an update can match the objects it is passed back.
        self._statements: tuple[Statement, ...] = ()
        self.spans = SpanCompiler()
        # Per statement of self.program: its identity (the identity of
        # its first site; site k is identity + k) and its sites.
        self._ids: list[int] = []
        self._sites: list[tuple[AccessSite, ...]] = []
        self._next_id = 0
        # Per array, in first-appearance order: one row per site.
        self._rows: dict[str, list[_Row]] = {}

    # -- the delta path ----------------------------------------------------

    def update(self, program: Program, verify: bool = False) -> UpdateReport:
        """Re-analyze ``program``, reusing everything an edit kept.

        Returns the new graph plus delta statistics.  With
        ``verify=True`` a cold full re-analysis runs afterwards and any
        divergence raises :class:`IncrementalMismatchError` (intended
        for tests and smoke jobs; it forfeits the speedup).  A statement
        that is the very object of the last program keeps its fingerprint;
        only new objects are hashed.
        """
        start = time.perf_counter()
        known: dict[int, str] = {}
        if self.fingerprint is not None:
            known = {
                id(stmt): fp
                for stmt, fp in zip(self._statements, self.fingerprint.statements)
            }
        fingerprints = tuple(
            known.get(id(stmt)) or statement_fingerprint(stmt)
            for stmt in program.statements
        )
        return self._update(
            program, program_fingerprint(program, fingerprints), start, verify
        )

    def update_source(
        self,
        text: str,
        verify: bool = False,
        name: str = "<source>",
        lang: str = "loop",
    ) -> UpdateReport:
        """:meth:`update` on source text in ``lang``.

        ``.loop`` text is ``compile_source(text, name, strict=False)``,
        recompiling only the top-level statements an edit changed;
        Python and C text is :func:`~repro.frontends.extract_or_raise`.
        A front-end error (:class:`~repro.lang.errors.LangError`) leaves
        the session as it was.  ``elapsed_s`` covers compile plus
        update; with ``verify=True`` a ``.loop`` compile is checked
        against ``compile_source`` before the graph is checked.
        """
        start = time.perf_counter()
        if lang != "loop":
            extraction = extract_or_raise(text, lang=lang, name=name)
            report = self._update(
                extraction.program,
                program_fingerprint(extraction.program),
                start,
                verify,
            )
            report.skip_records = extraction.skipped
            return report
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
        report.skip_records = [lowering_skip_record(m) for m in result.skipped]
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

        ids, sites, moved = self._carry(program, delta)
        shifted = {id(site) for site in moved.values()}
        by_array: dict[str, list[tuple[int, AccessSite, bool, bool]]] = {}
        for base, stmt_sites in zip(ids, sites):
            for ordinal, site in enumerate(stmt_sites):
                by_array.setdefault(site.ref.array, []).append(
                    (base + ordinal, site, site.ref.is_write, id(site) in shifted)
                )

        misses: list[tuple[AccessSite, AccessSite, int, _Row]] = []
        pending: list[_Row] = []
        rows: dict[str, list[_Row]] = {}
        for array, group in by_array.items():
            rows[array] = _splice(
                group, self._rows.get(array, []), moved, misses, pending
            )
        total_pairs = sum(
            len(row.pairs) for array_rows in rows.values() for row in array_rows
        )
        degraded_pairs = self._requery(misses, pending) if misses else 0
        graph = DependenceGraph(
            program,
            [
                edge
                for array_rows in rows.values()
                for row in array_rows
                for edge in row.edges
            ],
        )
        self.program = program
        self.graph = graph
        self.fingerprint = new_fp
        self._statements = tuple(program.statements)
        self._ids = ids
        self._sites = sites
        self._rows = rows

        report_out = UpdateReport(
            graph=graph,
            delta=delta,
            total_pairs=total_pairs,
            reused_pairs=total_pairs - len(misses),
            requeried_pairs=len(misses),
            degraded_pairs=degraded_pairs,
            elapsed_s=time.perf_counter() - start,
            statements=len(program.statements),
            edges=len(graph.edges),
        )
        if verify:
            self.verify()
            report_out.verified = True
        return report_out

    def _requery(
        self,
        misses: list[tuple[AccessSite, AccessSite, int, _Row]],
        pending: list[_Row],
    ) -> int:
        """Answer and classify the pairs with no kept edges and complete
        their ``pending`` rows; returns how many answers were degraded."""
        session = self.session
        report = session._batch(
            [
                PairQuery(
                    ref1=site.ref,
                    nest1=site.nest,
                    ref2=later.ref,
                    nest2=later.nest,
                    tag=index,
                )
                for index, (site, later, _, _) in enumerate(misses)
            ],
            want_directions=True,
            want_witness=False,
            jobs=session.config.jobs or 1,
        )
        degraded = []
        for outcome in report.outcomes:
            directions = outcome.directions
            assert directions is not None  # want_directions=True
            site, later, later_id, row = misses[outcome.query.tag]
            row.pairs[later_id] = tuple(
                edge
                for edge in classify_pair(site, later, directions=directions)
                if edge.kind != "input"
            )
            if (
                directions.degraded_reason is not None
                or outcome.result.degraded_reason is not None
            ):
                degraded.append((row, later_id))
        for row in pending:
            row.edges = _flatten(row.pairs)
        for row, later_id in degraded:
            # The invalidation rule: a degraded answer reaches this
            # graph but is not retained, and its row is rebuilt (and
            # the pair re-queried) on the next update.
            del row.pairs[later_id]
            row.exact = False
        return len(degraded)

    def _carry(
        self, program: Program, delta: FingerprintDelta
    ) -> tuple[list[int], list[tuple[AccessSite, ...]], dict[int, AccessSite]]:
        """Each statement's identity and sites, and the moved sites.

        A kept statement keeps its identity, and its site objects while
        its indices stay; when they moved, the third result maps ``id``
        of each previous site to its new one.  The other statements get
        fresh identities and sites.
        """
        old_of = {new: old for old, new in delta.kept}
        ids: list[int] = []
        sites: list[tuple[AccessSite, ...]] = []
        moved: dict[int, AccessSite] = {}
        offset = 0
        for index, stmt in enumerate(program.statements):
            old = old_of.get(index)
            if old is None:
                refs = stmt.refs()
                base = self._next_id
                self._next_id += len(refs)
                stmt_sites = tuple(
                    AccessSite(ref, stmt.nest, index, offset + ordinal)
                    for ordinal, ref in enumerate(refs)
                )
            else:
                base, stmt_sites = self._ids[old], self._sites[old]
                if stmt_sites and (
                    stmt_sites[0].stmt_index != index
                    or stmt_sites[0].site_index != offset
                ):
                    previous = stmt_sites
                    stmt_sites = tuple(
                        AccessSite(site.ref, site.nest, index, offset + ordinal)
                        for ordinal, site in enumerate(previous)
                    )
                    for site, now in zip(previous, stmt_sites):
                        moved[id(site)] = now
            ids.append(base)
            sites.append(stmt_sites)
            offset += len(stmt_sites)
        return ids, sites, moved

    # -- the invariant -----------------------------------------------------

    def verify(self) -> None:
        """Assert the retained graph ≡ a cold full re-analysis."""
        assert self.program is not None and self.graph is not None
        reference = full_graph(self.program)
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
