"""Batched whole-program dependence analysis: the sharded driver.

The paper's measurements end at single-query memoization: 5,679 queries
collapse to 332 actual tests because real programs repeat a handful of
subscript/bound patterns.  This module turns that observation into a
whole-program (and multi-program) execution strategy:

1. **Pre-screening** — unequal-constant subscript pairs are answered
   inline with no dependence system at all (Table 1's first column).
2. **Deduplication** — remaining pairs are grouped twice before any
   analysis: structurally (identical ``(ref, nest)`` tuples — exact
   textual repeats) and canonically (equal
   :meth:`~repro.system.depsystem.DependenceProblem.key_vector`
   serializations — alpha-renamed twins).  Each canonical problem is
   analyzed exactly once, so duplicated queries never even pay for
   a memo probe.
3. **Sharding** — unique problems are dealt across shards, each run
   in its own supervised child process
   (:func:`repro.robust.watchdog.run_supervised`); every worker runs
   its own :class:`~repro.core.analyzer.DependenceAnalyzer` with a
   private :class:`~repro.core.memo.Memoizer`.
4. **Map-reduce merging** — worker verdicts are fanned back out to the
   original query order, :class:`~repro.core.stats.AnalyzerStats` are
   summed, and the workers' memo tables are unioned with
   :func:`~repro.core.persist.merge_memoizers` so the merged table can
   be persisted and **warm-start** a later run (the paper's "store the
   hash table across compilations" idea, section 5's last paragraph).

Results are deterministic: the outcome list preserves input order and
each verdict is computed by exactly one analyzer on one canonical
problem, so the shard count never changes any answer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer
from repro.core.persist import load_memoizer_safe, merge_memoizers
from repro.core.result import DependenceResult, DirectionResult
from repro.core.stats import AnalyzerStats
from repro.robust.budget import (
    DEGRADED_BUDGET,
    REASON_QUARANTINE,
    ResourceBudget,
)
from repro.ir.arrays import ArrayRef
from repro.obs.events import ConstantScreen, QueryEnd, QueryStart
from repro.obs.sinks import CollectingSink, TraceSink, merge_event_streams
from repro.ir.loops import LoopNest
from repro.ir.program import Program, reference_pairs
from repro.system.depsystem import build_problem

__all__ = [
    "PairQuery",
    "PairOutcome",
    "BatchReport",
    "analyze_batch",
    "queries_from_program",
    "queries_from_suite",
]


@dataclass(frozen=True)
class PairQuery:
    """One dependence question posed to the batch engine."""

    ref1: ArrayRef
    nest1: LoopNest
    ref2: ArrayRef
    nest2: LoopNest
    tag: Any = field(default=None, compare=False)


@dataclass
class PairOutcome:
    """The engine's answer for one input query.

    ``deduped`` marks outcomes that shared another query's analysis
    (structural or canonical duplicate) rather than being the
    representative that was actually dispatched.
    """

    query: PairQuery
    result: DependenceResult
    directions: DirectionResult | None
    deduped: bool = False


@dataclass
class BatchReport:
    """Everything a batch run produced.

    ``stats`` merges the workers' analyzer counters (plus the inline
    constant screen); ``memoizer`` is the union of every worker's memo
    tables, ready for :func:`~repro.core.persist.save_memoizer`.
    """

    outcomes: list[PairOutcome]
    stats: AnalyzerStats
    memoizer: Memoizer
    jobs: int
    n_queries: int
    n_screened: int
    n_unique_pairs: int
    n_unique_problems: int
    quarantine: list = field(default_factory=list)

    @property
    def results(self) -> list[DependenceResult]:
        return [outcome.result for outcome in self.outcomes]

    def hit_rate_bounds(self) -> float:
        if self.stats.memo_queries_bounds == 0:
            return 0.0
        return self.stats.memo_hits_bounds / self.stats.memo_queries_bounds

    def hit_rate_no_bounds(self) -> float:
        if self.stats.memo_queries_no_bounds == 0:
            return 0.0
        return (
            self.stats.memo_hits_no_bounds
            / self.stats.memo_queries_no_bounds
        )

    @property
    def degraded_outcomes(self) -> list[PairOutcome]:
        """Outcomes answered conservatively by the robustness layer."""
        return [
            outcome
            for outcome in self.outcomes
            if outcome.result.degraded_reason is not None
            or (
                outcome.directions is not None
                and outcome.directions.degraded_reason is not None
            )
        ]

    def summary(self) -> dict:
        """Plain-data digest for CLIs and benchmark logs."""
        return {
            "queries": self.n_queries,
            "screened_constant": self.n_screened,
            "unique_pairs": self.n_unique_pairs,
            "unique_problems": self.n_unique_problems,
            "jobs": self.jobs,
            "tests_run": sum(self.stats.decided_by.values()),
            "memo_hit_rate_no_bounds": self.hit_rate_no_bounds(),
            "memo_hit_rate_bounds": self.hit_rate_bounds(),
            "memo_entries": len(self.memoizer.no_bounds)
            + len(self.memoizer.with_bounds),
            "quarantined": len(self.quarantine),
            "degraded_queries": len(self.degraded_outcomes),
        }


# -- gathering queries ---------------------------------------------------------


def queries_from_program(
    program: Program, include_self_output: bool = False
) -> list[PairQuery]:
    """Every testable reference pair of one program, tagged with sites."""
    return [
        PairQuery(
            ref1=site1.ref,
            nest1=site1.nest,
            ref2=site2.ref,
            nest2=site2.nest,
            tag=(site1, site2),
        )
        for site1, site2 in reference_pairs(
            program, include_self_output=include_self_output
        )
    ]


def queries_from_suite(suite) -> list[PairQuery]:
    """Flatten a :func:`repro.perfect.load_suite` corpus into one batch."""
    out: list[PairQuery] = []
    for program in suite:
        for query in program.queries:
            out.append(
                PairQuery(
                    ref1=query.ref1,
                    nest1=query.nest1,
                    ref2=query.ref2,
                    nest2=query.nest2,
                    tag=(program.name, query.bucket),
                )
            )
    return out


def _as_pair(query) -> PairQuery:
    if isinstance(query, PairQuery):
        return query
    return PairQuery(
        ref1=query.ref1,
        nest1=query.nest1,
        ref2=query.ref2,
        nest2=query.nest2,
        tag=getattr(query, "bucket", None),
    )


# -- the sharded worker --------------------------------------------------------


def _run_shard(payload):
    """Analyze one shard of unique problems (runs in a worker process).

    ``payload`` is ``(reps, warm, opts)`` where ``reps`` is a list of
    ``(rep_index, ref1, nest1, ref2, nest2)`` tuples and ``warm`` is
    the shard's own :class:`Memoizer` (or ``None``: start empty), which
    it extends in place; an optional fourth element maps rep indices to
    the problems stage 2 already built (attached only on the in-process
    path, where they are shared objects rather than pickled copies).
    Returns the per-representative answers plus this worker's stats,
    memoizer, and (when tracing) collected trace events for the reduce
    step.
    """
    reps, memoizer, opts = payload[:3]
    prebuilt = payload[3] if len(payload) > 3 else None
    if memoizer is None:
        memoizer = Memoizer(
            improved=opts["improved"], symmetry=opts["symmetry"]
        )
    shard_sink = CollectingSink() if opts.get("trace") else None
    analyzer = DependenceAnalyzer(
        memoizer=memoizer,
        fm_budget=opts["fm_budget"],
        want_witness=opts["want_witness"],
        sink=shard_sink,
        budget=opts.get("budget"),
    )
    if prebuilt is not None:
        # Seed the analyzer's problem cache with the systems stage 2
        # already constructed, so each representative skips a second
        # build_problem + key encoding round.
        for rep_index, ref1, nest1, ref2, nest2 in reps:
            problem = prebuilt.get(rep_index)
            if problem is not None:
                analyzer._problem_cache[(ref1, nest1, ref2, nest2)] = problem
    answers = []
    for rep_index, ref1, nest1, ref2, nest2 in reps:
        result = analyzer.analyze(ref1, nest1, ref2, nest2)
        directions = None
        if opts["want_directions"]:
            if result.dependent:
                directions = analyzer.directions(ref1, nest1, ref2, nest2)
            else:
                directions = DirectionResult(
                    vectors=frozenset(),
                    n_common=nest1.common_prefix_depth(nest2),
                )
        answers.append((rep_index, result, directions))
    events = shard_sink.events if shard_sink is not None else []
    return answers, analyzer.stats, memoizer, events


# -- supervised execution (watchdog / checkpoint) ------------------------------


def _split_payload(payload):
    """Break a shard payload into per-case payloads for poison isolation.

    Returns ``(rep_index, label, case_payload)`` triples where each
    ``case_payload`` is a valid single-case :func:`_run_shard` input.
    """
    reps, warm, opts = payload
    return [
        (case[0], f"{case[1]} vs {case[3]}", ([case], warm, opts))
        for case in reps
    ]


def _quarantine_fallback(case_payload):
    """Answer a poison case conservatively, in-process.

    A case that repeatedly killed or hung its workers is retried here
    under a strict resource budget (so a pathological system terminates
    degraded rather than hanging the driver).  If even that raises, the
    answer is hand-built: dependent, all-``'*'`` directions, flagged
    with the ``quarantine`` reason code.
    """
    reps, warm, opts = case_payload
    strict_opts = dict(opts, budget=ResourceBudget.strict(), trace=False)
    try:
        return _run_shard((reps, warm, strict_opts))
    except Exception:
        stats = AnalyzerStats()
        answers = []
        for rep_index, _ref1, nest1, _ref2, nest2 in reps:
            stats.registry.inc_family("robust.degraded", REASON_QUARANTINE)
            result = DependenceResult(
                dependent=True,
                decided_by=DEGRADED_BUDGET,
                exact=False,
                degraded_reason=REASON_QUARANTINE,
            )
            directions = None
            if opts["want_directions"]:
                n_common = nest1.common_prefix_depth(nest2)
                directions = DirectionResult(
                    vectors=frozenset({("*",) * n_common}),
                    n_common=n_common,
                    exact=False,
                    degraded_reason=REASON_QUARANTINE,
                )
            answers.append((rep_index, result, directions))
        memoizer = Memoizer(
            improved=opts["improved"], symmetry=opts["symmetry"]
        )
        return answers, stats, memoizer, []


# -- the driver ---------------------------------------------------------------


def analyze_batch(
    queries: Iterable,
    jobs: int | None = None,
    warm: Memoizer | str | Path | None = None,
    want_directions: bool = True,
    want_witness: bool = False,
    improved: bool = True,
    symmetry: bool = False,
    fm_budget: int = 256,
    sink: TraceSink | None = None,
    budget: ResourceBudget | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    shard_timeout: float | None = None,
    shard_retries: int = 1,
    share_warm: bool = False,
) -> BatchReport:
    """Analyze a whole batch of dependence queries, sharded over workers.

    ``queries`` may hold :class:`PairQuery` objects or anything with
    ``ref1/nest1/ref2/nest2`` attributes (e.g. the synthetic suite's
    :class:`~repro.perfect.patterns.Query`).  ``jobs`` defaults to the
    machine's CPU count.  ``warm`` pre-loads every worker's memoizer
    from a previous run's merged table (a
    :class:`~repro.core.memo.Memoizer` or a path saved by
    :func:`~repro.core.persist.save_memoizer`); its keying scheme must
    match ``improved``/``symmetry``.

    The batch runs in-process when ``jobs=1``, when it holds one shard,
    or on a one-CPU host (forked workers would only timeshare the core)
    — unless ``shard_timeout`` or ``checkpoint`` is set.  Otherwise
    every shard runs in its own supervised child process
    (:func:`repro.robust.watchdog.run_supervised`): a worker that dies
    or outlives ``shard_timeout`` gets a fresh process up to
    ``shard_retries`` times, a case that defeats every retry is
    quarantined (conservative in-process answer, reported in
    :attr:`BatchReport.quarantine`), and with ``checkpoint`` completed
    shards are saved atomically so ``resume=True`` replays them instead
    of recomputing — the resumed run's report is identical to an
    uninterrupted one.  ``checkpoint`` cannot be combined with a trace
    ``sink`` (event streams are not checkpointable).  Dedup applies on
    both paths, and the path never changes an answer.

    With a ``sink``, every worker collects its queries' trace events
    and the reduce step replays them into the sink in deterministic
    shard order with globally renumbered query ids — sharding never
    changes the trace (timings aside).

    ``budget`` bounds every worker's analyzer
    (:class:`~repro.robust.budget.ResourceBudget`); a blown budget
    degrades that query to a conservative flagged answer instead of
    running away.

    Every shard otherwise starts from its own :meth:`Memoizer.copy`
    of ``warm``, so the caller's table is never mutated.
    ``share_warm=True`` lets the in-process path use the caller's
    ``warm`` object directly instead: the shard extends it in place and
    :attr:`BatchReport.memoizer` *is* that object.  Answers are
    identical either way (memo entries are pure); the only observable
    difference is that the caller's table gains the batch's entries,
    probe counts and recency without a copy or a merge step — exactly
    what a long-lived incremental session or the serve daemon's shared
    cache wants.  Ignored on the multi-process path.
    """
    items = [_as_pair(query) for query in queries]
    n_queries = len(items)
    outcomes: list[PairOutcome | None] = [None] * n_queries
    screen_stats = AnalyzerStats()
    trace = sink is not None and sink.enabled
    screen_events: list = []
    screen_qid = 0

    if warm is not None and not isinstance(warm, Memoizer):
        # A broken warm-start file only costs warmth, never the run
        # (load_memoizer_safe warns and returns None on corruption).
        warm = load_memoizer_safe(warm)
    if warm is not None and (
        warm.improved != improved or warm.symmetry != symmetry
    ):
        raise ValueError(
            "warm-start memoizer uses a different keying scheme "
            f"(improved={warm.improved}, symmetry={warm.symmetry})"
        )

    # Stage 1: constant screen + structural dedup, one dict probe per
    # repeated query.  Unequal-constant subscripts are independent
    # with no system at all; identical (ref, nest) tuples collapse
    # before any problem is built.  The first occurrence of a pair
    # decides screen-vs-dedup; every repeat reuses that decision (and
    # the screened pair's shared immutable result objects) from the
    # same structural map.
    structural: dict[tuple, int | tuple] = {}
    unique_items: list[PairQuery] = []
    owners: list[list[int]] = []
    n_screened = 0
    for idx, item in enumerate(items):
        key = (item.ref1, item.nest1, item.ref2, item.nest2)
        entry = structural.get(key)
        if entry is None:
            constant = DependenceAnalyzer._constant_fast_path(
                item.ref1, item.ref2
            )
            if constant is not None and not constant.dependent:
                n_common = item.nest1.common_prefix_depth(item.nest2)
                directions = None
                if want_directions:
                    directions = DirectionResult(
                        vectors=frozenset(), n_common=n_common
                    )
                entry = (constant, directions, n_common)
                structural[key] = entry
            else:
                position = len(unique_items)
                structural[key] = position
                unique_items.append(item)
                owners.append([idx])
                continue
        elif type(entry) is int:
            owners[entry].append(idx)
            continue
        constant, directions, n_common = entry
        screen_stats.total_queries += 1
        screen_stats.constant_cases += 1
        if trace:
            screen_events.append(
                QueryStart(
                    op="analyze",
                    ref1=str(item.ref1),
                    ref2=str(item.ref2),
                    n_common=n_common,
                    query_id=screen_qid,
                )
            )
            screen_events.append(
                ConstantScreen(independent=True, query_id=screen_qid)
            )
            screen_events.append(
                QueryEnd(
                    dependent=False,
                    decided_by=constant.decided_by,
                    exact=True,
                    elapsed_ns=0,
                    query_id=screen_qid,
                )
            )
            screen_qid += 1
        outcomes[idx] = PairOutcome(
            query=item, result=constant, directions=directions
        )
        n_screened += 1

    # Stage 2: canonical dedup.  Problems serializing to the same full
    # key vector are the same integer system (alpha-renamed twins), so
    # one analysis answers them all.  The key is computed on the *full*
    # problem — reduced-key merging stays the memoizer's job because
    # direction lifting depends on each query's own loop structure.
    canonical: dict[tuple[int, ...], int] = {}
    reps: list[PairQuery] = []
    rep_problems: list = []
    rep_costs: list[int] = []
    rep_owners: list[list[int]] = []
    for position, item in enumerate(unique_items):
        problem = build_problem(item.ref1, item.nest1, item.ref2, item.nest2)
        key = problem.key_vector(with_bounds=True)
        rep_position = canonical.get(key)
        if rep_position is None:
            rep_position = len(reps)
            canonical[key] = rep_position
            reps.append(item)
            rep_problems.append(problem)
            # Cost proxy for shard balancing: direction refinement is
            # the dominant per-problem cost and grows with both the
            # system size and the number of common loops to refine.
            rep_costs.append(
                (len(problem.bounds.constraints) + 1)
                * (item.nest1.common_prefix_depth(item.nest2) + 1)
            )
            rep_owners.append([])
        rep_owners[rep_position].append(position)

    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, max(1, len(reps))))

    # One shard (jobs is capped at the problem count) or one CPU runs
    # in-process; a timeout needs a child it can kill, and a checkpoint
    # records per-shard results, so either one forces supervision.
    serial = (
        checkpoint is None
        and shard_timeout is None
        and (jobs == 1 or (os.cpu_count() or 1) < 2)
    )
    share = share_warm and serial
    opts = {
        "improved": improved,
        "symmetry": symmetry,
        "fm_budget": fm_budget,
        "want_witness": want_witness,
        "want_directions": want_directions,
        "trace": trace,
        "budget": budget,
    }

    # Stage 3: deterministic cost-balanced sharding and fan-out.
    # Greedy longest-processing-time assignment on the stage-2 cost
    # proxy: heaviest representative first, onto the least-loaded
    # shard (ties to the lowest shard index).  A pure function of the
    # input — replay order stays deterministic — and it keeps one
    # pathological shard from serializing the whole fan-out.
    shards: list[list[tuple]] = [[] for _ in range(jobs)]
    loads = [0] * jobs
    order = sorted(
        range(len(reps)), key=lambda i: (-rep_costs[i], i)
    )
    for rep_index in order:
        shard_index = min(range(jobs), key=lambda j: (loads[j], j))
        loads[shard_index] += rep_costs[rep_index]
        shards[shard_index].append(rep_index)
    payloads = []
    for shard in shards:
        if not shard:
            continue
        shard.sort()
        payloads.append(
            (
                [
                    (
                        rep_index,
                        reps[rep_index].ref1,
                        reps[rep_index].nest1,
                        reps[rep_index].ref2,
                        reps[rep_index].nest2,
                    )
                    for rep_index in shard
                ],
                # Each shard's own table: a plain copy (picklable, taken
                # under a shared table's lock), or the live one to share.
                warm if warm is None or share else warm.copy(),
                opts,
            )
        )
    quarantine: list = []
    watchdog_stats: list[AnalyzerStats] = []
    if serial:
        # Hand each shard the stage-2 problem objects (shared, not
        # pickled) so it skips rebuilding them.
        prebuilt = dict(enumerate(rep_problems))
        shard_outputs = [
            _run_shard(payload + (prebuilt,)) for payload in payloads
        ]
    else:
        if checkpoint is not None and trace:
            raise ValueError(
                "checkpointing cannot be combined with a trace sink "
                "(event streams are not checkpointable)"
            )
        # Imported here so the in-process path never touches the
        # robust machinery (and so repro.robust stays import-light).
        from repro.robust.checkpoint import BatchCheckpoint, fingerprint_batch
        from repro.robust.watchdog import run_supervised

        ckpt = None
        done = None
        if checkpoint is not None:
            fingerprint = fingerprint_batch(
                list(canonical.keys()),
                {k: v for k, v in opts.items() if k != "trace"},
            )
            ckpt = BatchCheckpoint(checkpoint, fingerprint)
            done = ckpt.load(resume)
        wd_stats = AnalyzerStats()
        watchdog_stats.append(wd_stats)
        groups, quarantine = run_supervised(
            payloads,
            _run_shard,
            timeout=shard_timeout,
            attempts=1 + max(0, shard_retries),
            split=_split_payload,
            fallback=_quarantine_fallback,
            registry=wd_stats.registry,
            done=done,
            on_result=ckpt.record if ckpt is not None else None,
            max_workers=jobs,
        )
        shard_outputs = [output for group in groups for output in group]

    # Stage 4: reduce.  Merge stats and memo tables; fan each
    # representative's answer back out to every query it stands for.
    merged_stats = AnalyzerStats.merged(
        [screen_stats]
        + watchdog_stats
        + [stats for _, stats, _, _ in shard_outputs]
    )
    worker_memos = [memo for _, _, memo, _ in shard_outputs]
    if worker_memos and all(memo is worker_memos[0] for memo in worker_memos):
        # One table already holds every entry: a lone shard's own
        # table, or the caller's that share_warm shards extended.
        merged_memo = worker_memos[0]
    elif worker_memos:
        merged_memo = merge_memoizers(worker_memos)
    elif warm is not None:
        merged_memo = warm
    else:
        merged_memo = Memoizer(improved=improved, symmetry=symmetry)

    if trace:
        # Shard assignment is a deterministic function of the input
        # (greedy on stage-2 costs) and both paths return outputs in
        # payload order, so this replay order is a pure function of the
        # input.
        streams = [screen_events]
        streams.extend(events for _, _, _, events in shard_outputs)
        for event in merge_event_streams(streams):
            sink.emit(event)

    rep_answers: dict[int, tuple[DependenceResult, DirectionResult | None]] = {}
    for answers, _, _, _ in shard_outputs:
        for rep_index, result, directions in answers:
            rep_answers[rep_index] = (result, directions)
    for rep_index, positions in enumerate(rep_owners):
        result, directions = rep_answers[rep_index]
        first = True
        for position in positions:
            for idx in owners[position]:
                outcomes[idx] = PairOutcome(
                    query=items[idx],
                    result=result,
                    directions=directions,
                    deduped=not first,
                )
                first = False

    assert all(outcome is not None for outcome in outcomes)
    return BatchReport(
        outcomes=outcomes,  # type: ignore[arg-type]
        stats=merged_stats,
        memoizer=merged_memo,
        jobs=jobs,
        n_queries=n_queries,
        n_screened=n_screened,
        n_unique_pairs=len(unique_items),
        n_unique_problems=len(reps),
        quarantine=quarantine,
    )
