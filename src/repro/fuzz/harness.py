"""The differential harness: cascade vs oracle vs baselines, plus
metamorphic invariants.

For every generated case the harness checks:

1. **Oracle verdict** — the cascade's answer must match exhaustive
   enumeration of the iteration spaces.  Cases with symbolic terms are
   checked one-sidedly (the analyzer answers for *all* integer symbol
   values, the oracle grounds one environment): a cascade
   "independent" must have no witness at the oracle's environment, and
   every oracle direction vector must appear in the cascade's set.
2. **Oracle directions/distances** — elementary direction vectors must
   equal (non-symbolic) or contain (symbolic) the enumerated set, and
   any constant distance the Extended GCD solution claims must match
   every enumerated conflict.
3. **Baseline conservativeness** — the inexact tests (simple GCD,
   Banerjee bounds) may only err toward "maybe dependent"; claiming
   independence on a case the oracle (or the exact cascade) proves
   dependent is a bug on either side of the comparison.
4. **Memo ≡ recompute** — analyzing the same pair twice through a
   memoizer must return the first answer from the table, bit-equal;
   the symmetric-key scheme must serve the swapped pair from the same
   slot.
5. **Unused-variable elimination** preserves verdicts and vectors.
6. **Swap symmetry** — reversing the pair preserves the verdict and
   mirrors every direction vector.
7. **Source round-trip** — unparse → parse → optimize → analyze
   (through :class:`repro.api.AnalysisSession`) agrees with the direct
   in-memory analysis, fuzzing the whole frontend.
8. **Sharded ≡ serial** (run level) — the batch engine over the whole
   case list must produce identical verdicts and vectors at
   ``jobs=1`` and ``jobs>1``.

Every check failure becomes a :class:`Discrepancy`; :func:`run_fuzz`
counts them in a :class:`repro.obs.metrics.MetricsRegistry`
(``fuzz.cases``, ``fuzz.discrepancies``, per-tier ``time.fuzz.*``
timers) and optionally shrinks and persists them via
:mod:`repro.fuzz.shrink` / :mod:`repro.fuzz.corpus`.

Fault injection for tests: pass ``make_analyzer`` returning a
deliberately broken :class:`~repro.core.analyzer.DependenceAnalyzer`
and the harness reports exactly where it diverges (``jobs`` must stay
1 — factories do not cross process boundaries).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.baselines import banerjee_independent, simple_gcd_independent
from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer
from repro.fuzz.generator import TIERS, FuzzCase, generate_case
from repro.obs.metrics import MetricsRegistry
from repro.system.depsystem import Direction

__all__ = [
    "FuzzConfig",
    "Discrepancy",
    "CaseOutcome",
    "FuzzReport",
    "check_case",
    "run_fuzz",
    "replay_cases",
]

AnalyzerFactory = Callable[..., DependenceAnalyzer]


@dataclass(frozen=True)
class FuzzConfig:
    """Everything one fuzzing run is configured with."""

    seed: int = 0
    iterations: int = 1000
    tiers: tuple[str, ...] = TIERS
    time_budget: float | None = None
    jobs: int = 1
    shrink: bool = True
    corpus: str | None = None
    oracle_radius: int = 6
    e2e: bool = True
    cross_shard: bool = True
    cross_shard_jobs: int = 2
    max_shrink_evals: int = 400


@dataclass(frozen=True)
class Discrepancy:
    """One failed check: the case, which invariant broke, and how."""

    case: FuzzCase
    kind: str
    detail: str

    def describe(self) -> str:
        return (
            f"[{self.kind}] tier={self.case.tier} seed={self.case.seed} "
            f"index={self.case.index}: {self.detail}"
        )


@dataclass
class CaseOutcome:
    """Per-case result: the fresh verdict plus any discrepancies."""

    case: FuzzCase
    dependent: bool
    decided_by: str
    exact: bool
    discrepancies: list[Discrepancy] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.discrepancies


def _default_factory(**kwargs) -> DependenceAnalyzer:
    return DependenceAnalyzer(**kwargs)


# -- single-pass oracle scan ------------------------------------------------


def _oracle_scan(
    case: FuzzCase,
) -> tuple[bool, set[tuple[str, ...]], list[tuple[int, ...]]]:
    """One enumeration pass: verdict, direction vectors, distances.

    Equivalent to calling ``oracle_dependent`` +
    ``oracle_direction_vectors`` + ``oracle_distance_set`` but walks
    the iteration-space product once.
    """
    ref1, nest1 = case.ref1, case.nest1
    ref2, nest2 = case.ref2, case.nest2
    env = case.env
    n_common = nest1.common_prefix_depth(nest2)
    common_vars = nest1.variables[:n_common]
    vectors: set[tuple[str, ...]] = set()
    distances: set[tuple[int, ...]] = set()
    dependent = False
    if ref1.array != ref2.array or ref1.rank != ref2.rank:
        return False, vectors, []
    points2 = []
    for iter2 in nest2.iteration_space(dict(env)):
        env2 = {**env, **iter2}
        addr2 = tuple(s.evaluate(env2) for s in ref2.subscripts)
        points2.append((iter2, addr2))
    for iter1 in nest1.iteration_space(dict(env)):
        env1 = {**env, **iter1}
        addr1 = tuple(s.evaluate(env1) for s in ref1.subscripts)
        for iter2, addr2 in points2:
            if addr1 != addr2:
                continue
            dependent = True
            vector = []
            distance = []
            for var in common_vars:
                a, b = iter1[var], iter2[var]
                vector.append(
                    Direction.LT if a < b else Direction.EQ if a == b else Direction.GT
                )
                distance.append(b - a)
            vectors.add(tuple(vector))
            distances.add(tuple(distance))
    return dependent, vectors, sorted(distances)


# Guard rails for the problem-level box scan: skip blowups so one
# deep constant nest cannot stall the whole campaign.
_BOX_MAX_VARS = 6
_BOX_MAX_VOLUME = 20_000


def _box_witness(case: FuzzCase, radius: int) -> tuple[int, ...] | None:
    """An integer solution of the case's full dependence system, if the
    enumeration box is small enough to scan (None otherwise/none found)."""
    from repro.oracle.enumerate import enumeration_box, iterate_box

    problem = case.problem()
    if problem.n_vars > _BOX_MAX_VARS:
        return None
    box = enumeration_box(problem.bounds, radius)
    if box is None:
        return None
    volume = 1
    for lo, hi in box:
        volume *= hi - lo + 1
        if volume > _BOX_MAX_VOLUME:
            return None
    for point in iterate_box(problem.bounds, box):
        if all(
            sum(c * x for c, x in zip(coeffs, point)) == rhs
            for coeffs, rhs in problem.equations
        ):
            return point
    return None


def _flip_vector(vector: tuple[str, ...]) -> tuple[str, ...]:
    flip = {Direction.LT: Direction.GT, Direction.GT: Direction.LT}
    return tuple(flip.get(component, component) for component in vector)


# -- the per-case differential check ----------------------------------------


def check_case(
    case: FuzzCase,
    oracle_radius: int = 6,
    make_analyzer: AnalyzerFactory | None = None,
    e2e: bool = True,
) -> CaseOutcome:
    """Run every per-case check; collect (never raise on) discrepancies."""
    make = make_analyzer if make_analyzer is not None else _default_factory
    bad: list[Discrepancy] = []

    def fail(kind: str, detail: str) -> None:
        bad.append(Discrepancy(case=case, kind=kind, detail=detail))

    # 0. the reference answer: one fresh analyzer, no memo.
    fresh = make(memoizer=None)
    result = fresh.analyze(case.ref1, case.nest1, case.ref2, case.nest2)
    vectors: frozenset[tuple[str, ...]] = frozenset()
    dirs_exact = True
    if result.dependent:
        dirs = fresh.directions(case.ref1, case.nest1, case.ref2, case.nest2)
        vectors = dirs.elementary_vectors()
        dirs_exact = dirs.exact
    outcome = CaseOutcome(
        case=case,
        dependent=result.dependent,
        decided_by=result.decided_by,
        exact=result.exact and dirs_exact,
        discrepancies=bad,
    )

    # 1-2. against the enumeration oracle.
    oracle_dep, oracle_vectors, oracle_distances = _oracle_scan(case)
    if case.has_symbols:
        # One-sided: the analyzer quantifies over every integer symbol
        # value, the oracle grounds one environment.
        if not result.dependent and oracle_dep:
            fail(
                "verdict-vs-oracle",
                f"cascade independent ({result.decided_by}) but oracle finds a "
                f"conflict at env={case.env}",
            )
        if result.dependent and dirs_exact and not oracle_vectors <= vectors:
            fail(
                "directions-vs-oracle",
                f"oracle vectors {sorted(oracle_vectors - vectors)} missing from "
                f"cascade set {sorted(vectors)} at env={case.env}",
            )
    else:
        if result.exact and result.dependent != oracle_dep:
            fail(
                "verdict-vs-oracle",
                f"cascade says dependent={result.dependent} "
                f"({result.decided_by}), oracle says {oracle_dep}",
            )
        if result.dependent and result.exact and dirs_exact:
            if vectors != oracle_vectors:
                fail(
                    "directions-vs-oracle",
                    f"cascade {sorted(vectors)} != oracle {sorted(oracle_vectors)}",
                )
    if result.dependent and result.exact and result.distance and oracle_distances:
        for level, claimed in enumerate(result.distance):
            if claimed is None:
                continue
            observed = {distance[level] for distance in oracle_distances}
            if observed - {claimed}:
                fail(
                    "distance-vs-oracle",
                    f"level {level}: GCD claims constant distance {claimed}, "
                    f"oracle observes {sorted(observed)}",
                )

    # 2b. the constraint-system view, through the oracle's enumeration
    # box: an exact "independent" means the problem's equations+bounds
    # have no integer solution — for symbolic cases this quantifies
    # over every symbol value in the ±radius box, which is strictly
    # stronger than the single-environment nest scan above.
    if result.independent and result.exact:
        witness = _box_witness(case, oracle_radius)
        if witness is not None:
            fail(
                "verdict-vs-box",
                f"cascade independent ({result.decided_by}) but the problem "
                f"has the integer solution {witness} inside the enumeration "
                "box",
            )

    # 3. baselines may be conservative, never *less* conservative.
    exact_dependent = result.dependent and result.exact
    if simple_gcd_independent(case.ref1, case.nest1, case.ref2, case.nest2):
        if oracle_dep:
            fail(
                "baseline-simple-gcd",
                "simple GCD claims independent but the oracle finds a conflict",
            )
        elif exact_dependent and not case.has_symbols:
            fail(
                "baseline-simple-gcd",
                "simple GCD claims independent but the exact cascade proves "
                "dependence",
            )
    if banerjee_independent(case.ref1, case.nest1, case.ref2, case.nest2):
        if oracle_dep:
            fail(
                "baseline-banerjee",
                "Banerjee claims independent but the oracle finds a conflict",
            )
        elif exact_dependent and not case.has_symbols:
            fail(
                "baseline-banerjee",
                "Banerjee claims independent but the exact cascade proves "
                "dependence",
            )

    # 4. memo hit ≡ recompute (plain and symmetric-key schemes).
    memo_analyzer = make(memoizer=Memoizer(improved=True, symmetry=False))
    first = memo_analyzer.analyze(case.ref1, case.nest1, case.ref2, case.nest2)
    second = memo_analyzer.analyze(case.ref1, case.nest1, case.ref2, case.nest2)
    if (first.dependent, first.decided_by, first.distance) != (
        result.dependent,
        result.decided_by,
        result.distance,
    ):
        fail(
            "memo-first",
            f"memoized first answer ({first.dependent}, {first.decided_by}) "
            f"!= fresh ({result.dependent}, {result.decided_by})",
        )
    if second.dependent != first.dependent or second.distance != first.distance:
        fail(
            "memo-replay",
            f"memo replay changed the answer: {first.dependent} -> "
            f"{second.dependent}",
        )
    if first.decided_by != "constant" and not second.from_memo:
        fail(
            "memo-replay",
            f"identical repeat query was recomputed (decided_by="
            f"{second.decided_by}) instead of served from the table",
        )
    if result.dependent:
        mdirs1 = memo_analyzer.directions(
            case.ref1, case.nest1, case.ref2, case.nest2
        )
        mdirs2 = memo_analyzer.directions(
            case.ref1, case.nest1, case.ref2, case.nest2
        )
        if mdirs1.vectors != mdirs2.vectors:
            fail("memo-replay", "direction vectors changed on memo replay")
        if dirs_exact and mdirs1.elementary_vectors() != vectors:
            fail(
                "memo-first",
                "memoized direction vectors differ from the fresh analyzer's",
            )
    sym_analyzer = make(memoizer=Memoizer(improved=True, symmetry=True))
    forward = sym_analyzer.analyze(case.ref1, case.nest1, case.ref2, case.nest2)
    mirrored = sym_analyzer.analyze(case.ref2, case.nest2, case.ref1, case.nest1)
    if forward.dependent != mirrored.dependent:
        fail(
            "memo-symmetry",
            f"swapped twin verdict flipped under the symmetric-key memo: "
            f"{forward.dependent} vs {mirrored.dependent}",
        )
    if forward.decided_by != "constant" and not mirrored.from_memo:
        fail(
            "memo-symmetry",
            "swapped twin was recomputed instead of served from the shared slot",
        )

    # 5. unused-variable elimination preserves the answer.
    plain = make(memoizer=None, eliminate_unused=False)
    unpruned = plain.analyze(case.ref1, case.nest1, case.ref2, case.nest2)
    if unpruned.exact and result.exact and unpruned.dependent != result.dependent:
        fail(
            "unused-elimination",
            f"eliminate_unused changed the verdict: {result.dependent} "
            f"(on) vs {unpruned.dependent} (off)",
        )
    if result.dependent and unpruned.dependent and result.exact and dirs_exact:
        udirs = plain.directions(
            case.ref1, case.nest1, case.ref2, case.nest2, prune_unused=False
        )
        if udirs.exact and udirs.elementary_vectors() != vectors:
            fail(
                "unused-elimination",
                "pruned and unpruned direction sets differ: "
                f"{sorted(vectors)} vs {sorted(udirs.elementary_vectors())}",
            )

    # 6. swapping the references preserves (mirrors) the answer.
    swapper = make(memoizer=None)
    swapped = swapper.analyze(case.ref2, case.nest2, case.ref1, case.nest1)
    if swapped.exact and result.exact and swapped.dependent != result.dependent:
        fail(
            "swap",
            f"swapped pair verdict differs: {result.dependent} vs "
            f"{swapped.dependent}",
        )
    if result.dependent and swapped.dependent and result.exact and dirs_exact:
        sdirs = swapper.directions(case.ref2, case.nest2, case.ref1, case.nest1)
        if sdirs.exact:
            mirrored_vectors = frozenset(
                _flip_vector(vector) for vector in sdirs.elementary_vectors()
            )
            if mirrored_vectors != vectors:
                fail(
                    "swap",
                    "swapped direction vectors are not the mirror image: "
                    f"{sorted(vectors)} vs flipped {sorted(mirrored_vectors)}",
                )

    # 7. the full source path: unparse -> parse -> optimize -> analyze.
    if e2e and make_analyzer is None:
        compiled = _check_source_roundtrip(
            case, result.dependent, vectors, dirs_exact, fail
        )
        # 8. the Python frontend path: emit the compiled program as real
        # Python, re-extract it through repro.frontends, and demand the
        # bit-identical dependence graph.
        if compiled is not None:
            _check_python_roundtrip(compiled, fail)

    return outcome


def _check_source_roundtrip(
    case: FuzzCase,
    dependent: bool,
    vectors: frozenset[tuple[str, ...]],
    dirs_exact: bool,
    fail: Callable[[str, str], None],
):
    """Check the unparse->parse path; returns the compiled Program."""
    from repro.api import AnalysisSession
    from repro.ir.program import reference_pairs
    from repro.lang.errors import LangError
    from repro.opt import compile_source

    source = case.to_source()
    try:
        compiled = compile_source(source, name="<fuzz>", strict=False)
    except LangError as err:
        fail("e2e-source", f"unparsed case does not re-parse: {err}")
        return None
    wanted = {
        (case.ref1.array, case.ref1.subscripts),
        (case.ref2.array, case.ref2.subscripts),
    }
    for site1, site2 in reference_pairs(compiled.program):
        got = {
            (site1.ref.array, site1.ref.subscripts),
            (site2.ref.array, site2.ref.subscripts),
        }
        if got != wanted:
            continue
        session = AnalysisSession()
        report = session.analyze_sites(site1, site2, want_directions=True)
        oriented = (site1.ref.array, site1.ref.subscripts) == (
            case.ref1.array,
            case.ref1.subscripts,
        )
        if report.dependent != dependent:
            fail(
                "e2e-source",
                f"source-path verdict {report.dependent} != in-memory "
                f"{dependent}",
            )
        elif dependent and dirs_exact and report.exact:
            through = {
                vector
                for reported in report.directions or ()
                for vector in _expand(reported)
            }
            if not oriented:
                through = {_flip_vector(vector) for vector in through}
            if through != set(vectors):
                fail(
                    "e2e-source",
                    f"source-path vectors {sorted(through)} != in-memory "
                    f"{sorted(vectors)}",
                )
        return compiled.program
    fail(
        "e2e-source",
        "compiled program lost the fuzzed reference pair "
        f"(source:\n{source})",
    )
    return None


def _check_python_roundtrip(program, fail: Callable[[str, str], None]) -> None:
    """The emitted-Python path must reproduce the native graph exactly.

    ``program_to_python`` renders the compiled fuzz program as an
    ordinary Python function; re-extracting it through the Python
    frontend and rebuilding the dependence graph must give edge dicts
    bit-identical to the native program's — the frontend contract.
    """
    from repro.core.analyzer import DependenceAnalyzer
    from repro.core.graph import build_graph
    from repro.frontends import extract_source, program_to_python

    text = program_to_python(program)
    extraction = extract_source(text, lang="python", name="<fuzz>")
    if extraction.skipped:
        fail(
            "e2e-python",
            f"emitted Python lost statements: {extraction.skipped[0]} "
            f"(source:\n{text})",
        )
        return
    native = build_graph(program, DependenceAnalyzer()).edge_dicts()
    mirrored = build_graph(extraction.program, DependenceAnalyzer()).edge_dicts()
    if mirrored != native:
        fail(
            "e2e-python",
            f"Python round-trip graph differs: {len(mirrored)} vs "
            f"{len(native)} edges (source:\n{text})",
        )


def _expand(vector: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    if Direction.ANY not in vector:
        yield vector
        return
    idx = vector.index(Direction.ANY)
    for component in Direction.ALL:
        yield from _expand(vector[:idx] + (component,) + vector[idx + 1 :])


# -- the run driver ---------------------------------------------------------


@dataclass
class FuzzReport:
    """Everything one fuzzing run produced.

    ``registry`` carries the obs counters (``fuzz.cases``,
    ``fuzz.discrepancies``, ``fuzz.inexact``, per-tier/per-kind
    families) and the per-tier wall-time histograms
    (``time.fuzz.<tier>``).  ``stats_dict()`` is the deterministic
    subset: identical for identical ``(seed, iterations, tiers)``
    regardless of ``jobs`` or timing.
    """

    config: FuzzConfig
    outcomes: list[CaseOutcome]
    discrepancies: list[Discrepancy]
    shrunk: list[tuple[Discrepancy, FuzzCase]]
    registry: MetricsRegistry
    cross_shard_ok: bool | None
    elapsed_s: float

    @property
    def n_cases(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> bool:
        return not self.discrepancies and self.cross_shard_ok is not False

    def stats_dict(self) -> dict:
        """The run's deterministic statistics (no wall-clock content)."""
        return self.registry.counter_snapshot()

    def render(self) -> str:
        by_tier = self.registry.family("fuzz.cases_by_tier")
        verdicts = self.registry.family("fuzz.verdicts")
        lines = [
            f"fuzz: seed={self.config.seed} cases={self.n_cases} "
            f"tiers={','.join(self.config.tiers)}",
            "  cases by tier: "
            + " ".join(
                f"{tier}={by_tier[tier]}"
                for tier in self.config.tiers
                if by_tier[tier]
            ),
            f"  verdicts: dependent={verdicts['dependent']} "
            f"independent={verdicts['independent']} "
            f"(inexact={self.registry.get('fuzz.inexact')})",
        ]
        if self.cross_shard_ok is not None:
            state = "ok" if self.cross_shard_ok else "FAILED"
            lines.append(
                f"  cross-shard (serial == jobs={self.config.cross_shard_jobs}): "
                f"{state}"
            )
        lines.append(f"  discrepancies: {len(self.discrepancies)}")
        for discrepancy in self.discrepancies:
            lines.append(f"    {discrepancy.describe()}")
        for discrepancy, small in self.shrunk:
            lines.append(
                f"    shrunk [{discrepancy.kind}] to "
                f"{small.nest1.depth}+{small.nest2.depth} loops, "
                f"rank {small.ref1.rank}"
            )
        return "\n".join(lines)


def _check_shard(payload) -> tuple[list, dict]:
    """Worker: run per-case checks over one shard (no e2e factories)."""
    case_dicts, oracle_radius, e2e = payload
    registry = MetricsRegistry()
    rows = []
    for case_dict in case_dicts:
        case = FuzzCase.from_dict(case_dict)
        outcome = _timed_check(case, oracle_radius, None, e2e, registry)
        rows.append(
            (
                case.index,
                outcome.dependent,
                outcome.decided_by,
                outcome.exact,
                [(d.kind, d.detail) for d in outcome.discrepancies],
            )
        )
    return rows, registry.to_dict()


def _timed_check(
    case: FuzzCase,
    oracle_radius: int,
    make_analyzer: AnalyzerFactory | None,
    e2e: bool,
    registry: MetricsRegistry,
) -> CaseOutcome:
    with registry.timer(f"time.fuzz.{case.tier}"):
        outcome = check_case(
            case,
            oracle_radius=oracle_radius,
            make_analyzer=make_analyzer,
            e2e=e2e,
        )
    registry.inc("fuzz.cases")
    registry.family("fuzz.cases_by_tier")[case.tier] += 1
    registry.family("fuzz.verdicts")[
        "dependent" if outcome.dependent else "independent"
    ] += 1
    if not outcome.exact:
        registry.inc("fuzz.inexact")
    if outcome.discrepancies:
        registry.inc("fuzz.discrepancies", len(outcome.discrepancies))
        kinds = registry.family("fuzz.discrepancies_by_kind")
        for discrepancy in outcome.discrepancies:
            kinds[discrepancy.kind] += 1
    return outcome


def _cross_shard_check(
    cases: list[FuzzCase], jobs: int
) -> tuple[bool, list[Discrepancy]]:
    """Sharded engine ≡ serial over the whole case list."""
    from repro.core.engine import PairQuery, analyze_batch

    queries = [
        PairQuery(
            ref1=case.ref1,
            nest1=case.nest1,
            ref2=case.ref2,
            nest2=case.nest2,
            tag=case.index,
        )
        for case in cases
    ]
    serial = analyze_batch(queries, jobs=1, want_directions=True)
    sharded = analyze_batch(queries, jobs=jobs, want_directions=True)
    bad: list[Discrepancy] = []
    for case, left, right in zip(cases, serial.outcomes, sharded.outcomes):
        same = (
            left.result.dependent == right.result.dependent
            and left.result.decided_by == right.result.decided_by
            and (left.directions is None) == (right.directions is None)
            and (
                left.directions is None
                or left.directions.vectors == right.directions.vectors
            )
        )
        if not same:
            bad.append(
                Discrepancy(
                    case=case,
                    kind="cross-shard",
                    detail=(
                        f"serial ({left.result.dependent}, "
                        f"{left.result.decided_by}) != jobs={jobs} "
                        f"({right.result.dependent}, {right.result.decided_by})"
                    ),
                )
            )
    return not bad, bad


def run_fuzz(
    config: FuzzConfig | None = None,
    make_analyzer: AnalyzerFactory | None = None,
    cases: list[FuzzCase] | None = None,
) -> FuzzReport:
    """Run one differential-fuzzing campaign.

    ``cases`` overrides generation (corpus replay).  With ``jobs > 1``
    the per-case checks are sharded round-robin over supervised worker
    processes (:func:`repro.robust.watchdog.run_supervised`); a shard
    whose worker dies on every attempt raises the watchdog's error.
    Counters merge associatively in shard order, so every
    deterministic statistic is identical to the serial run.  The
    cross-shard engine check always runs in the parent (worker
    processes are daemonic and may not start their own children).
    """
    config = config if config is not None else FuzzConfig()
    if make_analyzer is not None and config.jobs > 1:
        raise ValueError("make_analyzer requires jobs=1 (not picklable)")
    start = time.perf_counter()
    deadline = (
        start + config.time_budget if config.time_budget is not None else None
    )
    registry = MetricsRegistry()
    outcomes: list[CaseOutcome] = []

    if cases is None:
        cases = []
        round_size = max(len(config.tiers), 50)
        index = 0
        while index < config.iterations:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            for _ in range(min(round_size, config.iterations - index)):
                cases.append(
                    generate_case(
                        config.seed,
                        index,
                        config.tiers[index % len(config.tiers)],
                    )
                )
                index += 1

    if config.jobs > 1 and len(cases) > 1:
        outcomes = _run_sharded(config, cases, registry)
    else:
        for case in cases:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            outcomes.append(
                _timed_check(
                    case, config.oracle_radius, make_analyzer, config.e2e, registry
                )
            )

    discrepancies = [
        discrepancy for outcome in outcomes for discrepancy in outcome.discrepancies
    ]

    cross_shard_ok: bool | None = None
    if config.cross_shard and make_analyzer is None and outcomes:
        checked = [outcome.case for outcome in outcomes]
        cross_shard_ok, shard_bad = _cross_shard_check(
            checked, config.cross_shard_jobs
        )
        if shard_bad:
            discrepancies.extend(shard_bad)
            registry.inc("fuzz.discrepancies", len(shard_bad))
            kinds = registry.family("fuzz.discrepancies_by_kind")
            for discrepancy in shard_bad:
                kinds[discrepancy.kind] += 1

    shrunk: list[tuple[Discrepancy, FuzzCase]] = []
    if config.shrink and discrepancies:
        shrunk = _shrink_discrepancies(config, discrepancies, make_analyzer)

    if config.corpus and shrunk:
        from repro.fuzz.corpus import save_case

        for discrepancy, small in shrunk:
            save_case(
                small,
                config.corpus,
                note=f"{discrepancy.kind}: {discrepancy.detail}",
            )

    return FuzzReport(
        config=config,
        outcomes=outcomes,
        discrepancies=discrepancies,
        shrunk=shrunk,
        registry=registry,
        cross_shard_ok=cross_shard_ok,
        elapsed_s=time.perf_counter() - start,
    )


def _run_sharded(
    config: FuzzConfig, cases: list[FuzzCase], registry: MetricsRegistry
) -> list[CaseOutcome]:
    from repro.robust.watchdog import run_supervised

    jobs = min(config.jobs, len(cases))
    shards: list[list[dict]] = [[] for _ in range(jobs)]
    for position, case in enumerate(cases):
        # Key worker rows by list position, not case.index — replayed
        # corpus cases may share index values.
        payload = case.to_dict()
        payload["index"] = position
        shards[position % jobs].append(payload)
    payloads = [
        (shard, config.oracle_radius, config.e2e) for shard in shards if shard
    ]
    groups, _ = run_supervised(payloads, _check_shard, max_workers=jobs)
    shard_outputs = [output for group in groups for output in group]
    row_by_position: dict[int, tuple] = {}
    for rows, registry_dict in shard_outputs:
        registry.merge(MetricsRegistry.from_dict(registry_dict))
        for row in rows:
            row_by_position[row[0]] = row
    outcomes = []
    for position, case in enumerate(cases):
        _, dependent, decided_by, exact, raw = row_by_position[position]
        outcomes.append(
            CaseOutcome(
                case=case,
                dependent=dependent,
                decided_by=decided_by,
                exact=exact,
                discrepancies=[
                    Discrepancy(case=case, kind=kind, detail=detail)
                    for kind, detail in raw
                ],
            )
        )
    return outcomes


def _shrink_discrepancies(
    config: FuzzConfig,
    discrepancies: list[Discrepancy],
    make_analyzer: AnalyzerFactory | None,
) -> list[tuple[Discrepancy, FuzzCase]]:
    from repro.fuzz.shrink import shrink_case

    shrunk: list[tuple[Discrepancy, FuzzCase]] = []
    seen: set[int] = set()
    for discrepancy in discrepancies:
        if discrepancy.kind == "cross-shard":
            continue  # run-level property, not a per-case predicate
        if id(discrepancy.case) in seen:
            continue
        seen.add(id(discrepancy.case))
        kind = discrepancy.kind

        def still_fails(candidate: FuzzCase) -> bool:
            outcome = check_case(
                candidate,
                oracle_radius=config.oracle_radius,
                make_analyzer=make_analyzer,
                e2e=config.e2e,
            )
            return any(d.kind == kind for d in outcome.discrepancies)

        small = shrink_case(
            discrepancy.case, still_fails, max_evals=config.max_shrink_evals
        )
        shrunk.append((discrepancy, small))
    return shrunk


def replay_cases(
    cases: list[FuzzCase], config: FuzzConfig | None = None
) -> FuzzReport:
    """Re-check a fixed case list (the corpus replay entry point)."""
    base = config if config is not None else FuzzConfig()
    return run_fuzz(config=base, cases=cases)
