"""unique-cascade: time to a verdict on problems the memo has not seen.

Fuzz cases from the coupled, triangular, symbolic and degenerate tiers,
each answered by ``AnalysisSession.analyze`` with direction vectors:
within a session the memo hit rate is only a few percent, so the
dependence tests and direction refinement do nearly all the work
(Fourier-Motzkin decides about half of the cases) while the frontend
and the serving layers do nothing.  One caller, closed loop; a round
is the whole case list in a fresh session.

The case pool is one fixed generation and the seed permutes it.  A
verdict's cost is heavy-tailed (the slowest 1% of cases take ~20% of
the time), so pools drawn per seed differ by ~8% in mean cost alone;
a fixed pool keeps that out of the run-to-run spread.
"""

from __future__ import annotations

import random
import traceback

from repro.api import AnalysisSession, DependenceReport
from repro.core.result import DirectionResult

from common import cascade_counters, now_ns, oracle_mismatch, rounds

UNIT = "verdicts"
TAIL = 99
ALIASES = {
    "verdict_p50_us": ("latency_p50_ms", 1e3),
    "verdict_p99_us": ("latency_tail_ms", 1e3),
    "verdicts_per_s": ("throughput_per_s", 1.0),
}
TIERS = ("coupled", "triangular", "symbolic", "degenerate")
POOL_SEED = 0
POOL = 2400
CHUNK = 50  # verdicts per speed probe (~20 ms of work to the probe's ~1.2 ms)


def make_inputs(seed: int, smoke: bool) -> list:
    from repro.fuzz.generator import generate_cases

    cases = generate_cases(POOL_SEED, 200 if smoke else POOL, tiers=TIERS)
    random.Random(seed).shuffle(cases)
    return cases


def dump_inputs(cases: list) -> list[dict]:
    return [case.to_dict() for case in cases]


def _analyze_traced(session: AnalysisSession, case, tracer) -> DependenceReport:
    """``session.analyze(..., want_directions=True)`` stage by stage."""
    analyzer = session.analyzer
    with tracer.span("analyzer.analyze"):
        result = analyzer.analyze(case.ref1, case.nest1, case.ref2, case.nest2)
    if result.dependent:
        with tracer.span("directions.directions"):
            directions = analyzer.directions(case.ref1, case.nest1, case.ref2, case.nest2)
    else:
        directions = DirectionResult(
            vectors=frozenset(), n_common=case.nest1.common_prefix_depth(case.nest2)
        )
    with tracer.span("api.report"):
        return DependenceReport.from_results(str(case.ref1), str(case.ref2), result, directions)


def run(cases: list, seconds: float, tracer, meter) -> dict:
    reports: list = [None] * len(cases)
    registries = []
    failed = ops = op_total = 0
    for round_index in rounds(seconds):
        session = AnalysisSession()
        registries.append(session.registry)
        for index, case in enumerate(cases):
            if index % CHUNK == 0:
                chunk = meter.probe()
            ops += 1
            t0 = now_ns()
            if tracer is not None:
                tracer.begin_op()
            try:
                report = (
                    session.analyze(
                        case.ref1, case.nest1, case.ref2, case.nest2, want_directions=True
                    )
                    if tracer is None
                    else _analyze_traced(session, case, tracer)
                )
            except Exception:
                traceback.print_exc()
                report = None
            t1 = now_ns()
            if tracer is not None:
                tracer.end_op(t0, t1)
            if report is None:
                failed += 1
                continue
            meter.op(chunk, t1 - t0)
            meter.busy(chunk, t1 - t0, 1)
            op_total += t1 - t0
            if round_index == 0:
                reports[index] = report
            first = reports[index]
            if first is None or report.degraded or (first.dependent, first.directions) != (
                report.dependent, report.directions
            ):
                failed += 1
    return {
        "inputs": len(cases),
        "units": len(cases),
        "ops": ops,
        "op_total_ns": op_total,
        "rounds": round_index + 1,
        "failed": failed,
        "setup_samples_s": [],
        "peak_rss_mb": None,
        "reports": reports,
        "registries": registries,
        "memo_entries": len(session.memoizer.no_bounds) + len(session.memoizer.with_bounds),
    }


def check(cases: list, result: dict) -> dict:
    """Every case is decided against the enumeration oracle; the
    symbolic tier one-sidedly (the oracle grounds one environment)."""
    from repro.oracle import oracle_direction_vectors

    mismatches = 0
    for case, report in zip(cases, result["reports"]):
        if report is None:  # raised in the first round: already a failure
            continue
        expected = oracle_direction_vectors(case.ref1, case.nest1, case.ref2, case.nest2, case.env)
        mismatches += oracle_mismatch(report, expected, one_sided=case.has_symbols)
    return {"checked": len(cases), "mismatches": mismatches}


def counters(cases: list, result: dict) -> dict:
    from repro.obs.metrics import MetricsRegistry

    merged = MetricsRegistry()
    for registry in result["registries"]:
        merged.merge(registry)
    out = cascade_counters(merged.to_dict(), result["ops"], result["op_total_ns"])
    out["memo.entries"] = result["memo_entries"]
    return out


def replica_inputs(cases: list, rng: random.Random):
    sample = rng.sample(cases, min(200, len(cases)))
    queries = [(c.ref1, c.nest1, c.ref2, c.nest2) for c in sample]
    return queries, [c.to_source() for c in sample[:40]]
