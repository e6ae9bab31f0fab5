"""suite-compile: source text to dependence graph, file by file.

The paper's compile-time scenario (Table 6): the 13 PERFECT-shaped
programs, rendered as mini-Fortran source, each compiled by
``extract_source`` and analyzed by ``AnalysisSession.analyze_program``
in a fresh session, the way a compiler handles one file at a time.
Most of the time goes to parsing, the prepass optimizer and lowering;
the engine then collapses thousands of pairs to a few hundred unique
problems, so the cascade runs only ~100 tests a pass.  One op is one
file; a round is one pass over the suite, and the seed only draws the
order of the files, afresh for every round: a file's time depends a
little on the files before it, and a run then averages over several
orders.  The suite is built at half the paper's repetition counts
(every unique pattern kept, 9,057 pairs) so that a 20-second run holds
five or more passes.
"""

from __future__ import annotations

import gc
import random
import traceback

from repro.api import AnalysisConfig, AnalysisSession, DependenceReport
from repro.core.engine import analyze_batch, queries_from_program
from repro.frontends import extract_source
from repro.lang import lower, parse
from repro.opt import optimize

from common import cascade_counters, now_ns, oracle_mismatch, rounds

UNIT = "pairs"
TAIL = 80  # 13 files a pass: p80 has 10 files beyond it from four passes on
ALIASES = {"compile_pairs_per_s": ("throughput_per_s", 1.0)}
SCALE = 0.5
MAX_ROUNDS = 32

# Iteration-space cap for the oracle check of a unique problem: the
# enumeration compares every pair of points, so cost grows with its square.
ORACLE_POINTS = 256


def make_inputs(seed: int, smoke: bool) -> dict:
    from repro.perfect import load_suite
    from repro.perfect.source_gen import queries_to_source

    suite = load_suite(include_symbolic=True, scale=0.02 if smoke else SCALE)
    programs = [
        {"name": p.name, "pairs": len(p.queries), "source": queries_to_source(list(p.queries))}
        for p in suite
    ]
    rng = random.Random(seed)
    orders = [rng.sample(range(len(programs)), len(programs)) for _ in range(MAX_ROUNDS)]
    queries = [(q.ref1, q.nest1, q.ref2, q.nest2) for p in suite for q in p.queries]
    return {"programs": programs, "orders": orders, "queries": queries}


def dump_inputs(inputs: dict) -> dict:
    return {"programs": inputs["programs"], "orders": inputs["orders"]}


def _compile(program: dict):
    extraction = extract_source(program["source"], lang="loop", name=program["name"])
    report = AnalysisSession(AnalysisConfig(jobs=1)).analyze_program(extraction.program)
    return report.pairs, report.stats, report.summary


def _compile_traced(program: dict, tracer):
    """The same work through ``extract_source``'s and ``analyze_program``'s
    public stages, one span each."""
    with tracer.span("lang.parse"):
        ast = parse(program["source"], name=program["name"])
    with tracer.span("opt.optimize"):
        ast = optimize(ast)
    with tracer.span("lang.lower"):
        lowered = lower(ast, strict=False).program
    with tracer.span("ir.reference_pairs"):
        queries = queries_from_program(lowered)
    with tracer.span("engine.analyze_batch"):
        batch = analyze_batch(queries, jobs=1, want_directions=True, want_witness=True)
    with tracer.span("api.report"):
        pairs = [
            DependenceReport.from_results(
                str(o.query.ref1), str(o.query.ref2), o.result, o.directions,
                deduped=o.deduped, tag=o.query.tag,
            )
            for o in batch.outcomes
        ]
    return pairs, batch.stats, batch.summary()


def _unique_problems(pairs, into: dict) -> None:
    """One representative report per canonical problem, for the oracle."""
    from repro.system.depsystem import build_problem

    for report in pairs:
        site1, site2 = report.tag
        key = build_problem(site1.ref, site1.nest, site2.ref, site2.nest).key_vector(True)
        into.setdefault(key, (site1.ref, site1.nest, site2.ref, site2.nest, report))


def run(inputs: dict, seconds: float, tracer, meter) -> dict:
    programs = inputs["programs"]
    answers: list = [None] * len(programs)
    unique: dict = {}
    registries, summaries = [], []
    failed = ops = op_total = 0
    orders = inputs["orders"]
    for round_index in rounds(seconds):
        for index in orders[round_index % len(orders)]:
            program = programs[index]
            # Each file starts from a collected heap, as in a compiler
            # process per file: otherwise the previous file's garbage
            # lands on this one, and which file follows which is the seed.
            gc.collect()
            chunk = meter.probe()
            ops += 1
            t0 = now_ns()
            if tracer is not None:
                tracer.begin_op()
            try:
                pairs, stats, summary = (
                    _compile(program) if tracer is None else _compile_traced(program, tracer)
                )
            except Exception:
                traceback.print_exc()
                pairs = None
            t1 = now_ns()
            if tracer is not None:
                tracer.end_op(t0, t1)
            if pairs is None:
                failed += 1
                continue
            meter.op(chunk, t1 - t0)
            meter.busy(chunk, t1 - t0, program["pairs"])
            op_total += t1 - t0
            registries.append(stats.registry)
            summaries.append(summary)
            digest = hash(tuple((p.dependent, p.decided_by, p.directions) for p in pairs))
            if round_index == 0:
                answers[index] = digest
                _unique_problems(pairs, unique)
            if (
                len(pairs) != program["pairs"]
                or any(p.degraded for p in pairs)
                or digest != answers[index]
            ):
                failed += 1
    return {
        "inputs": len(programs),
        "units": sum(p["pairs"] for p in programs),
        "ops": ops,
        "op_total_ns": op_total,
        "rounds": round_index + 1,
        "failed": failed,
        "setup_samples_s": [],
        "peak_rss_mb": None,
        "unique": unique,
        "registries": registries,
        "summaries": summaries,
    }


def _space_at_most(nest, limit: int) -> bool:
    for index, _ in enumerate(nest.iteration_space({})):
        if index >= limit:
            return False
    return True


def check(inputs: dict, result: dict) -> dict:
    """Each unique non-symbolic problem with a small iteration space is
    decided against the enumeration oracle.  Per-file pair counts and
    round-to-round identity are checked inside the timed loop."""
    from repro.oracle import oracle_direction_vectors

    checked = mismatches = 0
    for ref1, nest1, ref2, nest2, report in result["unique"].values():
        loop_vars = set(nest1.variables) | set(nest2.variables)
        free = nest1.symbols() | nest2.symbols() | ref1.variables() | ref2.variables()
        if free - loop_vars or not (
            _space_at_most(nest1, ORACLE_POINTS) and _space_at_most(nest2, ORACLE_POINTS)
        ):
            continue
        checked += 1
        expected = oracle_direction_vectors(ref1, nest1, ref2, nest2)
        mismatches += oracle_mismatch(report, expected, one_sided=False)
    return {
        "checked": checked,
        "mismatches": mismatches,
        "unique_problems": len(result["unique"]),
    }


def counters(inputs: dict, result: dict) -> dict:
    from repro.obs.metrics import MetricsRegistry

    merged = MetricsRegistry()
    for registry in result["registries"]:
        merged.merge(registry)
    summaries = result["summaries"]
    queries = sum(s["queries"] for s in summaries)
    out = cascade_counters(merged.to_dict(), result["ops"], result["op_total_ns"])
    out["engine.unique_problem_ratio"] = sum(s["unique_problems"] for s in summaries) / queries
    out["engine.screened_ratio"] = sum(s["screened_constant"] for s in summaries) / queries
    out["memo.entries"] = max(s["memo_entries"] for s in summaries)
    return out


def replica_inputs(inputs: dict, rng: random.Random):
    queries = inputs["queries"]
    smallest = sorted(inputs["programs"], key=lambda p: len(p["source"]))
    return rng.sample(queries, min(200, len(queries))), [p["source"] for p in smallest[:4]]
