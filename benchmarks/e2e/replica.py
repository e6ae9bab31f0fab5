"""Replica timings: single layers re-timed on a workload's own inputs.

A span can only time what the benchmark itself calls, so the layers
inside a warm serve request (decode, ``query_from_dict``,
``build_problem``, key intern, memo probe, ``report_to_wire``, encode)
and the frontend's parse rate are timed here, in-process and outside
the op, by calling the same public functions on a seeded sample of the
workload's queries and sources.  Every workload gets every replica, so
a change to one of these layers shows on all four.  Like every time
the benchmark reports, they are scaled to the reference speed.
"""

from __future__ import annotations

import statistics
import time

from repro.api import AnalysisConfig, AnalysisSession
from repro.core.memo import Memoizer, encode_key, intern_key
from repro.ir.serde import query_from_dict, query_to_dict
from repro.lang import lower, parse, tokenize
from repro.opt import optimize
from repro.serve import protocol
from repro.system.depsystem import build_problem

from common import REFERENCE_PROBE_NS, median_probe_ns

REPEAT = 3
PROBE_ROUNDS = 200


def _median_us(call, args_list) -> float:
    samples = []
    clock = time.perf_counter_ns
    for args in args_list:
        for _ in range(REPEAT):
            t0 = clock()
            call(*args)
            samples.append(clock() - t0)
    return statistics.median(samples) / 1e3


def _key(problem) -> bytes:
    return intern_key(encode_key(problem.key_vector(with_bounds=True)))


def _frontend(sources: list[str]) -> dict:
    tokens = sum(len(tokenize(text)) for text in sources)
    stages = {"parse": [], "optimize": [], "lower": []}
    for _ in range(REPEAT):
        for key in stages:
            stages[key].append(0)
        for text in sources:
            t0 = time.perf_counter_ns()
            ast = parse(text)
            t1 = time.perf_counter_ns()
            ast = optimize(ast)
            t2 = time.perf_counter_ns()
            lower(ast, strict=False)
            t3 = time.perf_counter_ns()
            stages["parse"][-1] += t1 - t0
            stages["optimize"][-1] += t2 - t1
            stages["lower"][-1] += t3 - t2
    parse_ns = statistics.median(stages["parse"])
    per_source = len(sources) * 1e6
    return {
        "lang.tokens_per_s": tokens / (parse_ns / 1e9),
        "replica.lang.parse_ms": parse_ns / per_source,
        "replica.opt.optimize_ms": statistics.median(stages["optimize"]) / per_source,
        "replica.lang.lower_ms": statistics.median(stages["lower"]) / per_source,
    }


def _request(session: AnalysisSession, line: bytes) -> bytes:
    """The daemon's warm slow path for one ``analyze`` line."""
    request = protocol.decode_request(line)
    ref1, nest1, ref2, nest2 = query_from_dict(request.params["query"])
    report = session.analyze(
        ref1, nest1, ref2, nest2, want_directions=request.params.get("directions", True)
    )
    return protocol.encode_response(
        protocol.ok_response(request.id, protocol.report_to_wire(report))
    )


def measure(queries: list[tuple], sources: list[str]) -> dict:
    """Every replica metric for one workload's sampled queries and sources,
    scaled to the reference speed by probes taken before and after."""
    probe = median_probe_ns(5)
    out = _measure(queries, sources)
    scale = REFERENCE_PROBE_NS / statistics.median([probe, median_probe_ns(5)])
    return {
        name: value / scale if name == "lang.tokens_per_s" else value * scale
        for name, value in out.items()
    }


def _measure(queries: list[tuple], sources: list[str]) -> dict:
    session = AnalysisSession(AnalysisConfig(want_witness=False, jobs=1))
    wires = [query_to_dict(*q) for q in queries]
    lines = [
        protocol.encode_request("analyze", {"query": wire, "directions": True}, index)
        for index, wire in enumerate(wires)
    ]
    for q in queries:  # warm the memo: the replicas time the warm path
        session.analyze(*q, want_directions=True)
    reports = [session.analyze(*q, want_directions=True) for q in queries]
    results = [protocol.report_to_wire(r) for r in reports]
    keys = [_key(build_problem(*q)) for q in queries]

    out = {
        "protocol.decode_request_us": _median_us(protocol.decode_request, [(x,) for x in lines]),
        "ir.query_from_dict_us": _median_us(query_from_dict, [(w,) for w in wires]),
        "system.build_problem_us": _median_us(build_problem, queries),
        "protocol.report_to_wire_us": _median_us(protocol.report_to_wire, [(r,) for r in reports]),
        "protocol.encode_response_us": _median_us(
            lambda i, r: protocol.encode_response(protocol.ok_response(i, r)),
            list(enumerate(results)),
        ),
        "replica.request_us": _median_us(_request, [(session, x) for x in lines]),
    }
    # Key intern on fresh problems: key_vector caches on its problem.
    samples = []
    for q in queries:
        for _ in range(REPEAT):
            problem = build_problem(*q)
            t0 = time.perf_counter_ns()
            _key(problem)
            samples.append(time.perf_counter_ns() - t0)
    out["memo.key_intern_us"] = statistics.median(samples) / 1e3

    table = Memoizer().with_bounds
    for key in keys:
        table.insert(key, True)
    rounds = []
    for _ in range(REPEAT):
        t0 = time.perf_counter_ns()
        for _ in range(PROBE_ROUNDS):
            for key in keys:
                table.lookup(key)
        rounds.append((time.perf_counter_ns() - t0) / (PROBE_ROUNDS * len(keys)))
    out["memo.probe_ns"] = statistics.median(rounds)
    out.update(_frontend(sources))
    return out
