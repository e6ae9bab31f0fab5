"""edit-session: an editor keeping a dependence graph live while typing.

The daemon gets ``open_session`` on a 100-statement storm program,
then a seeded stream of editor-sized mutations (bound tweaks,
subscript nudges, inserted and deleted statements) as
``update_source`` over one connection, closed loop.  It is the only
workload that exercises ``repro.core.incremental`` (fingerprint diff,
re-query of dirty pairs, splice) and memo inserts under serve's
stateful path, and it re-parses the whole file on every edit.

The program is one fixed generation and the seed draws the edits.  A
quarter of the edits are each kind, and inserts alternate with
deletes, so the file keeps its size: the cost of an edit does not
drift with the seed or with how far a run gets.  The stream is cut
into rounds of ``EDITS``; each round starts a fresh daemon with a
session opened on the program as the previous round left it, and the
run takes as many rounds as fit in its time.  A speed probe runs
before every edit, while the daemon is idle.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from itertools import cycle

from repro.serve.client import ServeError

from common import Daemon, median_probe_ns, normalized_s, now_ns, rounds

UNIT = "edits"
TAIL = 95  # 60 edits a round: p95 has 10 edits beyond it from four rounds on
ALIASES = {"edit_p50_ms": ("latency_p50_ms", 1.0), "edit_p95_ms": ("latency_tail_ms", 1.0)}
ARRAYS = 12
EDITS = 60  # per round
MAX_ROUNDS = 16
CHECKS = 5  # seeded edits of the first round whose graph is checked, plus the last edit
PROGRAM_SEED = 0
#: ``repro.fuzz.edits.mutate``'s description of each kind of edit.
KIND_PREFIX = {
    "insert": "insert statement",
    "delete": "delete statement",
    "bound": "mutate bounds",
    "subscript": "mutate subscript",
}


def _kinds(rng: random.Random, count: int) -> list[str]:
    """A seeded order of edit kinds, a quarter each, inserts and deletes alternating."""
    kinds = ["resize", "resize", "bound", "subscript"] * (count // 4)
    rng.shuffle(kinds)
    resize = cycle(("insert", "delete"))
    return [next(resize) if kind == "resize" else kind for kind in kinds]


def make_inputs(seed: int, smoke: bool) -> dict:
    from repro.fuzz.edits import mutate, storm_program

    rng = random.Random(seed)
    program = storm_program(PROGRAM_SEED, statements=30 if smoke else 100, arrays=ARRAYS)
    per_round = 8 if smoke else EDITS
    edits = []
    current = program
    for kind in _kinds(rng, per_round * MAX_ROUNDS):
        while True:  # redraw until mutate makes an edit of this kind
            edited, description = mutate(current, rng, arrays=ARRAYS)
            if description.startswith(KIND_PREFIX[kind]):
                break
        current = edited
        edits.append(current)
    checks = sorted(rng.sample(range(per_round - 1), CHECKS))
    return {"program": program, "edits": edits, "per_round": per_round, "checks": checks}


def dump_inputs(inputs: dict) -> dict:
    from repro.lang.unparse import program_to_source

    return {
        "source": program_to_source(inputs["program"]),
        "edits": [program_to_source(program) for program in inputs["edits"]],
        "per_round": inputs["per_round"],
        "checks": inputs["checks"],
    }


def setup(inputs: dict, program=None) -> dict:
    """A fresh daemon with a session open on ``program`` (default: the unedited one)."""
    from repro.lang.unparse import program_to_source

    source = program_to_source(inputs["program"] if program is None else program)
    daemon = Daemon()
    try:
        client = daemon.client()
        opened = client.open_session(source=source)
    except BaseException:
        daemon.close()
        raise
    return {"daemon": daemon, "client": client, "session": opened["session"]}


def teardown(state: dict) -> None:
    try:
        state["client"].close()
    finally:
        state["daemon"].close()


def _send(client, sid: str, source: str, tracer):
    """One ``update_source`` call: the response, or the error it ended in."""
    try:
        if tracer is None:
            return client.update_source(sid, source)
        with tracer.span("serve.round_trip"):
            return client.update_source(sid, source)
    except (ServeError, ConnectionError) as err:
        return err


def run(inputs: dict, seconds: float, tracer, meter) -> dict:
    from repro.lang.unparse import program_to_source

    edits, per_round = inputs["edits"], inputs["per_round"]
    updates: list[dict] = []
    graphs: list = []
    setups, rss = [], []
    failed = ops = op_total = 0
    program = inputs["program"]
    for round_index in rounds(seconds):
        segment = edits[round_index * per_round : (round_index + 1) * per_round]
        if not segment:
            break
        probe = median_probe_ns()
        start = now_ns()
        state = setup(inputs, program)
        setups.append(normalized_s(now_ns() - start, probe))
        client, sid = state["client"], state["session"]
        try:
            for index, program in enumerate(segment):
                source = program_to_source(program)
                chunk = meter.probe()
                ops += 1
                t0 = now_ns()
                if tracer is not None:
                    tracer.begin_op()
                update = _send(client, sid, source, tracer)
                t1 = now_ns()
                if tracer is not None:
                    tracer.end_op(t0, t1)
                if isinstance(update, Exception):
                    failed += 1
                    continue
                meter.op(chunk, t1 - t0)
                meter.busy(chunk, t1 - t0, 1)
                op_total += t1 - t0
                updates.append(update)
                failed += bool(update["degraded"] or update["degraded_pairs"])
                if round_index == 0 and index in inputs["checks"]:
                    graphs.append((program, client.graph(sid)["edges"]))
            last = (program, client.graph(sid)["edges"])
            rss.append(state["daemon"].peak_rss_mb())
            cache_entries = state["daemon"].stats()["cache"]["entries"]
        finally:
            teardown(state)
    return {
        "inputs": per_round,
        "units": per_round,
        "ops": ops,
        "op_total_ns": op_total,
        "rounds": len(setups),
        "failed": failed,
        "setup_samples_s": setups,
        "peak_rss_mb": statistics.median(rss),
        "updates": updates,
        "graphs": graphs + [last],
        "cache_entries": cache_entries,
    }


def check(inputs: dict, result: dict) -> dict:
    """The session's graph equals a cold full re-analysis at the seeded
    check points and after the last edit."""
    from repro.core.incremental import full_graph

    mismatches = 0
    for program, edges in result["graphs"]:
        expected = json.loads(json.dumps(full_graph(program).edge_dicts()))
        mismatches += edges != expected
    return {"checked": len(result["graphs"]), "mismatches": mismatches}


def counters(inputs: dict, result: dict) -> dict:
    from repro.api import AnalysisConfig, AnalysisSession

    updates = result["updates"]
    server_ms = sum(u["elapsed_ms"] for u in updates)
    # Replica: the first round's incremental updates in-process, off the wire.
    session = AnalysisSession(AnalysisConfig(jobs=1))
    session.update(inputs["program"])
    update_ms = []
    for program in inputs["edits"][: inputs["per_round"]]:
        start = time.perf_counter()
        session.update(program)
        update_ms.append((time.perf_counter() - start) * 1e3)
    return {
        "memo.entries": result["cache_entries"],
        "incremental.requery_fraction": sum(u["requery_fraction"] for u in updates) / len(updates),
        "incremental.server_update_share": server_ms * 1e6 / result["op_total_ns"],
        "incremental.server_update_ms": server_ms / len(updates),
        "incremental.requeried_pairs": sum(u["requeried"] for u in updates) / len(updates),
        "incremental.pairs": sum(u["pairs"] for u in updates) / len(updates),
        "incremental.update_ms": statistics.median(update_ms),
    }


def replica_inputs(inputs: dict, rng: random.Random):
    from repro.core.engine import queries_from_program
    from repro.lang.unparse import program_to_source

    pairs = [(q.ref1, q.nest1, q.ref2, q.nest2) for q in queries_from_program(inputs["program"])]
    sources = [program_to_source(program) for program in inputs["edits"][:3]]
    return rng.sample(pairs, min(200, len(pairs))), sources
