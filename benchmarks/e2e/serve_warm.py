"""serve-warm: warm query serving, the same patterns under new names.

A ``repro serve`` daemon in its own process answers ``analyze``
requests with directions over 2 connections, closed loop, one thread
each.  Requests are drawn by a seeded RNG from the scale-0.1 suite's
query list, so pattern frequency follows the paper's schedule, and
each request's array names get one of 32 seeded prefixes, as the same
loop shapes recur across the files of a build.  The memo key ignores
names, so set-up (one request per distinct base query) warms every
verdict; but the ~8k distinct request texts of a round overflow the
server's 4,096-entry pre-serialized fast lane, so most requests pay
decode, ``build_problem``, key intern, memo probe and serialize while
the cascade does almost nothing.  The seeded streams are cut into
rounds; each round starts a fresh daemon, so every round meets the
same state, and the run takes as many rounds as fit in its time.  The
speed probe runs between chunks of requests, while both connections
and the daemon are idle.
"""

from __future__ import annotations

import random
import statistics
import threading

from repro.serve.client import ServeError

from common import (
    Daemon,
    Tracer,
    cascade_counters,
    median_probe_ns,
    normalized_s,
    now_ns,
    registry_delta,
    rounds,
)

UNIT = "requests"
TAIL = 99
ALIASES = {
    "serve_p50_ms": ("latency_p50_ms", 1.0),
    "serve_p99_ms": ("latency_tail_ms", 1.0),
    "serve_qps": ("throughput_per_s", 1.0),
}
CONNECTIONS = 2
PREFIXES = 32
REQUESTS = 6000  # per connection and round
MAX_ROUNDS = 16
CHUNK = 100  # requests per connection between speed probes


def make_inputs(seed: int, smoke: bool) -> dict:
    from repro.core.engine import queries_from_suite
    from repro.ir.serde import query_to_dict
    from repro.perfect import load_suite
    from repro.serve.protocol import canonical_json

    schedule = queries_from_suite(load_suite(include_symbolic=True, scale=0.02 if smoke else 0.1))
    base: dict[str, int] = {}
    queries, dicts, slot = [], [], []
    for q in schedule:
        wire = query_to_dict(q.ref1, q.nest1, q.ref2, q.nest2)
        index = base.setdefault(canonical_json(wire), len(queries))
        if index == len(queries):
            queries.append((q.ref1, q.nest1, q.ref2, q.nest2))
            dicts.append(wire)
        slot.append(index)
    rng = random.Random(seed)
    prefixes: list[str] = []
    while len(prefixes) < PREFIXES:
        prefix = f"v{rng.randrange(36 ** 4):x}_"
        if prefix not in prefixes:
            prefixes.append(prefix)
    per_round = 200 if smoke else REQUESTS
    streams = []
    for connection in range(CONNECTIONS):
        draw = random.Random(seed * CONNECTIONS + connection)
        streams.append(
            [
                (slot[draw.randrange(len(slot))], draw.randrange(PREFIXES))
                for _ in range(per_round * MAX_ROUNDS)
            ]
        )
    return {
        "queries": queries,
        "dicts": dicts,
        "prefixes": prefixes,
        "streams": streams,
        "per_round": per_round,
    }


def dump_inputs(inputs: dict) -> dict:
    return {
        "base_queries": inputs["dicts"],
        "prefixes": inputs["prefixes"],
        "streams": inputs["streams"],
    }


def _params(inputs: dict, base: int, prefix: int) -> dict:
    query = inputs["dicts"][base]
    name = inputs["prefixes"][prefix]
    return {
        "query": {
            **query,
            "ref1": {**query["ref1"], "array": name + query["ref1"]["array"]},
            "ref2": {**query["ref2"], "array": name + query["ref2"]["array"]},
        },
        "directions": True,
    }


def setup(inputs: dict) -> Daemon:
    """A fresh daemon with every base query's verdict in its memo."""
    daemon = Daemon()
    try:
        for query in inputs["dicts"]:
            daemon.control.call("analyze", {"query": query, "directions": True})
    except BaseException:
        daemon.close()
        raise
    return daemon


def teardown(daemon: Daemon) -> None:
    daemon.close()


def _send(client, params: dict, tracer):
    """One ``analyze`` call: the response, or the error it ended in."""
    try:
        if tracer is None:
            return client.call("analyze", params)
        with tracer.span("serve.round_trip"):
            return client.call("analyze", params)
    except (ServeError, ConnectionError) as err:
        return err


def _connection(client, inputs, requests, tracer, seen, out) -> None:
    """Send ``requests`` in order; append (latencies, failures) to ``out``."""
    latencies: list[int] = []
    failed = 0
    for base, prefix in requests:
        params = _params(inputs, base, prefix)
        t0 = now_ns()
        if tracer is not None:
            tracer.begin_op()
        response = _send(client, params, tracer)
        t1 = now_ns()
        if tracer is not None:
            tracer.end_op(t0, t1)
        if isinstance(response, Exception) or response["degraded"]:
            failed += 1
            continue
        latencies.append(t1 - t0)
        first = seen.setdefault((base, prefix), response)
        if first is not response and first != response:
            failed += 1
    out.append((latencies, failed))


def run(inputs: dict, seconds: float, tracer, meter) -> dict:
    streams, per_round = inputs["streams"], inputs["per_round"]
    seen: dict = {}
    setups, rss, deltas = [], [], []
    failed = ops = op_total = 0
    for round_index in rounds(seconds):
        begin_round = round_index * per_round
        if begin_round >= len(streams[0]):
            break
        probe = median_probe_ns()
        start = now_ns()
        daemon = setup(inputs)
        setups.append(normalized_s(now_ns() - start, probe))
        tracers = [None if tracer is None else Tracer(tracer.ids) for _ in streams]
        try:
            with daemon.client() as first, daemon.client() as second:
                before = daemon.stats()
                for begin in range(begin_round, begin_round + per_round, CHUNK):
                    chunk = meter.probe()
                    out: list = []
                    requests = [stream[begin : begin + CHUNK] for stream in streams]
                    t0 = now_ns()
                    other = threading.Thread(
                        target=_connection,
                        args=(second, inputs, requests[1], tracers[1], seen, out),
                    )
                    other.start()
                    try:
                        _connection(first, inputs, requests[0], tracers[0], seen, out)
                    finally:
                        other.join()
                    meter.busy(chunk, now_ns() - t0, sum(len(lat) for lat, _ in out))
                    for latencies, lost in out:
                        for latency in latencies:
                            meter.op(chunk, latency)
                        failed += lost
                        ops += len(latencies) + lost
                        op_total += sum(latencies)
                after = daemon.stats()
            rss.append(daemon.peak_rss_mb())
        finally:
            teardown(daemon)
        deltas.append(registry_delta(before, after))
        if tracer is not None:
            for t in tracers:
                offset = len(tracer.spans)
                tracer.spans.extend(
                    (name, s, e, None if p is None else p + offset, op)
                    for name, s, e, p, op in t.spans
                )
    return {
        "inputs": per_round * CONNECTIONS,
        "units": per_round * CONNECTIONS,
        "ops": ops,
        "op_total_ns": op_total,
        "rounds": len(setups),
        "failed": failed,
        "setup_samples_s": setups,
        "peak_rss_mb": statistics.median(rss),
        "seen": seen,
        "deltas": deltas,
        "cache_entries": after["cache"]["entries"],
    }


def check(inputs: dict, result: dict) -> dict:
    """Each distinct response equals the in-process answer to its
    un-renamed base query, with the prefix put back on the names."""
    from repro.api import AnalysisSession
    from repro.serve.protocol import report_to_wire

    session = AnalysisSession()
    expected: dict[int, dict] = {}
    mismatches = 0
    for (base, prefix), response in result["seen"].items():
        if base not in expected:
            expected[base] = report_to_wire(
                session.analyze(*inputs["queries"][base], want_directions=True)
            )
        want = expected[base]
        name = inputs["prefixes"][prefix]
        want = {**want, "ref1": name + want["ref1"], "ref2": name + want["ref2"]}
        mismatches += response != want
    return {"checked": len(result["seen"]), "mismatches": mismatches}


def counters(inputs: dict, result: dict) -> dict:
    from repro.obs.metrics import MetricsRegistry

    merged = MetricsRegistry()
    for delta in result["deltas"]:
        merged.merge(MetricsRegistry.from_dict(delta))
    totals = merged.to_dict()
    scalars = totals["scalars"]
    busy = totals["histograms"].get("time.serve.analyze", {}).get("total", 0)
    out = cascade_counters(totals, result["ops"], result["op_total_ns"])
    out["memo.entries"] = result["cache_entries"]
    out["serve.fastlane_hit_ratio"] = scalars.get("serve.fastlane.hits", 0) / result["ops"]
    out["serve.server_busy_share"] = busy / result["op_total_ns"]
    out["serve.coalesced"] = scalars.get("serve.coalesced", 0)
    return out


def replica_inputs(inputs: dict, rng: random.Random):
    from repro.core.engine import PairQuery
    from repro.ir.serde import query_from_dict
    from repro.perfect.source_gen import queries_to_source

    sample = rng.sample(inputs["streams"][0][: inputs["per_round"]], min(200, inputs["per_round"]))
    queries = [query_from_dict(_params(inputs, b, p)["query"]) for b, p in sample]
    base = [PairQuery(*q) for q in inputs["queries"]]
    return queries, [queries_to_source(base[i : i + 40]) for i in range(0, min(len(base), 160), 40)]
