"""Helpers shared by the end-to-end benchmark's workloads.

Nothing here imports :mod:`repro`: the worker times the import of each
workload module (and through it the program modules that workload
calls) as part of set-up, so this module must stay out of that cost.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from itertools import count
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def quantile(values: list, q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100); ``q == 100`` is the maximum."""
    if q >= 100:
        return float(max(values))
    return float(statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1])


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB (Linux /proc)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


now_ns = time.perf_counter_ns


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    A daemon workload's client and daemon then share the CPU the speed
    probe measures; on shared hosts two CPUs drift independently.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


PROBE_LOOPS = 20_000
#: The probe's time at the reference speed that normalized times assume
#: (about its fast readings on the 2-CPU x86_64 host this was built on).
REFERENCE_PROBE_NS = 1_200_000
#: Probes on either side of a chunk that its speed estimate takes the
#: median of: wider windows miss the short slow spells that make tails.
PROBE_WINDOW = 1


def probe_ns() -> int:
    """Time of a fixed pure-Python loop that calls nothing in the program.

    The host's speed drifts by up to 2x over minutes (other tenants);
    the probe slows with it but not with a change to the program, so
    a time scaled by ``REFERENCE_PROBE_NS / probe`` stays put.  The
    loop's working set is a few objects: a probe that touched more
    memory would read the caches the program's own ops had just left,
    and so move with the program.
    """
    start = time.perf_counter_ns()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter_ns() - start


def median_probe_ns(samples: int = 3) -> float:
    return statistics.median(probe_ns() for _ in range(samples))


def normalized_s(ns: float, probe: float) -> float:
    """``ns`` in seconds at the reference speed, given a probe reading."""
    return ns * REFERENCE_PROBE_NS / probe / 1e9


def rounds(seconds: float):
    """Round numbers 0, 1, ... until the next round would end past
    ``seconds`` (mean round time so far as the estimate); at least one.
    Every round runs a workload's whole input set again."""
    start = time.perf_counter()
    index = 0
    while True:
        yield index
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed * (index + 1) / index > seconds:
            return


class Meter:
    """Op latencies and busy time, in chunks that each follow a speed probe.

    A workload calls :meth:`probe` before each chunk of ops, then
    :meth:`op` for every op and :meth:`busy` for the time the chunk kept
    the program busy (its ops' sum when serial, the chunk's wall time
    when connections run side by side).  :meth:`summary` scales every
    time by the reference speed over the chunk's probe (the median of
    that probe and its ``PROBE_WINDOW`` neighbours on each side).
    """

    def __init__(self):
        self.probes: list[int] = []
        self.latencies: list[tuple[int, int]] = []  # (chunk, ns)
        self.work: list[tuple[int, int, int]] = []  # (chunk, busy ns, units)

    def probe(self) -> int:
        self.probes.append(probe_ns())
        return len(self.probes) - 1

    def op(self, chunk: int, ns: int) -> None:
        self.latencies.append((chunk, ns))

    def busy(self, chunk: int, ns: int, units: int) -> None:
        self.work.append((chunk, ns, units))

    def _scales(self) -> list[float]:
        p, w = self.probes, PROBE_WINDOW
        return [
            REFERENCE_PROBE_NS / statistics.median(p[max(0, i - w) : i + w + 1])
            for i in range(len(p))
        ]

    def summary(self, tail: float) -> dict:
        """p50, tail percentile and throughput, normalized and raw."""
        scale = self._scales()
        raw = [ns for _, ns in self.latencies]
        normalized = [ns * scale[chunk] for chunk, ns in self.latencies]
        units = sum(u for _, _, u in self.work)
        busy = sum(ns for _, ns, _ in self.work)
        busy_normalized = sum(ns * scale[chunk] for chunk, ns, _ in self.work)
        return {
            "samples": len(raw),
            "latency_p50_ms": quantile(normalized, 50) / 1e6,
            "latency_tail_ms": quantile(normalized, tail) / 1e6,
            "throughput_per_s": units / (busy_normalized / 1e9),
            "raw": {
                "latency_p50_ms": quantile(raw, 50) / 1e6,
                "latency_tail_ms": quantile(raw, tail) / 1e6,
                "throughput_per_s": units / (busy / 1e9),
            },
            "probe_ns": {
                "median": statistics.median(self.probes),
                "min": min(self.probes),
                "max": max(self.probes),
                "count": len(self.probes),
            },
        }


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.spans.append(
            (self.name, self.start, time.perf_counter_ns(), tracer.root, tracer.op_id)
        )


class Tracer:
    """In-memory spans around the benchmark's calls into the program.

    A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is
    the index of the op's root span in :attr:`spans` (``None`` for the
    root itself) and ``op`` is the id every span of one op shares.
    Child spans of one op are sequential, so a root's self time is its
    duration minus the sum of its children's.  One tracer per thread;
    ``ids`` is shared so op ids stay unique across threads.
    """

    def __init__(self, ids: count | None = None):
        self.spans: list[tuple] = []
        self.ids = ids if ids is not None else count()
        self.root: int | None = None
        self.op_id: int | None = None

    def begin_op(self) -> None:
        self.op_id = next(self.ids)
        self.root = len(self.spans)
        self.spans.append(None)  # the root, filled in by end_op

    def end_op(self, start_ns: int, end_ns: int) -> None:
        self.spans[self.root] = ("op", start_ns, end_ns, None, self.op_id)
        self.root = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)


def summarize_spans(spans: list[tuple]) -> dict:
    """Per-layer self times and durations, plus the root's uncovered share."""
    children: dict[int, int] = {}
    durations: dict[str, list[int]] = {}
    for name, start, end, parent, _op in spans:
        durations.setdefault(name, []).append(end - start)
        if parent is not None:
            children[parent] = children.get(parent, 0) + (end - start)
    root_total = sum(end - start for name, start, end, parent, _ in spans if parent is None)
    self_ns: dict[str, int] = {}
    for index, (name, start, end, parent, _op) in enumerate(spans):
        own = end - start - children.get(index, 0)
        self_ns[name] = self_ns.get(name, 0) + own
    layers = {}
    for name, values in sorted(durations.items()):
        layers[name] = {
            "count": len(values),
            "self_ns": self_ns[name],
            "self_share": self_ns[name] / root_total if root_total else 0.0,
            "p50_us": quantile(values, 50) / 1e3,
            "p99_us": quantile(values, 99) / 1e3,
        }
    return {
        "ops": len(durations.get("op", [])),
        "op_total_ns": root_total,
        "root_self_share": layers["op"]["self_share"] if "op" in layers else 0.0,
        "layers": layers,
    }


def write_trace(directory: Path, workload: str, spans: list[tuple], summary: dict) -> None:
    """``trace/<workload>.jsonl`` (one span a line) plus its summary."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{workload}.jsonl", "w") as out:
        for name, start, end, parent, op in spans:
            out.write(
                json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op}
                )
                + "\n"
            )
    (directory / f"{workload}.summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


def program_env() -> dict:
    """Environment for a subprocess that must import this checkout's repro."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Daemon:
    """A ``python -m repro serve --port 0`` daemon in its own process."""

    def __init__(self):
        from repro.serve.client import Client

        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE,
            env=program_env(),
            cwd=str(ROOT),
        )
        try:
            line = self.proc.stdout.readline()
            serving = json.loads(line)["serving"]
            self.endpoint = f"tcp://{serving['host']}:{serving['port']}"
            self.control = Client(self.endpoint, retry_for=10.0, timeout=120.0)
            self.control.health()
        except BaseException:
            self._stop()
            raise

    def client(self):
        from repro.serve.client import Client

        return Client(self.endpoint, retry_for=10.0, timeout=120.0)

    def stats(self) -> dict:
        return self.control.stats()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        try:
            self.control.shutdown()
            self.control.close()
        except OSError:
            pass
        self._stop()

    def _stop(self) -> None:
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()


def registry_delta(before: dict, after: dict) -> dict:
    """What a daemon's registry gained between two ``stats`` answers, in
    ``MetricsRegistry.to_dict`` shape (histograms keep count and total;
    their min and max cannot be differenced)."""
    b, a = before["registry"], after["registry"]

    def diff(x: dict, y: dict) -> dict:
        return {k: v - x.get(k, 0) for k, v in y.items()}

    histograms = {}
    for name, h in a["histograms"].items():
        old = b["histograms"].get(name, {})
        histograms[name] = {
            "count": h["count"] - old.get("count", 0),
            "total": h["total"] - old.get("total", 0),
            "min": None,
            "max": None,
        }
    return {
        "scalars": diff(b["scalars"], a["scalars"]),
        "families": {
            name: diff(b["families"].get(name, {}), fam)
            for name, fam in a["families"].items()
        },
        "histograms": histograms,
    }


def oracle_mismatch(report, expected: set, one_sided: bool) -> bool:
    """Does a dependence report disagree with the oracle's direction set?

    ``expected`` is ``repro.oracle.oracle_direction_vectors``' answer
    (empty: independent).  A missed conflict is always a mismatch.
    ``one_sided`` is for symbolic inputs, where the oracle grounds one
    environment and the analyzer quantifies over all of them: only
    the oracle's vectors must appear.  Exact answers on ground inputs
    must match the oracle's verdict and vectors exactly.
    """
    got = set(report.elementary_directions())
    if not report.dependent:
        return bool(expected)
    if one_sided or not report.exact:
        return report.exact and not expected <= got
    return not expected or got != expected


TESTS = ("svpc", "acyclic", "loop_residue", "fourier_motzkin")


def cascade_counters(registry: dict, ops: int, op_total_ns: int) -> dict:
    """Per-layer counters from a registry dump (or delta) of analyzer stats.

    ``registry`` has the :meth:`MetricsRegistry.to_dict` shape (scalars,
    families, histograms with ``total``); ratios are per timed op and
    shares are of the summed op time.
    """
    scalars = registry.get("scalars", {})
    decided = registry.get("families", {}).get("tests.decided_by", {})
    refinements = registry.get("families", {}).get("tests.direction", {})
    histograms = registry.get("histograms", {})

    def ratio(hits: str, queries: str) -> float:
        total = scalars.get(queries, 0)
        return scalars.get(hits, 0) / total if total else 0.0

    out = {
        "memo.hit_ratio_bounds": ratio("memo.bounds.hits", "memo.bounds.queries"),
        "memo.hit_ratio_no_bounds": ratio("memo.no_bounds.hits", "memo.no_bounds.queries"),
        "analyzer.tests_per_op": sum(decided.values()) / ops,
        "directions.refinement_tests_per_op": sum(refinements.values()) / ops,
    }
    for test in TESTS:
        busy = histograms.get(f"time.cascade.{test}", {}).get("total", 0)
        out[f"deptests.{test}.decided_per_op"] = decided.get(test, 0) / ops
        out[f"deptests.{test}.busy_share"] = busy / op_total_ns
    return out
