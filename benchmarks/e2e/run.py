"""End-to-end benchmark of the dependence analyzer: one command, four workloads.

    python3 benchmarks/e2e/run.py --seed S [--workload NAME]... [--seconds N]
                                  [--trace [0|1]] [--out DIR] [--smoke]
                                  [--dump-inputs DIR]

Each workload runs in fresh interpreters (``worker.py``).  An untraced
run measures whole rounds of the workload's inputs for about
``--seconds``, takes the median of at least five set-up samples and
prints every end-to-end metric of ``BENCHMARK.json``, with times
scaled to a reference host speed; ``--trace 1`` instead splits the
time between an untraced and a traced run and prints every per-layer
metric, including the tracing overhead.  See ``README.md`` in this
directory.  Outputs are checked against references; the last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` (one line per workload when several run).  The
exit code is 1 when any answer was wrong or a traced op's spans left
more than ``MAX_ROOT_SELF_SHARE`` of it uncovered, and 2 when the
checkout holds no ``src/repro``.  Results go to ``--out`` as
``<workload>.json`` / ``<workload>.trace.json`` plus
``trace/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("suite-compile", "unique-cascade", "serve-warm", "edit-session")
SETUP_RUNS = 5
BUDGET_S = 170.0  # one workload, all its children included
#: A traced op's time its child spans must cover, all but this share.
MAX_ROOT_SELF_SHARE = 0.10


class BenchmarkError(RuntimeError):
    pass


def _child(deadline: float, **options) -> dict:
    """Run ``worker.py`` in its own process group; return its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", options.pop("workload")]
    for key, value in options.items():
        if value is True:
            command.append(f"--{key}")
        elif value is not False:
            command += [f"--{key}", str(value)]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=str(ROOT), start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{' '.join(command[2:])} ran past the time budget")
    finally:
        # A worker that died early may have left its daemon behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{' '.join(command[2:])} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _untraced(workload: str, args, deadline: float, spec: dict) -> tuple[dict, dict]:
    common = {"workload": workload, "seed": args.seed, "smoke": args.smoke}
    result = _child(deadline, mode="measure", seconds=args.seconds, trace=0, out=args.out, **common)
    # Daemon workloads set up once per round; in-process ones only
    # import, so their further samples need fresh interpreters.
    setups = result["setup_samples_s"]
    while len(setups) < (1 if args.smoke else SETUP_RUNS):
        setups += _child(deadline, mode="setup", **common)["setup_samples_s"]
    result["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: (result[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    return result, metrics


def _traced(workload: str, args, deadline: float, spec: dict) -> tuple[dict, dict]:
    common = {"workload": workload, "seed": args.seed, "smoke": args.smoke, "out": args.out}
    half = args.seconds / 2
    plain = _child(deadline, mode="measure", seconds=half, trace=0, **common)
    result = _child(deadline, mode="measure", seconds=half, trace=1, **common)
    layers = result["per_layer"]
    if layers["trace.root_self_share"] > MAX_ROOT_SELF_SHARE:
        raise BenchmarkError(
            f"{workload}: spans leave {layers['trace.root_self_share']:.1%} of op time "
            f"uncovered (limit {MAX_ROOT_SELF_SHARE:.0%})"
        )
    layers["trace.overhead_ratio"] = result["latency_p50_ms"] / plain["latency_p50_ms"]
    result["untraced"] = plain
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]
    metrics = {m["name"]: (layers.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
    return result, metrics


def _report(workload: str, result: dict, metrics: dict, out: Path, trace: bool) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    result["workload"] = workload
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    name = f"{workload}.trace.json" if trace else f"{workload}.json"
    (out / name).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for metric, (value, unit) in metrics.items():
        print(f"{workload:15s} {metric:42s} {value:14.6g} {unit}")
    if not trace:
        print(
            f"{workload:15s} {'ops':42s} {result['attempted']:14d} "
            f"({result['rounds']} rounds of {result['inputs']} inputs, "
            f"{result['units']} {result['unit']} a round; {result['samples']} timed, "
            f"tail p{result['tail_percentile']:g}; times at reference speed)"
        )
        for alias, value in result["aliases"].items():
            print(f"{workload:15s} {alias:42s} {value:14.6g}")
    print(f"{workload:15s} {'checked':42s} {json.dumps(result['check'])}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=str(HERE / "results"))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--dump-inputs", metavar="DIR", help="write the inputs and stop")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    workloads = args.workload or list(WORKLOADS)
    worst = 0
    try:
        for workload in workloads:
            deadline = time.monotonic() + BUDGET_S
            if args.dump_inputs:
                _child(deadline, workload=workload, seed=args.seed, smoke=args.smoke,
                       mode="dump", out=args.dump_inputs)
                continue
            measure = _traced if args.trace else _untraced
            result, metrics = measure(workload, args, deadline, spec)
            line = _report(workload, result, metrics, Path(args.out), bool(args.trace))
            print(json.dumps(line), flush=True)
            worst = max(worst, 0 if line["correct"] else 1)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
