"""One workload in a fresh interpreter; ``run.py`` spawns it.

Each run needs its own interpreter because ``repro.core.memo``'s
intern table is process-global, and because set-up time includes
importing the program modules the workload calls.  Modes:

``setup``    import and (daemon workloads) generate inputs, set up
             once and tear down; report the set-up time
``measure``  import and generate inputs, then the timed rounds (each
             daemon workload sets up per round), the reference checks
             and, with ``--trace 1``, spans, counters and replica timings
``dump``     write the generated inputs to ``--out`` and stop

The worker pins itself, and so its daemon, to one CPU, and every time
it reports is scaled to the reference speed by the speed probe taken
beside it (see ``common.Meter``); the result keeps the raw times too.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import sys
from pathlib import Path

from common import (
    SRC,
    Meter,
    Tracer,
    median_probe_ns,
    normalized_s,
    now_ns,
    peak_rss_mb,
    pin_to_one_cpu,
    summarize_spans,
    write_trace,
)

MODULES = {
    "suite-compile": "suite_compile",
    "unique-cascade": "unique_cascade",
    "serve-warm": "serve_warm",
    "edit-session": "edit_session",
}

#: Layers the traced ops record spans for; each reports its self-time
#: share of op time on every workload (0 where the op never enters it).
SPAN_LAYERS = (
    "lang.parse",
    "opt.optimize",
    "lang.lower",
    "ir.reference_pairs",
    "engine.analyze_batch",
    "api.report",
    "analyzer.analyze",
    "directions.directions",
    "serve.round_trip",
)


def _measure(module, inputs, args, import_s: float) -> dict:
    tracer = Tracer() if args.trace else None
    meter = Meter()
    run = module.run(inputs, args.seconds, tracer, meter)
    rss = run["peak_rss_mb"] or peak_rss_mb()
    counters = module.counters(inputs, run) if tracer else {}
    check = module.check(inputs, run)
    out = {
        "setup_samples_s": [import_s + s for s in run["setup_samples_s"]] or [import_s],
        "inputs": run["inputs"],
        "rounds": run["rounds"],
        "units": run["units"],
        "unit": module.UNIT,
        "attempted": run["ops"],
        "failed": run["failed"] + check["mismatches"],
        "check": check,
        "tail_percentile": module.TAIL,
        "peak_rss_mb": rss,
        **meter.summary(module.TAIL),
    }
    out["aliases"] = {
        alias: out[metric] * scale for alias, (metric, scale) in module.ALIASES.items()
    }
    if tracer is not None:
        import replica

        summary = summarize_spans(tracer.spans)
        write_trace(Path(args.out) / "trace", args.workload, tracer.spans, summary)
        layers = {
            f"{layer}.self_share": summary["layers"].get(layer, {}).get("self_share", 0.0)
            for layer in SPAN_LAYERS
        }
        layers["trace.root_self_share"] = summary["root_self_share"]
        layers.update(counters)
        layers.update(replica.measure(*module.replica_inputs(inputs, random.Random(args.seed))))
        out["per_layer"] = layers
        out["spans"] = summary["layers"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--mode", choices=("setup", "measure", "dump"), default="measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    probe = median_probe_ns()
    start = now_ns()
    module = importlib.import_module(MODULES[args.workload])
    import_s = normalized_s(now_ns() - start, probe)
    if args.mode == "setup":
        sample = import_s
        if hasattr(module, "setup"):  # the daemon workloads also start a daemon
            inputs = module.make_inputs(args.seed, args.smoke)
            probe = median_probe_ns()
            start = now_ns()
            state = module.setup(inputs)
            sample += normalized_s(now_ns() - start, probe)
            module.teardown(state)
        print(json.dumps({"setup_samples_s": [sample]}))
        return 0
    inputs = module.make_inputs(args.seed, args.smoke)
    if args.mode == "dump":
        target = Path(args.out) / f"{args.workload}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(module.dump_inputs(inputs), sort_keys=True) + "\n")
        result = {"dumped": str(target)}
    else:
        from repro.obs.hostmeta import host_metadata

        result = _measure(module, inputs, args, import_s)
        result.update(host_metadata())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
