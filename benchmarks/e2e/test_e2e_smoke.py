"""Smoke test of the end-to-end benchmark at ``--smoke`` sizes.

    python -m pytest benchmarks/e2e -q

Outside tier-1's ``testpaths``: it spawns daemons and interpreters and
takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIME_UNITS = {"s", "ms", "us", "ns"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _results(proc: subprocess.CompletedProcess) -> list[dict]:
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> tuple[list[dict], list[dict]]:
    out = tmp_path_factory.mktemp("e2e")
    common = ("--smoke", "--seconds", "1", "--seed", "3", "--out", str(out))
    return _results(_run(*common)), _results(_run(*common, "--trace", "1"))


def _check_metrics(line: dict, declared: list[dict]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        if metric in SPEC["end_to_end"] or metric["unit"] in TIME_UNITS:
            assert emitted["value"] > 0, metric["name"]


def test_every_end_to_end_metric_is_emitted_with_its_unit(runs):
    plain, _ = runs
    assert len(plain) == len(WORKLOADS)
    for line in plain:
        _check_metrics(line, SPEC["end_to_end"])


def test_every_per_layer_metric_is_emitted_with_its_unit(runs):
    _, traced = runs
    assert len(traced) == len(WORKLOADS)
    for line in traced:
        _check_metrics(line, SPEC["per_layer"])
        assert line["metrics"]["trace.root_self_share"]["value"] <= 0.10
        assert line["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_dump_inputs_depend_on_the_seed_only(tmp_path):
    for seed, name in ((5, "a"), (5, "b"), (6, "c")):
        proc = _run("--smoke", "--seed", str(seed), "--dump-inputs", str(tmp_path / name))
        assert proc.returncode == 0, proc.stderr
    for workload in WORKLOADS:
        a, b, c = ((tmp_path / n / f"{workload}.json").read_bytes() for n in "abc")
        assert a == b, workload
        assert a != c, workload


def test_a_wrong_verdict_counts_as_failed(monkeypatch):
    import unique_cascade
    from common import Meter
    from repro.api import AnalysisSession

    analyze = AnalysisSession.analyze

    def flipped(self, *args, **kwargs):
        report = analyze(self, *args, **kwargs)
        report.dependent = not report.dependent
        return report

    monkeypatch.setattr(AnalysisSession, "analyze", flipped)
    cases = unique_cascade.make_inputs(3, smoke=True)
    run = unique_cascade.run(cases, 0.2, None, Meter())
    check = unique_cascade.check(cases, run)
    assert (run["failed"] + check["mismatches"]) / run["ops"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "serve-warm", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
