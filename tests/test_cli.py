"""Tests for the command-line interfaces."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.harness.cli import main as harness_main

REPO = pathlib.Path(__file__).resolve().parent.parent

SOURCE = """
for i = 2 to 10 do
  for j = 1 to 10 do
    a[i][j] = a[i - 1][j]
  end
end
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.loop"
    path.write_text(SOURCE)
    return str(path)


class TestBatchCommand:
    def test_batch_on_source_file(self, source_file, capsys):
        assert repro_main(["batch", source_file, "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "unique problems" in out
        assert "memo hit rates" in out

    def test_batch_warm_cache_round_trip(self, source_file, tmp_path, capsys):
        cache = str(tmp_path / "cache.json")
        assert repro_main(
            ["batch", source_file, "--jobs", "1", "--warm-cache", cache]
        ) == 0
        cold = capsys.readouterr().out
        assert "dependence tests run" in cold
        # Second run warm-starts from the saved table: zero tests.
        assert repro_main(
            ["batch", source_file, "--jobs", "1", "--warm-cache", cache]
        ) == 0
        warm = capsys.readouterr().out
        assert "0 dependence tests run" in warm

    def test_batch_corrupt_warm_cache(self, source_file, tmp_path, capsys):
        # A corrupt cache costs warmth, never availability: the run
        # warns, analyzes cold, and rewrites the cache with good data.
        cache = tmp_path / "bad.json"
        cache.write_text('{"garbage": true')
        assert repro_main(
            ["batch", source_file, "--warm-cache", str(cache)]
        ) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "dependence tests run" in captured.out
        # The rewrite repaired the file: a second run warm-starts.
        assert repro_main(
            ["batch", source_file, "--warm-cache", str(cache)]
        ) == 0
        assert "0 dependence tests run" in capsys.readouterr().out

    def test_batch_sharded_suite(self, capsys):
        assert repro_main(
            ["batch", "--scale", "0.05", "--jobs", "2", "--no-directions"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 worker(s)" in out

    def test_batch_verbose_marks_dedup(self, tmp_path, capsys):
        path = tmp_path / "dup.loop"
        path.write_text(
            "for i = 1 to 10 do\n"
            "  a[i+1] = a[i]\n"
            "  a[i+1] = a[i]\n"
            "end\n"
        )
        assert repro_main(["batch", str(path), "--jobs", "1", "-v"]) == 0
        out = capsys.readouterr().out
        assert "(deduped)" in out


class TestAnalyzeCommand:
    def test_analyze(self, source_file, capsys):
        # Exit 1: dependences were found (the documented convention).
        assert repro_main(["analyze", source_file]) == 1
        out = capsys.readouterr().out
        assert "DEPENDENT" in out
        assert "(< =)" in out
        assert "distance (1, 0)" in out

    def test_analyze_no_pairs(self, tmp_path, capsys):
        path = tmp_path / "empty.loop"
        path.write_text("x = 1\n")
        assert repro_main(["analyze", str(path)]) == 0
        assert "no testable" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert repro_main(["analyze", "/nonexistent/x.loop"]) == 2
        assert "error" in capsys.readouterr().err

    def test_permissive_skip_warning(self, tmp_path, capsys):
        path = tmp_path / "bad.loop"
        path.write_text("for i = 1 to 9 do\n  a[i*i] = 0\nend\n")
        assert repro_main(["analyze", str(path)]) == 0
        assert "skipped" in capsys.readouterr().err


class TestParallelizeCommand:
    def test_report(self, source_file, capsys):
        assert repro_main(["parallelize", source_file, "-v"]) == 0
        out = capsys.readouterr().out
        assert "[serial  ]" in out
        assert "[PARALLEL]" in out
        assert "carried by" in out


class TestDepsCommand:
    def test_edges(self, source_file, capsys):
        assert repro_main(["deps", source_file]) == 1
        out = capsys.readouterr().out
        assert "flow" in out
        assert "[carried]" in out

    def test_no_deps(self, tmp_path, capsys):
        path = tmp_path / "indep.loop"
        path.write_text("for i = 1 to 9 do\n  a[i] = b[i]\nend\n")
        assert repro_main(["deps", str(path)]) == 0
        # a flow pair a-b does not exist; b is read-only, a write-only
        assert "no dependences" in capsys.readouterr().out


class TestVectorizeCommand:
    def test_vectorize(self, tmp_path, capsys):
        path = tmp_path / "v.loop"
        path.write_text(
            "for i = 2 to 100 do\n"
            "  a[i] = b[i] + 1\n"
            "  c[i] = a[i - 1] + 2\n"
            "end\n"
        )
        assert repro_main(["vectorize", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("VECTOR") == 2

    def test_vectorize_serial(self, source_file, capsys):
        assert repro_main(["vectorize", source_file]) == 0
        out = capsys.readouterr().out
        assert "DO i (serial)" in out

    @pytest.mark.parametrize("name", ["rowsum.py", "trisolve.c"])
    def test_vectorize_output_ignores_the_hash_seed(self, name, capsys):
        """Nests print in program order, so every ``PYTHONHASHSEED``
        prints the same bytes."""
        path = REPO / "tests" / "corpus" / "frontends" / name
        pythonpath = os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-m", "repro", "vectorize", str(path)],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath),
                capture_output=True,
                check=True,
                timeout=120,
            ).stdout
            for seed in ("0", "1", "2")
        }
        assert len(outputs) == 1
        assert repro_main(["vectorize", str(path)]) == 0
        assert outputs == {capsys.readouterr().out.encode()}


class TestDotCommand:
    def test_dot(self, source_file, capsys):
        assert repro_main(["dot", source_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "flow" in out


class TestExplainCommand:
    def test_list_pairs(self, source_file, capsys):
        assert repro_main(["explain", source_file, "--list"]) == 0
        out = capsys.readouterr().out
        assert "[0] a[i][j] vs a[i - 1][j]" in out

    def test_no_pair_hints_at_indices(self, source_file, capsys):
        assert repro_main(["explain", source_file]) == 0
        captured = capsys.readouterr()
        assert "[0]" in captured.out
        assert "--pair" in captured.err

    def test_explain_renders_decision_path(self, source_file, capsys):
        assert repro_main(["explain", source_file, "--pair", "0"]) == 0
        out = capsys.readouterr().out
        assert "query[0] analyze: a[i][j] vs a[i - 1][j]" in out
        assert "memo[no_bounds]: miss" in out
        assert "egcd: solvable" in out
        assert "cascade svpc: dependent" in out
        assert "=> dependent [svpc]" in out
        assert "direction vector" in out  # refinement part

    def test_explain_no_directions(self, source_file, capsys):
        assert repro_main(
            ["explain", source_file, "--pair", "0", "--no-directions"]
        ) == 0
        out = capsys.readouterr().out
        assert "=> dependent [svpc]" in out
        assert "directions:" not in out

    def test_explain_jsonl_dump(self, source_file, tmp_path, capsys):
        from repro.obs.events import read_jsonl

        dump = str(tmp_path / "trace.jsonl")
        assert repro_main(
            ["explain", source_file, "--pair", "0", "--jsonl", dump]
        ) == 0
        events = list(read_jsonl(dump))
        kinds = [type(e).__name__ for e in events]
        assert kinds[0] == "QueryStart" and kinds[-1] == "QueryEnd"
        assert f"wrote {len(events)} events" in capsys.readouterr().err

    def test_pair_out_of_range(self, source_file, capsys):
        assert repro_main(["explain", source_file, "--pair", "9"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            repro_main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestStatsCommand:
    def test_stats_text_dump(self, source_file, capsys):
        assert repro_main(["stats", source_file]) == 0
        out = capsys.readouterr().out
        assert "queries.total" in out
        assert "tests.decided_by[svpc]" in out
        assert "time.cascade.svpc" in out

    def test_stats_json_dump(self, source_file, capsys):
        import json

        assert repro_main(["stats", source_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scalars"]["queries.total"] == 2
        assert "histograms" in payload


class TestBatchTrace:
    def test_batch_trace_writes_jsonl(self, source_file, tmp_path, capsys):
        from repro.obs.events import read_jsonl

        trace = str(tmp_path / "batch.jsonl")
        assert repro_main(
            ["batch", source_file, "--jobs", "1", "--trace", trace]
        ) == 0
        events = list(read_jsonl(trace))
        assert events, "trace file must not be empty"
        captured = capsys.readouterr()
        assert f"wrote {len(events)} trace events" in captured.err


class TestHarnessCli:
    def test_single_experiment(self, capsys):
        assert harness_main(["table1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "TOTAL" in out

    def test_unknown_experiment(self, capsys):
        assert harness_main(["tableX"]) == 2

    def test_tables_forwarding(self, capsys):
        assert repro_main(["tables", "table1", "--scale", "0.02"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestFuzzCommand:
    def test_small_clean_campaign(self, capsys):
        assert repro_main(["fuzz", "--seed", "0", "-n", "10"]) == 0
        out = capsys.readouterr().out
        assert "discrepancies: 0" in out
        assert "cases by tier" in out

    def test_output_reproducible_across_jobs(self, capsys):
        assert repro_main(["fuzz", "--seed", "2", "-n", "10", "-j", "1"]) == 0
        serial = capsys.readouterr().out
        assert repro_main(["fuzz", "--seed", "2", "-n", "10", "-j", "2"]) == 0
        sharded = capsys.readouterr().out
        assert serial == sharded

    def test_tier_selection(self, capsys):
        assert repro_main(
            ["fuzz", "-n", "4", "--tier", "constant", "--tier", "degenerate"]
        ) == 0
        out = capsys.readouterr().out
        assert "tiers=constant,degenerate" in out

    def test_stats_json(self, tmp_path, capsys):
        import json as json_mod

        stats = tmp_path / "stats.json"
        assert repro_main(
            ["fuzz", "-n", "6", "--stats-json", str(stats)]
        ) == 0
        payload = json_mod.loads(stats.read_text())
        assert payload["scalars"]["fuzz.cases"] == 6

    def test_replay_empty_corpus(self, tmp_path, capsys):
        assert repro_main(["fuzz", "--replay", str(tmp_path)]) == 0
        assert "no corpus cases" in capsys.readouterr().out

    def test_replay_corpus(self, tmp_path, capsys):
        from repro.fuzz.corpus import save_case
        from repro.fuzz.generator import generate_case

        for index in range(3):
            save_case(generate_case(0, index, "constant"), tmp_path)
        assert repro_main(["fuzz", "--replay", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "replayed 3 corpus case(s)" in out
        assert "discrepancies: 0" in out

    def test_replay_committed_corpus(self, capsys):
        corpus = pathlib.Path(__file__).parent / "corpus"
        assert repro_main(["fuzz", "--replay", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "replayed 10 corpus case(s)" in out
        assert "discrepancies: 0" in out

    def test_replay_rejects_stray_json(self, tmp_path, capsys):
        from repro.fuzz.corpus import save_case
        from repro.fuzz.generator import generate_case

        save_case(generate_case(0, 0, "constant"), tmp_path)
        (tmp_path / "notes.json").write_text('{"digests": []}\n')
        assert repro_main(["fuzz", "--replay", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "notes.json" in err and "not a fuzz corpus case" in err


class TestEndpointFlag:
    """``query``, ``watch`` and ``ping`` share one ``--endpoint``: a URL
    the client cannot speak is a usage error in every verb."""

    @pytest.mark.parametrize("url", ["http://x:1", "cluster://127.0.0.1:1"])
    @pytest.mark.parametrize("verb", ["query", "watch", "ping"])
    def test_unsupported_url_is_a_usage_error(
        self, source_file, capsys, verb, url
    ):
        argv = [verb, "--endpoint", url]
        if verb == "watch":
            argv.insert(1, source_file)
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        assert "unsupported endpoint" in capsys.readouterr().err


class TestServeHeap:
    """``repro serve`` raises glibc's heap trim and mmap thresholds
    once, at start-up, through ``mallopt``; a C library without it is
    left as it is."""

    class _Mallopt:
        def __init__(self):
            self.calls = []

        def __call__(self, param, value):
            self.calls.append((param, value))
            return 1

    def test_raises_the_trim_threshold(self, monkeypatch):
        import ctypes
        import types

        from repro import cli

        mallopt = self._Mallopt()
        monkeypatch.setattr(
            ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt)
        )
        cli._keep_heap_top()
        assert mallopt.calls == [
            (-3, 1024 * 1024),  # M_MMAP_THRESHOLD
            (-1, 256 * 1024 * 1024),  # M_TRIM_THRESHOLD
        ]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    def test_a_libc_without_mallopt_is_left_alone(self, monkeypatch):
        import ctypes
        import types

        from repro import cli

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        cli._keep_heap_top()  # no AttributeError
