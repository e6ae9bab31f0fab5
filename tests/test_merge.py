"""Tests for map-reduce merging of analyzer stats and memo tables.

The batch engine's reduce step relies on two algebraic facts: summing
:class:`AnalyzerStats` is associative and order-independent, and
unioning memoizer tables loses nothing — the merged table answers every
case any shard saw, survives a persistence round trip, and warm-starts
with hits on the very first query.
"""

import random

from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer
from repro.core.persist import (
    dumps,
    load_memoizer,
    loads,
    merge_memoizers,
    save_memoizer,
)
from repro.core.stats import AnalyzerStats
from repro.perfect import PROGRAM_SPECS, generate_program

import pytest


def _random_stats(seed: int) -> AnalyzerStats:
    rng = random.Random(seed)
    stats = AnalyzerStats()
    stats.total_queries = rng.randrange(100)
    stats.constant_cases = rng.randrange(50)
    stats.gcd_independent = rng.randrange(50)
    stats.memo_queries_no_bounds = rng.randrange(100)
    stats.memo_hits_no_bounds = rng.randrange(50)
    stats.memo_queries_bounds = rng.randrange(100)
    stats.memo_hits_bounds = rng.randrange(50)
    stats.direction_vectors_found = rng.randrange(20)
    for name in ("svpc", "acyclic", "loop_residue", "fourier_motzkin"):
        stats.decided_by[name] = rng.randrange(10)
        stats.direction_tests[name] = rng.randrange(10)
        stats.outcomes[(name, "independent")] = rng.randrange(10)
    return stats


def _run(queries, memoizer):
    analyzer = DependenceAnalyzer(memoizer=memoizer, want_witness=False)
    for query in queries:
        analyzer.analyze(query.ref1, query.nest1, query.ref2, query.nest2)
    return analyzer


class TestStatsMerge:
    def test_merge_is_associative(self):
        a, b, c = (_random_stats(seed) for seed in (1, 2, 3))
        left = AnalyzerStats.merged(
            [AnalyzerStats.merged([a, b]), c]
        )
        right = AnalyzerStats.merged(
            [a, AnalyzerStats.merged([b, c])]
        )
        assert left == right

    def test_merge_is_order_independent(self):
        runs = [_random_stats(seed) for seed in range(6)]
        forward = AnalyzerStats.merged(runs)
        shuffled = AnalyzerStats.merged(list(reversed(runs)))
        assert forward == shuffled

    def test_merged_equals_pairwise_accumulation(self):
        runs = [_random_stats(seed) for seed in range(4)]
        total = AnalyzerStats()
        for run in runs:
            total.merge(run)
        assert AnalyzerStats.merged(runs) == total

    def test_merged_of_nothing_is_zero(self):
        assert AnalyzerStats.merged([]) == AnalyzerStats()

    def test_sharded_stats_sum_like_one_run(self):
        """Sharding the workload never loses a counter: the shards'
        merged totals count exactly the queries each shard performed."""
        queries = generate_program(PROGRAM_SPECS[1])
        half = len(queries) // 2
        first = _run(queries[:half], Memoizer())
        second = _run(queries[half:], Memoizer())
        merged = AnalyzerStats.merged([first.stats, second.stats])
        assert merged.total_queries == len(queries)
        assert merged.decided_by == first.stats.decided_by + second.stats.decided_by


class TestMemoizerMerge:
    def test_union_of_disjoint_tables(self):
        a, b = Memoizer(), Memoizer()
        a.no_bounds.insert((1, 2), "left")
        b.no_bounds.insert((3, 4), "right")
        merged = merge_memoizers([a, b])
        assert merged.no_bounds.lookup((1, 2)) == (True, "left")
        assert merged.no_bounds.lookup((3, 4)) == (True, "right")
        assert len(merged.no_bounds) == 2

    def test_merge_requires_matching_scheme(self):
        with pytest.raises(ValueError):
            merge_memoizers([Memoizer(), Memoizer(improved=False)])
        with pytest.raises(ValueError):
            Memoizer(symmetry=True).merge_from(Memoizer())

    def test_merge_of_nothing(self):
        merged = merge_memoizers([])
        assert len(merged.no_bounds) == 0

    def test_merged_tables_round_trip_and_warm_start(self):
        """Shard a workload, merge the shards' memoizers, persist the
        union, and confirm the restored table hits on the first query
        of either shard — zero tests on the warm run."""
        queries = generate_program(PROGRAM_SPECS[1])
        half = len(queries) // 2
        first = _run(queries[:half], Memoizer())
        second = _run(queries[half:], Memoizer())

        merged = merge_memoizers(
            [first.memoizer, second.memoizer]
        )
        restored = loads(dumps(merged))
        assert len(restored.no_bounds) == len(merged.no_bounds)
        assert len(restored.with_bounds) == len(merged.with_bounds)

        warmed = DependenceAnalyzer(memoizer=restored, want_witness=False)
        probe = queries[0]
        result = warmed.analyze(
            probe.ref1, probe.nest1, probe.ref2, probe.nest2
        )
        assert result.from_memo or result.decided_by == "constant"
        # And the whole workload replays without a single test.
        replay = _run(queries, restored)
        assert sum(replay.stats.decided_by.values()) == 0

    def test_merged_file_round_trip(self, tmp_path):
        memo = Memoizer()
        _run(generate_program(PROGRAM_SPECS[0]), memo)
        path = tmp_path / "merged.json"
        save_memoizer(merge_memoizers([memo, Memoizer()]), path)
        restored = load_memoizer(path)
        assert len(restored.no_bounds) == len(memo.no_bounds)
