"""Tests for the two-tier serving cache (repro.serve.cache)."""

import asyncio
import json
import sys
import threading

import pytest

from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer
from repro.core.persist import load_memoizer_safe, save_memoizer
from repro.perfect import PROGRAM_SPECS, generate_program
from repro.serve.cache import RecencyMemoTable, ServeCache, SingleFlight


def _warm(cache: ServeCache, spec_index: int = 1) -> int:
    """Run a real workload through the cache's memoizer; entry count."""
    analyzer = DependenceAnalyzer(
        memoizer=cache.memoizer, want_witness=False
    )
    for query in generate_program(PROGRAM_SPECS[spec_index]):
        analyzer.analyze(query.ref1, query.nest1, query.ref2, query.nest2)
    return cache.entry_count()


def _entries(memoizer) -> dict:
    return {
        name: dict(getattr(memoizer, name).items())
        for name in ("no_bounds", "with_bounds")
    }


def _replay_tests(memoizer, spec_index: int = 1) -> int:
    """Dependence tests a workload still runs against ``memoizer``."""
    analyzer = DependenceAnalyzer(memoizer=memoizer, want_witness=False)
    for query in generate_program(PROGRAM_SPECS[spec_index]):
        analyzer.analyze(query.ref1, query.nest1, query.ref2, query.nest2)
    return sum(analyzer.stats.decided_by.values())


class TestRecencyMemoTable:
    def test_tracks_recency_on_every_touch(self):
        table = RecencyMemoTable()
        table.insert((1, 2), "a")
        table.insert((3, 4), "b")
        first = table.used[(1, 2)]
        assert table.used[(3, 4)] > first
        hit, value = table.lookup((1, 2))
        assert hit and value == "a"
        assert table.used[(1, 2)] > table.used[(3, 4)]

    def test_drop_removes_entry_and_stamp(self):
        table = RecencyMemoTable()
        table.insert((1, 2), "a")
        table.drop((1, 2))
        assert len(table) == 0
        assert (1, 2) not in table.used
        hit, _ = table.lookup((1, 2))
        assert not hit

    def test_restore_adopts_persisted_stamp(self):
        table = RecencyMemoTable()
        table.restore((1,), "x", used=50)
        assert table.used[(1,)] == 50
        # The clock resumes past the adopted stamp.
        table.insert((2,), "y")
        assert table.used[(2,)] > 50

    def test_concurrent_mutation_is_consistent(self):
        table = RecencyMemoTable()
        n_threads, per_thread = 8, 500

        def hammer(base):
            for i in range(per_thread):
                key = (base, i)
                table.insert(key, i)
                hit, value = table.lookup(key)
                assert hit and value == i

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(table) == n_threads * per_thread
        assert len(table.used) == n_threads * per_thread


class TestServeCachePersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "serve-cache.json"
        cache = ServeCache(path=path)
        count = _warm(cache)
        assert count > 0
        written = cache.save()
        assert written > 0

        reloaded = ServeCache(path=path)
        assert reloaded.loaded_entries == count
        assert reloaded.entry_count() == count

    def test_warm_cache_serves_all_hits(self, tmp_path):
        """The reloaded tier answers a repeat workload with zero tests."""
        path = tmp_path / "serve-cache.json"
        cache = ServeCache(path=path)
        _warm(cache)
        cache.save()

        reloaded = ServeCache(path=path)
        analyzer = DependenceAnalyzer(
            memoizer=reloaded.memoizer, want_witness=False
        )
        for query in generate_program(PROGRAM_SPECS[1]):
            analyzer.analyze(query.ref1, query.nest1, query.ref2, query.nest2)
        assert sum(analyzer.stats.decided_by.values()) == 0

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "serve-cache.json"
        cache = ServeCache(path=path)
        _warm(cache)
        cache.save()
        cache.save()  # overwrite path too
        leftovers = [p for p in tmp_path.iterdir() if p.name != path.name]
        assert leftovers == []

    def test_corrupt_store_warns_and_starts_cold(self, tmp_path):
        path = tmp_path / "serve-cache.json"
        cache = ServeCache(path=path)
        _warm(cache)
        cache.save()
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn file
        with pytest.warns(RuntimeWarning, match="cold"):
            cold = ServeCache(path=path)
        assert cold.entry_count() == 0
        assert cold.registry.get("serve.cache.load_failures") == 1

    def test_version_mismatch_warns_and_starts_cold(self, tmp_path):
        path = tmp_path / "serve-cache.json"
        cache = ServeCache(path=path)
        _warm(cache)
        cache.save()
        blob = json.loads(path.read_text())
        blob["version"] = 999
        path.write_text(json.dumps(blob))
        with pytest.warns(RuntimeWarning, match="mismatch"):
            cold = ServeCache(path=path)
        assert cold.entry_count() == 0
        assert cold.registry.get("serve.cache.version_skips") == 1

    def test_non_object_entry_warns_and_starts_cold(self, tmp_path):
        """Regression: a store entry that is not a JSON object raised
        AttributeError out of the constructor, so the daemon could not
        start."""
        path = tmp_path / "serve-cache.json"
        cache = ServeCache(path=path)
        _warm(cache)
        cache.save()
        blob = json.loads(path.read_text())
        blob["tables"]["no_bounds"].append(42)
        path.write_text(json.dumps(blob))
        with pytest.warns(RuntimeWarning, match="cold"):
            cold = ServeCache(path=path)
        assert cold.entry_count() == 0
        assert cold.registry.get("serve.cache.load_failures") == 1

    def test_undecodable_last_entry_adopts_nothing(self, tmp_path):
        """Loading is all-or-nothing: a bad last entry must not leave
        every earlier entry live behind a "starts cold" warning."""
        path = tmp_path / "serve-cache.json"
        cache = ServeCache(path=path)
        _warm(cache)
        cache.save()
        blob = json.loads(path.read_text())
        blob["tables"]["with_bounds"][-1]["value"]["kind"] = "bogus"
        path.write_text(json.dumps(blob))
        with pytest.warns(RuntimeWarning, match="cold"):
            cold = ServeCache(path=path)
        assert cold.entry_count() == 0
        assert cold.loaded_entries == 0
        assert cold.registry.get("serve.cache.load_failures") == 1

    @pytest.mark.parametrize(
        "header",
        [
            {"version": 1, "improved": True, "symmetry": False},
            {"cache_version": 1, "protocol_version": 3, "improved": True,
             "symmetry": False},
        ],
        ids=["persist-v1", "serve-cache-v1"],
    )
    def test_version_1_files_are_version_skips(self, tmp_path, header):
        """Images of the two older layouts are caches: warn, start cold."""
        path = tmp_path / "serve-cache.json"
        path.write_text(json.dumps(dict(header, tables={})))
        with pytest.warns(RuntimeWarning, match="mismatch"):
            cold = ServeCache(path=path)
        assert cold.entry_count() == 0
        assert cold.registry.get("serve.cache.version_skips") == 1

    def test_keying_flags_must_match(self, tmp_path):
        """An image written under symmetry=True is useless (wrong keys)
        for the daemon's default-scheme memoizer: it must be skipped,
        not misread."""
        path = tmp_path / "serve-cache.json"
        symmetric = Memoizer(symmetry=True)
        analyzer = DependenceAnalyzer(memoizer=symmetric, want_witness=False)
        for query in generate_program(PROGRAM_SPECS[1]):
            analyzer.analyze(query.ref1, query.nest1, query.ref2, query.nest2)
        assert len(symmetric.with_bounds) > 0
        save_memoizer(symmetric, path)
        with pytest.warns(RuntimeWarning, match="mismatch"):
            other = ServeCache(path=path)
        assert other.entry_count() == 0

    def test_missing_file_is_silent(self, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = ServeCache(path=tmp_path / "absent.json")
        assert cache.entry_count() == 0

    def test_in_memory_cache_never_touches_disk(self):
        cache = ServeCache(path=None)
        _warm(cache)
        assert cache.save() == 0


class TestOneImageFormat:
    """``batch --warm-cache`` files and the serve store are one
    format: each loads wherever the other does."""

    def test_warm_cache_file_warms_the_daemon(self, tmp_path):
        memo = Memoizer()
        _replay_tests(memo)
        path = tmp_path / "warm.json"
        save_memoizer(memo, path)

        cache = ServeCache(path=path)
        assert cache.loaded_entries == len(memo.no_bounds) + len(
            memo.with_bounds
        )
        assert _entries(cache.memoizer) == _entries(memo)
        assert _replay_tests(cache.memoizer) == 0

    def test_serve_store_loads_as_warm_cache(self, tmp_path):
        path = tmp_path / "serve-cache.json"
        cache = ServeCache(path=path)
        _warm(cache)
        cache.save()
        memo = load_memoizer_safe(path)
        assert memo is not None
        assert _entries(memo) == _entries(cache.memoizer)

    def test_used_stamps_survive_when_present(self, tmp_path):
        path = tmp_path / "serve-cache.json"
        cache = ServeCache(path=path)
        _warm(cache)
        cache.memoizer.with_bounds.lookup(
            next(iter(cache.memoizer.with_bounds.used))
        )
        cache.save()
        reloaded = ServeCache(path=path)
        for name in ("no_bounds", "with_bounds"):
            assert (
                getattr(reloaded.memoizer, name).used
                == getattr(cache.memoizer, name).used
            )


class TestSharedTableConcurrency:
    def test_snapshots_and_writes_under_concurrent_inserts(self, tmp_path):
        """Copies and saves run safely against live inserts, no
        insert is lost, and every copy is a subset of the final table."""
        warmed = ServeCache()
        _warm(warmed)
        _, value = warmed.memoizer.with_bounds.items()[0]  # a real memo value
        cache = ServeCache(path=tmp_path / "serve-cache.json")
        table = cache.memoizer.with_bounds
        n_threads, per_thread = 8, 400
        done = threading.Event()
        copies: list = []
        errors: list = []

        def insert(base):
            try:
                for i in range(per_thread):
                    table.insert((base, i), value)
            except Exception as err:  # pragma: no cover - the failure
                errors.append(err)

        def snapshot():
            try:
                while True:
                    copies.append(cache.memoizer.copy())
                    cache.save()
                    if done.is_set():
                        return
            except Exception as err:  # pragma: no cover - the failure
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=snapshot)] + [
                threading.Thread(target=insert, args=(t,))
                for t in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads[1:]:
                t.join(timeout=60)
            done.set()
            threads[0].join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(t.is_alive() for t in threads)
        assert errors == []
        final = dict(table.items())
        assert len(final) == n_threads * per_thread
        assert len(table.used) == n_threads * per_thread
        assert copies
        for copy in copies:
            assert dict(copy.with_bounds.items()).items() <= final.items()


class TestLruByteBound:
    def test_eviction_enforces_max_bytes(self, tmp_path):
        path = tmp_path / "serve-cache.json"
        big = ServeCache(path=path)
        full = _warm(big)
        unbounded = big.save()
        assert unbounded > 0

        limit = unbounded // 2
        bounded = ServeCache(path=tmp_path / "bounded.json", max_bytes=limit)
        _warm(bounded)
        written = bounded.save()
        assert written <= limit
        assert bounded.registry.get("serve.cache.evicted") > 0
        # Eviction shrank the in-process tables too, not just the image.
        assert bounded.entry_count() < full

    def test_least_recently_used_evicted_first(self, tmp_path):
        path = tmp_path / "serve-cache.json"
        cache = ServeCache(path=path)
        _warm(cache)
        table = cache.memoizer.with_bounds
        by_recency = sorted(table.used, key=table.used.__getitem__)
        oldest, newest = by_recency[0], by_recency[-1]

        cache.max_bytes = cache.save() - 1  # force at least one eviction
        cache.save()
        assert oldest not in table.used
        assert newest in table.used


class TestSingleFlight:
    def test_identical_inflight_queries_coalesce(self):
        flight = SingleFlight()
        calls = 0

        async def main():
            async def thunk():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.02)
                return "answer"

            results = await asyncio.gather(
                *(flight.run("key", thunk) for _ in range(5))
            )
            return results

        results = asyncio.run(main())
        assert results == ["answer"] * 5
        assert calls == 1
        assert flight.registry.get("serve.coalesced") == 4
        assert len(flight) == 0  # key released once settled

    def test_distinct_keys_do_not_coalesce(self):
        flight = SingleFlight()
        calls = 0

        async def main():
            async def thunk():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.01)
                return calls

            await asyncio.gather(
                flight.run("a", thunk), flight.run("b", thunk)
            )

        asyncio.run(main())
        assert calls == 2

    def test_followers_share_the_leaders_exception(self):
        flight = SingleFlight()

        async def main():
            async def thunk():
                await asyncio.sleep(0.02)
                raise ValueError("boom")

            results = await asyncio.gather(
                *(flight.run("key", thunk) for _ in range(3)),
                return_exceptions=True,
            )
            return results

        results = asyncio.run(main())
        assert all(isinstance(r, ValueError) for r in results)

    def test_sequential_calls_rerun(self):
        """Coalescing is concurrency-only: settled keys leave the table
        (the memo tier owns remembering)."""
        flight = SingleFlight()
        calls = 0

        async def main():
            async def thunk():
                nonlocal calls
                calls += 1
                return calls

            first = await flight.run("key", thunk)
            second = await flight.run("key", thunk)
            return first, second

        assert asyncio.run(main()) == (1, 2)
