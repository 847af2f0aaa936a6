"""Tests for the content-addressed verdict cache: fingerprints,
round-trips, corruption tolerance, concurrent writers, the LRU size
cap, and invalidation."""

import os
import pickle
import threading
import time
from types import SimpleNamespace

from repro.analysis import (CACHE_SCHEMA_VERSION, code_fingerprint,
                            subgoal_fingerprint)
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS
from repro.verify.cache import (STALE_LOCK_SECONDS, VerdictCache,
                                open_cache)
from repro.verify.engine import Verifier


def wire_like(outcome="VERIFIED", padding=0):
    """The minimal shape the cache's sanity check accepts."""
    return SimpleNamespace(outcome=outcome, stats={"max_states": 3},
                           blob="x" * padding)


def typed(name):
    return check_program(parse_program(ALL_PROGRAMS[name]))


class TestVerdictCacheStore:
    def test_round_trip(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        cache.store("abc123", wire_like())
        wire = cache.lookup("abc123")
        assert wire.outcome == "VERIFIED"
        assert wire.stats == {"max_states": 3}

    def test_absent_entry_is_a_miss(self, tmp_path):
        assert VerdictCache(str(tmp_path)).lookup("missing") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        cache.store("abc123", wire_like())
        with open(cache._path("abc123"), "wb") as handle:
            handle.write(b"\x80\x04not a pickle")
        assert cache.lookup("abc123") is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        cache.store("abc123", wire_like())
        path = cache._path("abc123")
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        assert cache.lookup("abc123") is None

    def test_foreign_object_is_a_miss(self, tmp_path):
        # A well-formed pickle of the wrong type must not surface
        # later as an attribute error inside the engine.
        cache = VerdictCache(str(tmp_path))
        os.makedirs(cache.directory)
        with open(cache._path("abc123"), "wb") as handle:
            pickle.dump({"outcome": "VERIFIED"}, handle)
        assert cache.lookup("abc123") is None

    def test_unwritable_root_fails_silently(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        cache = VerdictCache(str(blocker / "cache"))
        cache.store("abc123", wire_like())  # must not raise
        assert cache.lookup("abc123") is None

    def test_directory_is_versioned_by_schema_and_code(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        name = os.path.basename(cache.directory)
        assert name == (f"v{CACHE_SCHEMA_VERSION}-"
                        f"{code_fingerprint()}")

    def test_open_cache_none_disables(self):
        assert open_cache(None) is None
        assert open_cache("/tmp/somewhere") is not None


def _age(path, seconds):
    """Backdate a file's mtime by ``seconds``."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestConcurrentStores:
    """A serving daemon has many workers storing at once; two
    simultaneous stores of one fingerprint must never interleave into
    a corrupt entry."""

    def test_simultaneous_stores_never_corrupt(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        writers = 4
        rounds = 25
        barrier = threading.Barrier(writers)
        failures = []

        def hammer():
            try:
                for round_index in range(rounds):
                    barrier.wait(timeout=30)
                    cache.store(f"fp-{round_index}", wire_like())
            except Exception as exc:  # noqa: BLE001 — report, not die
                failures.append(exc)

        threads = [threading.Thread(target=hammer)
                   for _ in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not failures
        # Every fingerprint that made it to disk reads back intact —
        # a contended store may skip, but never corrupt.
        stored = 0
        for round_index in range(rounds):
            wire = cache.lookup(f"fp-{round_index}")
            if wire is not None:
                stored += 1
                assert wire.outcome == "VERIFIED"
                assert wire.stats == {"max_states": 3}
        assert stored == rounds  # at least one writer won each round
        # No lock or temporary survives the melee.
        leftovers = [name for name in os.listdir(cache.directory)
                     if not name.endswith(".pkl")]
        assert leftovers == []

    def test_live_lock_skips_store(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        os.makedirs(cache.directory)
        lock = cache._path("abc123") + ".lock"
        with open(lock, "w"):
            pass
        cache.store("abc123", wire_like())  # contended: skipped
        assert cache.lookup("abc123") is None
        assert os.path.exists(lock)  # the holder's lock is untouched

    def test_stale_lock_swept_and_store_proceeds(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        os.makedirs(cache.directory)
        lock = cache._path("abc123") + ".lock"
        with open(lock, "w"):
            pass
        _age(lock, STALE_LOCK_SECONDS + 10)
        cache.store("abc123", wire_like())
        assert cache.lookup("abc123") is not None
        assert not os.path.exists(lock)

    def test_abandoned_temporaries_swept_by_cap_pass(self, tmp_path):
        cache = VerdictCache(str(tmp_path), max_mb=10.0)
        os.makedirs(cache.directory)
        orphan = cache._path("dead") + ".tmp"
        with open(orphan, "w") as handle:
            handle.write("half-written entry from a crashed worker")
        _age(orphan, STALE_LOCK_SECONDS + 10)
        cache.store("abc123", wire_like())
        assert not os.path.exists(orphan)


class TestSizeCap:
    """``max_mb`` turns the store into an LRU: hits refresh, the
    oldest entries are evicted first, live writers are respected."""

    PAD = 50_000  # ~50 KB per entry; the cap below fits two

    def _capped(self, tmp_path):
        return VerdictCache(str(tmp_path), max_mb=0.11)

    def test_oldest_entries_evicted_first(self, tmp_path):
        metrics = MetricsRegistry()
        set_metrics(metrics)
        try:
            cache = self._capped(tmp_path)
            for index, name in enumerate(("old", "mid", "new")):
                cache.store(name, wire_like(padding=self.PAD))
                _age(cache._path(name), 100 - index * 10)
            cache.store("newest", wire_like(padding=self.PAD))
            assert cache.lookup("old") is None
            assert cache.lookup("mid") is None
            assert cache.lookup("new") is not None
            assert cache.lookup("newest") is not None
            evicted = metrics.counter("verify.cache.evictions")
            assert evicted.value >= 2
        finally:
            set_metrics(None)

    def test_hit_refreshes_recency(self, tmp_path):
        cache = self._capped(tmp_path)
        cache.store("a", wire_like(padding=self.PAD))
        cache.store("b", wire_like(padding=self.PAD))
        _age(cache._path("a"), 100)
        _age(cache._path("b"), 50)
        assert cache.lookup("a") is not None  # refreshes a's mtime
        cache.store("c", wire_like(padding=self.PAD))
        assert cache.lookup("b") is None      # now the coldest: gone
        assert cache.lookup("a") is not None  # kept by the hit

    def test_locked_entry_survives_eviction(self, tmp_path):
        cache = self._capped(tmp_path)
        for name in ("old", "new"):
            cache.store(name, wire_like(padding=self.PAD))
        _age(cache._path("old"), 100)
        with open(cache._path("old") + ".lock", "w"):
            pass
        cache.store("newest", wire_like(padding=self.PAD))
        # The locked entry was skipped; the next-oldest went instead.
        assert cache.lookup("old") is not None
        assert cache.lookup("new") is None

    def test_uncapped_cache_never_evicts(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        for index in range(10):
            cache.store(f"fp-{index}", wire_like(padding=self.PAD))
        for index in range(10):
            assert cache.lookup(f"fp-{index}") is not None

    def test_open_cache_passes_cap_through(self, tmp_path):
        cache = open_cache(str(tmp_path), max_mb=2.5)
        assert cache.max_mb == 2.5

    def test_engine_accepts_cache_max_mb(self, tmp_path):
        program = typed("scan")
        result = Verifier(program, cache_dir=str(tmp_path),
                          cache_max_mb=64.0).verify()
        assert result.valid
        warm = Verifier(program, cache_dir=str(tmp_path),
                        cache_max_mb=64.0).verify()
        assert warm.cache_hits == len(warm.results)


class TestFingerprint:
    def test_options_change_the_fingerprint(self):
        program = typed("scan")
        args = (program.schema, program.body, ["a"], ["b"])
        assert subgoal_fingerprint(*args, ["slice=True"]) != \
            subgoal_fingerprint(*args, ["slice=False"])

    def test_obligations_change_the_fingerprint(self):
        program = typed("scan")
        base = (program.schema, program.body)
        assert subgoal_fingerprint(*base, ["a"], ["b"], []) != \
            subgoal_fingerprint(*base, ["a"], ["c"], [])

    def test_line_numbers_do_not(self):
        # Reflowing a program (blank line before the body) must not
        # move any subgoal out of the cache.
        source = ALL_PROGRAMS["reverse"]
        reflowed = source.replace("begin", "begin\n", 1)
        first = typed("reverse")
        second = check_program(parse_program(reflowed))
        args = (["a"], ["b"], [])
        assert subgoal_fingerprint(first.schema, first.body, *args) \
            == subgoal_fingerprint(second.schema, second.body, *args)


class TestEngineCaching:
    def test_cold_then_warm_run(self, tmp_path):
        program = typed("scan")
        cold = Verifier(program, cache_dir=str(tmp_path)).verify()
        assert cold.valid
        assert cold.cache_hits == 0
        warm = Verifier(program, cache_dir=str(tmp_path)).verify()
        assert warm.valid
        assert warm.cache_hits == len(warm.results)
        for before, after in zip(cold.results, warm.results):
            assert before.outcome is after.outcome
            assert before.stats.max_states == after.stats.max_states
            assert before.variable_order == after.variable_order

    def test_corrupted_store_degrades_to_cold(self, tmp_path):
        program = typed("scan")
        cache = open_cache(str(tmp_path))
        Verifier(program, cache_dir=str(tmp_path)).verify()
        entries = os.listdir(cache.directory)
        assert entries
        for name in entries:
            with open(os.path.join(cache.directory, name),
                      "wb") as handle:
                handle.write(b"garbage")
        rerun = Verifier(program, cache_dir=str(tmp_path)).verify()
        assert rerun.valid
        assert rerun.cache_hits == 0

    def test_option_change_invalidates(self, tmp_path):
        program = typed("scan")
        Verifier(program, cache_dir=str(tmp_path)).verify()
        other = Verifier(program, cache_dir=str(tmp_path),
                         slice=False).verify()
        assert other.valid
        assert other.cache_hits == 0

    def test_no_cache_dir_stores_nothing(self, tmp_path):
        program = typed("scan")
        result = Verifier(program).verify()
        assert result.cache_hits == 0
        for subgoal_result in result.results:
            assert subgoal_result.cache is None
        assert os.listdir(str(tmp_path)) == []

    def test_failing_program_verdict_cached_too(self, tmp_path):
        program = typed("swap")
        cold = Verifier(program, cache_dir=str(tmp_path),
                        simulate=False).verify()
        assert not cold.valid
        warm = Verifier(program, cache_dir=str(tmp_path),
                        simulate=False).verify()
        assert not warm.valid
        assert warm.cache_hits == len(warm.results)
        assert (warm.counterexample is None) == \
            (cold.counterexample is None)
