"""Thread-contention tests for the pipeline cache layers.

The serve tier (and before it, thread-executor campaigns) hammers one
shared `PipelineCaches` from many threads at once; these tests pin
down the locking contracts that the service's correctness rests on:
counters never tear, `__len__`/`__contains__` take the lock,
`get_or_compute` never hands two callers different values for one key
and counts exactly one miss per entry it creates, and
`SnapshotCache`'s record/hint registries return one instance per key
no matter how many threads race on first use.
"""

import sys
import threading
import time

from repro.pipeline.cache import ContentCache, PipelineCaches
from repro.runtime.snapshot import SnapshotCache

THREADS = 8
ROUNDS = 200


def _hammer(worker, threads=THREADS):
    """Start-gate N workers so they really contend, then join them."""
    gate = threading.Barrier(threads)
    errors = []

    def wrapped(index):
        try:
            gate.wait()
            worker(index)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert errors == []


class TestContentCacheContention:
    def test_get_or_compute_returns_one_value_per_key(self):
        cache = ContentCache()
        seen: dict[str, set[int]] = {f"k{i}": set() for i in range(4)}
        lock = threading.Lock()

        def worker(index):
            for round_ in range(ROUNDS):
                key = f"k{round_ % 4}"
                value = cache.get_or_compute(key, lambda: object())
                with lock:
                    seen[key].add(id(value))

        _hammer(worker)
        # Racing factories may *build* duplicates, but every caller
        # must observe a single winning instance per key.
        assert all(len(ids) == 1 for ids in seen.values())
        assert len(cache) == 4

    def test_stats_counters_are_consistent(self):
        cache = ContentCache()
        operations = THREADS * ROUNDS

        def worker(index):
            for round_ in range(ROUNDS):
                cache.get_or_compute(f"k{round_ % 16}", lambda: round_)

        _hammer(worker)
        stats = cache.stats
        assert stats.hits + stats.misses == operations
        assert stats.misses == 16  # one miss per key created
        assert len(cache) == 16

    def test_racing_factories_count_one_miss_per_key(self):
        """Factories run outside the lock, so racing callers build
        duplicates; only the caller whose value is kept counts a
        miss, every discarded racer a hit."""
        cache = ContentCache()
        builds = []
        inside = threading.Barrier(THREADS)

        def factory():
            builds.append(1)
            inside.wait(timeout=30)  # every racer is in its factory
            return object()

        _hammer(lambda index: cache.get_or_compute("k", factory))
        assert len(builds) == THREADS
        assert (cache.stats.misses, cache.stats.hits) == (1, THREADS - 1)
        assert len(cache) == 1

    def test_get_put_storm(self):
        cache = ContentCache()

        def worker(index):
            for round_ in range(ROUNDS):
                key = f"k{(index + round_) % 8}"
                cache.put(key, (index, round_))
                cache.get_or_compute(key, object)  # present: a hit

        _hammer(worker)
        stats = cache.stats
        assert (stats.hits, stats.misses) == (THREADS * ROUNDS, 0)
        assert len(cache) == 8

    def test_len_and_contains_under_writer_churn(self):
        """len()/containment lock against concurrent dict mutation
        instead of reading a resizing dict; with no deletions, the
        count a reader sees never falls."""
        cache = ContentCache()
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set() and i < 100_000:
                cache.put(f"w{i}", i)
                i += 1

        churn = threading.Thread(target=writer)
        churn.start()
        try:
            deadline = time.monotonic() + 0.5
            last = 0
            while time.monotonic() < deadline:
                count = len(cache)
                assert last <= count <= 100_000
                last = count
                assert isinstance("w0" in cache, bool)
        finally:
            stop.set()
            churn.join()

    def test_absorb_stats_sums_exactly(self):
        cache = ContentCache()

        def worker(index):
            for _ in range(ROUNDS):
                cache.stats.absorb({"hits": 1, "misses": 2})

        _hammer(worker)
        assert cache.stats.hits == THREADS * ROUNDS
        assert cache.stats.misses == 2 * THREADS * ROUNDS

    def test_peek_does_not_touch_counters_under_load(self):
        cache = ContentCache()
        cache.put("k", "v")

        def worker(index):
            for _ in range(ROUNDS):
                assert cache.peek("k") == "v"

        _hammer(worker)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0


class TestSnapshotCacheContention:
    def test_record_for_returns_one_record_per_key(self):
        cache = SnapshotCache()
        seen: dict[str, set[int]] = {}
        lock = threading.Lock()

        def worker(index):
            for round_ in range(ROUNDS):
                key = f"boot{round_ % 8}"
                record = cache.record_for(key)
                with lock:
                    seen.setdefault(key, set()).add(id(record))

        _hammer(worker)
        assert all(len(ids) == 1 for ids in seen.values())
        assert len(cache) == 8
        # One miss per key (the lookup that created the record), a hit
        # for every other lookup.
        assert cache.stats.misses == 8
        assert cache.stats.hits + cache.stats.misses == THREADS * ROUNDS

    def test_hint_for_returns_one_hint_per_key(self):
        cache = SnapshotCache()
        seen: set[int] = set()
        lock = threading.Lock()

        def worker(index):
            for round_ in range(ROUNDS):
                hint = cache.hint_for("mysql", f"fp{round_ % 4}")
                with lock:
                    seen.add(id(hint))

        _hammer(worker)
        assert len(seen) == 4

    def test_absorb_boot_stats_sums_exactly(self):
        caches = PipelineCaches()

        def worker(index):
            for round_ in range(ROUNDS):
                caches.snapshots.record_for(f"boot{round_ % 8}")
                caches.absorb(
                    {
                        "launches": {"hits": 2},
                        "snapshots": {"boots": 1, "resumes": 3},
                    }
                )

        _hammer(worker)
        cache = caches.snapshots
        snapshot = cache.boot_stats.snapshot()
        assert snapshot["boots"] == THREADS * ROUNDS
        assert snapshot["resumes"] == 3 * THREADS * ROUNDS
        # Absorbed deltas and the store's own lookups never tear.
        assert cache.stats.misses == 8
        assert cache.stats.hits == 3 * THREADS * ROUNDS - 8


class TestPipelineCachesContention:
    def test_stats_snapshot_under_concurrent_mutation(self):
        caches = PipelineCaches()

        def worker(index):
            for round_ in range(ROUNDS):
                caches.checkers.get_or_compute(
                    f"c{round_ % 8}", lambda: round_
                )
                caches.snapshots.record_for(f"s{round_ % 8}")
                stats = caches.stats()
                assert set(stats) == {
                    "inference",
                    "launches",
                    "checkers",
                    "snapshots",
                }

        _hammer(worker)
        checkers = caches.checkers.stats
        assert checkers.hits + checkers.misses == THREADS * ROUNDS
        launches = caches.stats()["launches"]
        assert launches["hits"] + launches["misses"] == THREADS * ROUNDS

    def test_stats_returns_own_counters_beside_another_instance(self):
        """Two instances publish to the one process-wide registry; each
        `stats()` must still return its own counters, however the two
        threads interleave."""
        calls = 20_000
        pair = []
        for misses in (1, 5):
            caches = PipelineCaches()
            for index in range(misses):
                caches.checkers.get_or_compute(f"absent{index}", object)
            pair.append(caches)
        wrong = [0, 0]
        finished = [False, False]
        gate = threading.Barrier(2)

        def worker(index):
            caches = pair[index]
            expected = caches.checkers.stats.misses
            gate.wait(timeout=30)
            for _ in range(calls):
                if caches.stats()["checkers"]["misses"] != expected:
                    wrong[index] += 1
            finished[index] = True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert finished == [True, True]
        assert wrong == [0, 0]

    def test_shared_caches_between_services_count_once(self):
        """Two consumers sharing one `PipelineCaches` see one compile
        (the serve warm-up contract: N services, one checker build)."""
        caches = PipelineCaches()
        builds = []

        def build():
            builds.append(1)
            return object()

        def worker(index):
            for _ in range(ROUNDS):
                caches.checkers.get_or_compute("one-key", build)

        _hammer(worker)
        # Duplicated builds are allowed only for the first racing wave
        # (factories run outside the lock); the stored value is unique.
        value = caches.checkers.peek("one-key")
        assert value is caches.checkers.peek("one-key")
        assert len(builds) <= THREADS
