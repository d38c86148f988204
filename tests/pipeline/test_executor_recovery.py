"""Supervised execution (`map_resilient`): retry, watchdog timeouts,
quarantine — on the serial and thread executors.  Worker-death
recovery on the process executor lives in `test_worker_death.py`
(multicore-gated)."""

import threading

import pytest

from repro.chaos import ChaosError, ChaosSchedule
from repro.pipeline.cache import PipelineCaches
from repro.pipeline.executor import (
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
)
from repro.resilience import FailedShard, RetryPolicy

FAST = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.005)


class _FlakyOnce:
    """Fails each item's first invocation, succeeds afterwards.
    Thread-safe so the thread executor can share one instance."""

    def __init__(self, exc_factory=None):
        self._seen = set()
        self._lock = threading.Lock()
        self._exc_factory = exc_factory or (
            lambda item: RuntimeError(f"flaky {item}")
        )

    def __call__(self, item):
        with self._lock:
            first = item not in self._seen
            self._seen.add(item)
        if first:
            raise self._exc_factory(item)
        return item * 10


class TestSerialSupervision:
    def test_plain_success_needs_no_retries(self):
        result = SerialExecutor().map_resilient(
            lambda x: x + 1, [1, 2, 3], FAST
        )
        assert result.results == [2, 3, 4]
        assert result.ok and result.retries == 0

    def test_transient_failures_retry_to_success(self):
        result = SerialExecutor().map_resilient(
            _FlakyOnce(), [1, 2, 3], FAST, label="t"
        )
        assert result.results == [10, 20, 30]
        assert result.ok
        assert result.retries == 3  # one retry per item

    def test_persistent_failure_quarantines(self):
        def boom(item):
            raise ValueError(f"always bad: {item}")

        result = SerialExecutor().map_resilient(
            boom, ["a", "b"], FAST, label="q"
        )
        assert result.results == [None, None]
        assert not result.ok
        assert [f.label for f in result.failures] == ["q:0", "q:1"]
        for failure in result.failures:
            assert isinstance(failure, FailedShard)
            assert failure.attempts == FAST.max_attempts
            assert failure.error_kind == "ValueError"

    def test_quarantine_keeps_healthy_siblings(self):
        def half(item):
            if item % 2:
                raise RuntimeError("odd one out")
            return item

        result = SerialExecutor().map_resilient(
            half, [0, 1, 2, 3], FAST
        )
        assert result.results == [0, None, 2, None]
        assert result.completed() == [0, 2]
        assert [f.index for f in result.failures] == [1, 3]

    def test_chaos_faults_surface_as_chaos_error(self):
        chaos = ChaosSchedule(seed=0, error_rate=1.0)
        result = SerialExecutor().map_resilient(
            lambda x: x, [1], RetryPolicy(max_attempts=2, base_delay=0.001),
            chaos=chaos, label="c",
        )
        assert result.results == [None]
        assert result.failures[0].error_kind == "ChaosError"

    def test_chaos_retry_key_includes_attempt(self):
        # Find a seed whose error fires on attempt 1 but not attempt 2
        # of shard c:0 — the recovery path in one deterministic run.
        for seed in range(256):
            schedule = ChaosSchedule(seed=seed, error_rate=0.5)
            if schedule.should("error", "c:0|a1") and not schedule.should(
                "error", "c:0|a2"
            ):
                break
        else:  # pragma: no cover - 2^-256 unlucky
            pytest.fail("no seed found")
        result = SerialExecutor().map_resilient(
            lambda x: x * 2, [21], FAST, chaos=schedule, label="c"
        )
        assert result.results == [42]
        assert result.ok and result.retries == 1


class TestThreadSupervision:
    def test_transient_failures_retry_to_success(self):
        result = ThreadExecutor(max_workers=2).map_resilient(
            _FlakyOnce(), [1, 2, 3, 4], FAST, label="t"
        )
        assert result.results == [10, 20, 30, 40]
        assert result.ok
        assert result.retries >= 4

    def test_watchdog_timeout_recovers_on_retry(self):
        stalls = []
        lock = threading.Lock()

        def stall_first(item):
            with lock:
                first = not stalls
                stalls.append(item)
            if first:
                # Longer than the watchdog: the supervisor abandons
                # the pool; this thread finishes in the background and
                # its result is discarded.
                import time

                time.sleep(0.4)
            return item

        policy = RetryPolicy(
            max_attempts=3, base_delay=0.001, max_delay=0.005, timeout=0.1
        )
        result = ThreadExecutor(max_workers=1).map_resilient(
            stall_first, [7], policy, label="w"
        )
        assert result.results == [7]
        assert result.ok and result.retries == 1

    def test_watchdog_exhaustion_quarantines_as_timeout(self):
        def always_stall(item):
            import time

            time.sleep(0.3)
            return item

        policy = RetryPolicy(
            max_attempts=2, base_delay=0.001, max_delay=0.005, timeout=0.05
        )
        result = ThreadExecutor(max_workers=1).map_resilient(
            always_stall, [1], policy, label="w"
        )
        assert result.results == [None]
        assert result.failures[0].error_kind == "timeout"
        assert "watchdog" in result.failures[0].detail

    def test_shard_raised_timeout_error_is_a_failure_not_a_stall(self):
        # A shard *raising* TimeoutError is an organic failure: it must
        # count against the retry budget, not read as a watchdog blow.
        def raises_timeout(item):
            raise TimeoutError("the shard itself timed out")

        policy = RetryPolicy(
            max_attempts=2, base_delay=0.001, max_delay=0.005, timeout=5.0
        )
        result = ThreadExecutor(max_workers=1).map_resilient(
            raises_timeout, [1], policy
        )
        assert result.failures[0].error_kind == "TimeoutError"
        assert result.failures[0].detail == "shard raised"


class TestFailFast:
    """`policy=None`: one attempt per shard, and the first failure in
    input order re-raises as the very exception the shard raised."""

    @pytest.mark.parametrize("name", ["serial", "thread"])
    def test_first_failure_in_input_order_reraises(self, name):
        def pick(item):
            if item == 2:
                raise KeyError("second")
            if item == 3:
                raise ValueError("third")
            return item

        with pytest.raises(KeyError, match="second"):
            resolve_executor(name, 2).map_resilient(pick, [1, 2, 3])

    @pytest.mark.parametrize("caches", [None, PipelineCaches()],
                             ids=["no-caches", "caches"])
    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_chaos_without_policy_raises_chaos_error(self, name, caches):
        # A lone process shard runs inline in this process, so a fired
        # kill must degrade to ChaosError instead of a SIGKILL - also
        # when the shard runs with the caller's stores bound.
        chaos = ChaosSchedule(seed=0, kill_rate=1.0)
        with pytest.raises(ChaosError, match="simulated worker kill"):
            resolve_executor(name, 2).map_resilient(
                abs, [-1], chaos=chaos, caches=caches
            )


class TestResilienceCounters:
    def test_retries_and_quarantines_are_counted(self):
        from repro.obs import get_registry

        registry = get_registry()
        before = registry.snapshot()["counters"]

        def boom(item):
            raise RuntimeError("x")

        SerialExecutor().map_resilient(
            boom, [1], RetryPolicy(max_attempts=2, base_delay=0.001)
        )
        after = registry.snapshot()["counters"]

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("resilience.retries") == 1
        assert delta("resilience.quarantined") == 1
        assert delta("resilience.shard_failures") == 2


class TestResolveStillWorks:
    @pytest.mark.parametrize("name", ["serial", "thread"])
    def test_every_executor_exposes_map_resilient(self, name):
        executor = resolve_executor(name, 2)
        result = executor.map_resilient(lambda x: -x, [1, 2], FAST)
        assert result.results == [-1, -2]
