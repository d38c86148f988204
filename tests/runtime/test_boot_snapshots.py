"""Warm-boot snapshot engine tests (`repro.runtime.snapshot`).

Replayed launches must be indistinguishable from cold launches - same
results, logs, responses, steps - while skipping the boot prefix.  The
crafted server below exercises the probe -> capture -> resume life
cycle directly; the harness tests cover the integration path the
injection campaigns use.
"""

import threading

import pytest

from repro.lang.program import Program
from repro.runtime.builtins import REGISTRY
from repro.runtime.interpreter import InterpreterOptions
from repro.runtime.os_model import EmulatedOS
from repro.runtime.process import ProcessStatus, run_program
from repro.runtime.snapshot import (
    BootRecord,
    BootStats,
    BoundaryHint,
    boot_launch,
)
from repro.inject.harness import InjectionHarness
from repro.systems.registry import get_system, system_names

SERVER = """
int booted = 0;
int boot(char *path) {
    void *fp = fopen(path, "r");
    if (fp == NULL) {
        fprintf(stderr, "cannot open config\\n");
        return 0 - 1;
    }
    char *line = fgets(fp);
    if (line != NULL && strcmp(line, "mode=bad") == 0) {
        fprintf(stderr, "bad mode\\n");
        return 0 - 1;
    }
    booted = booted + 1;
    printf("booted\\n");
    return 0;
}
int serve() {
    char *req = recv_request();
    while (req != NULL) {
        send_response(req);
        req = recv_request();
    }
    return 0;
}
int main(int argc, char **argv) {
    if (boot(argv[1]) != 0) {
        return 1;
    }
    send_response("banner");
    serve();
    return 0;
}
"""


#: `&errno` taken during the boot prefix and written through after the
#: boundary: the pointer must reach the resumed run's errno.
ERRNO_ACROSS_BOOT = """
int *ep;
int main(int argc, char **argv) {
    ep = &errno;
    printf("boot\\n");
    recv_request();
    *ep = 7;
    printf("errno=%d\\n", errno);
    return 0;
}
"""


#: A custom builtin plants a value no copy can hold (a lock) in a
#: global during the boot prefix.
LOCK_PLANTED_AT_BOOT = """
int guard;
int main(int argc, char **argv) {
    plant_lock();
    printf("boot\\n");
    recv_request();
    return 0;
}
"""


def make_program():
    return Program.from_sources({"server.c": SERVER})


def make_os(config="mode=ok"):
    os_model = EmulatedOS()
    os_model.add_file("/etc/server.conf", config)
    return os_model


def options(engine="codegen"):
    return InterpreterOptions(engine=engine)


def cold(program, requests=None, config="mode=ok", engine="codegen"):
    os_model = make_os(config)
    if requests:
        os_model.queue_requests(requests)
    return run_program(
        program, os_model, argv=["server", "/etc/server.conf"],
        options=options(engine),
    )


def warm(program, record, requests=None, config="mode=ok", stats=None,
         hint=None, engine="codegen"):
    return boot_launch(
        program,
        lambda: make_os(config),
        ["server", "/etc/server.conf"],
        options(engine),
        record,
        requests=requests,
        stats=stats,
        hint=hint,
    )


def assert_same_result(a, b):
    assert a.status is b.status
    assert a.exit_code == b.exit_code
    assert a.fault_signal == b.fault_signal
    assert a.fault_reason == b.fault_reason
    assert [str(r) for r in a.logs] == [str(r) for r in b.logs]
    assert a.responses == b.responses
    assert a.steps == b.steps


class TestBootLifecycle:
    def test_probe_learns_boundary(self):
        program = make_program()
        record = BootRecord()
        result = warm(program, record)
        assert result.exited_ok
        assert record.probed
        # main: if(boot) / send_response / serve() / return - the
        # first poll happens inside serve(), statement index 2.
        assert record.boundary == 2
        assert record.snapshot is None  # no hint: probe only learns

    def test_capture_then_resume_bit_identical(self):
        program = make_program()
        record = BootRecord()
        stats = BootStats()
        warm(program, record, stats=stats)  # probe
        captured = warm(program, record, ["a", "b"], stats=stats)  # capture
        assert record.snapshot is not None
        assert stats.boots == 2 and stats.captures == 1
        resumed = warm(program, record, ["a", "b"], stats=stats)  # resume
        assert stats.resumes == 1
        assert_same_result(captured, resumed)
        assert_same_result(resumed, cold(program, ["a", "b"]))

    def test_boot_responses_survive_replay(self):
        """The boot prefix itself sends a banner response; a replayed
        launch must deliver it exactly like a cold one."""
        program = make_program()
        record = BootRecord()
        warm(program, record)
        warm(program, record, ["x"])
        resumed = warm(program, record, ["ping", "pong"])
        assert resumed.responses == ["banner", "ping", "pong"]
        assert_same_result(resumed, cold(program, ["ping", "pong"]))

    def test_failing_boot_never_snapshots(self):
        program = make_program()
        record = BootRecord()
        stats = BootStats()
        first = warm(program, record, config="mode=bad", stats=stats)
        assert first.exit_code == 1
        assert record.probed and record.boundary is None
        again = warm(program, record, ["req"], config="mode=bad", stats=stats)
        assert record.snapshot is None
        assert stats.resumes == 0
        assert_same_result(again, cold(program, ["req"], config="mode=bad"))

    def test_speculative_capture_with_hint(self):
        """With a boundary hint, a fresh config snapshots during its
        very first run (probe and capture merge)."""
        program = make_program()
        hint = BoundaryHint()
        stats = BootStats()
        first = BootRecord()
        warm(program, first, stats=stats, hint=hint)
        assert hint.index == 2
        second = BootRecord()
        warm(program, second, ["a"], config="mode=ok2", stats=stats, hint=hint)
        assert second.snapshot is not None  # captured on first sight
        resumed = warm(program, second, ["z"], config="mode=ok2", stats=stats)
        assert_same_result(resumed, cold(program, ["z"], config="mode=ok2"))

    def test_wrong_hint_discards_speculation(self):
        """A config that fails boot polls nowhere: the speculative
        snapshot taken at the hinted index must be discarded."""
        program = make_program()
        hint = BoundaryHint()
        good = BootRecord()
        warm(program, good, hint=hint)
        bad = BootRecord()
        warm(program, bad, config="mode=bad", hint=hint)
        assert bad.snapshot is None
        assert bad.boundary is None

    def test_tree_engine_snapshots_too(self):
        program = make_program()
        record = BootRecord()
        warm(program, record, engine="tree")
        warm(program, record, ["a"], engine="tree")
        assert record.snapshot is not None
        resumed = warm(program, record, ["a", "b"], engine="tree")
        assert_same_result(resumed, cold(program, ["a", "b"], engine="tree"))

    @pytest.mark.parametrize("engine", ["codegen", "tree"])
    def test_errno_pointer_reaches_the_resumed_run(self, engine):
        program = Program.from_sources({"errno.c": ERRNO_ACROSS_BOOT})
        record = BootRecord()
        stats = BootStats()
        launches = [
            warm(program, record, ["r"], stats=stats, engine=engine)
            for _ in range(3)  # probe, capture, resume
        ]
        assert stats.resumes == 1
        expected = cold(program, ["r"], engine=engine)
        assert "[stdout] errno=7" in [str(r) for r in expected.logs]
        for result in launches:
            assert_same_result(result, expected)

    @pytest.mark.parametrize("engine", ["codegen", "tree"])
    def test_uncopyable_boot_state_fails_the_capture_launch(
        self, engine, monkeypatch
    ):
        """The copier deep-copies values it does not know; one that
        even `copy.deepcopy` refuses fails the launch that captures
        it, on both engines (no fallback copy could hold it)."""

        def plant_lock(interp, args, loc):
            interp.globals["guard"] = threading.Lock()
            return 0

        # Registered before the program is lowered: codegen binds
        # builtins at lowering time.
        monkeypatch.setitem(REGISTRY.table, "plant_lock", plant_lock)
        program = Program.from_sources({"lock.c": LOCK_PLANTED_AT_BOOT})
        record = BootRecord()
        probe = warm(program, record, ["r"], engine=engine)
        assert probe.exited_ok
        assert record.boundary is not None and record.snapshot is None
        with pytest.raises(TypeError):
            warm(program, record, ["r"], engine=engine)  # the capture
        assert record.snapshot is None

    def test_steps_are_part_of_replayed_state(self):
        program = make_program()
        record = BootRecord()
        warm(program, record)
        warm(program, record, ["a"])
        resumed = warm(program, record, ["a"])
        assert resumed.steps == cold(program, ["a"]).steps > 0


class TestHarnessIntegration:
    def test_snapshot_and_plain_harness_agree_everywhere(self):
        for name in system_names():
            system = get_system(name)
            plain_options = InterpreterOptions(
                max_steps=400_000, max_virtual_seconds=120.0, warm_boot=False
            )
            snap = InjectionHarness(system)
            plain = InjectionHarness(system, options=plain_options)
            config = system.default_config
            assert_same_result(
                snap.launch(config), plain.launch(config)
            )
            for test in system.tests:
                assert_same_result(
                    snap.launch(config, test.requests),
                    plain.launch(config, test.requests),
                )

    def test_harness_resumes_across_tests(self):
        system = get_system("mysql")
        harness = InjectionHarness(system)
        config = system.default_config
        harness.launch(config)
        for test in system.tests:
            harness.launch(config, test.requests)
        stats = harness.boot_stats
        assert stats.resumes >= len(system.tests) - 1
        assert stats.boots <= 2

    def test_shared_snapshot_cache_across_harnesses(self):
        from repro.runtime.snapshot import SnapshotCache

        system = get_system("vsftpd")
        cache = SnapshotCache()
        config = system.default_config
        first = InjectionHarness(system, snapshot_cache=cache)
        first.launch(config)
        first.launch(config, system.tests[0].requests)
        second = InjectionHarness(system, snapshot_cache=cache)
        before = cache.boot_stats.resumes
        result = second.launch(config, system.tests[0].requests)
        assert cache.boot_stats.resumes == before + 1
        plain = InjectionHarness(
            system,
            options=InterpreterOptions(
                max_steps=400_000, max_virtual_seconds=120.0, warm_boot=False
            ),
        )
        assert_same_result(
            result, plain.launch(config, system.tests[0].requests)
        )

    def test_silent_violation_evidence_survives_resume(self):
        """Resumed startup results carry the effective config values a
        cold boot reads (the silent-violation path) - and no
        interpreter."""
        system = get_system("vsftpd")
        harness = InjectionHarness(system)
        config = system.default_config
        harness.launch(config)
        harness.launch(config, system.tests[0].requests)
        # A fresh startup launch of the same config resumes and must
        # still report every effective value.
        result = harness.launch(config)
        assert harness.boot_stats.resumes == 1
        assert result.interpreter is None
        cold = InjectionHarness(
            system,
            options=InterpreterOptions(
                max_steps=400_000, max_virtual_seconds=120.0, warm_boot=False
            ),
        ).launch(config)
        assert set(result.effective_values) == set(system.effective_locations)
        assert result.effective_values == cold.effective_values
