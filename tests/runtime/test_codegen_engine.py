"""Unit tier for the source-codegen launch engine and the zero-copy
snapshot machinery it ships with.

The differential contract (codegen == tree on every observable
channel) lives in `test_engine_parity` and `test_engine_fuzz`; this
file pins the codegen engine's own guarantees: engine selection,
deterministic generated source,
correct fault/budget semantics on crafted programs, and snapshot
capture/resume under the codegen engine.
"""

import pytest

from repro.lang.program import Program
from repro.runtime.codegen import (
    CodegenPlan,
    codegen_plan_for,
    compile_codegen,
    generate_source,
)
from repro.runtime.builtins import REGISTRY
from repro.runtime.interpreter import (
    Interpreter,
    InterpreterError,
    InterpreterOptions,
)
from repro.runtime.os_model import EmulatedOS
from repro.runtime.process import ProcessStatus, run_program
from repro.runtime.snapshot import (
    BootRecord,
    BootStats,
    StateBundleCopier,
    _scan_fixups,
    boot_launch,
)
from repro.runtime.values import ArrayValue, Pointer, VarSlot
from repro.systems.registry import get_system, system_names


def _program(source: str) -> Program:
    return Program.from_sources({"main.c": source})


def _run(source_or_program, argv=None, max_steps=2_000_000):
    program = (
        source_or_program
        if isinstance(source_or_program, Program)
        else _program(source_or_program)
    )
    options = InterpreterOptions(
        max_steps=max_steps, engine="codegen", warm_boot=False
    )
    return run_program(program, argv=argv, options=options)


class TestGeneratedSource:
    def test_same_program_instance_is_memoized(self):
        program = _program("int main() { return 3; }")
        assert codegen_plan_for(program) is codegen_plan_for(program)

    def test_identical_sources_generate_identical_text(self):
        source = """
        struct pair { int a; int b; };
        struct pair box = { 1, 2 };
        int add(int x, int y) { return x + y; }
        int main() {
            int i;
            int total = 0;
            for (i = 0; i < 5; i++) { total = add(total, box.a + i); }
            switch (total) { case 15: return 1; default: return total; }
        }
        """
        first = generate_source(_program(source))
        second = generate_source(_program(source))
        assert first == second

    def test_generation_is_repeatable_on_one_program(self):
        program = get_system("vsftpd").program()
        assert generate_source(program) == generate_source(program)

    def test_compiled_plan_shape(self):
        program = _program(
            "int helper() { return 1; }\n"
            "int main() { return helper(); }"
        )
        plan = compile_codegen(program)
        assert isinstance(plan, CodegenPlan)
        assert "helper" in plan.invokes
        assert "main" in plan.invokes
        assert plan.main_steps  # stepwise runners for snapshot boots


class TestLoweringTimeFacts:
    """What lowering binds once instead of looking up per step."""

    @pytest.mark.parametrize("name", system_names())
    def test_builtin_calls_are_bound(self, name):
        source = generate_source(get_system(name).program())
        assert "_call_builtin(" not in source

    def test_never_declared_global_loads_skip_the_locals(self):
        source = generate_source(_program(
            "int limit = 7;\n"
            "int main() { return limit; }"
        ))
        body = source[source.index("def _fn_main"):]
        assert "rt.globals.get('limit', _M)" in body
        assert "L.get" not in body

    def test_undefined_call_raises_when_run_not_when_lowered(self):
        source = (
            "int helper() { return missing(1); }\n"
            "int main() { int x = 1; x = x + 2; return helper(); }"
        )
        compile_codegen(_program(source))  # lowering does not raise
        outcomes = []
        for engine in InterpreterOptions.ENGINES:
            program = _program(source)
            options = InterpreterOptions(engine=engine, warm_boot=False)
            plan = codegen_plan_for(program) if engine == "codegen" else None
            interp = Interpreter(program, options=options, plan=plan)
            with pytest.raises(InterpreterError) as raised:
                interp.run_main()
            outcomes.append((str(raised.value), interp.steps))
        assert outcomes[0] == outcomes[1]
        assert "call to undefined function 'missing'" in outcomes[0][0]

    @pytest.mark.parametrize("engine", InterpreterOptions.ENGINES)
    def test_name_declared_twice_wraps_by_its_dynamic_type(self, engine):
        result = run_program(
            _program(
                """
                int main() {
                    int i;
                    for (i = 0; i < 2; i++) {
                        if (i == 0) { int v = 0; v = 300; v++; printf("%d\\n", v); }
                        else { char v = 0; v = 300; v++; printf("%d\\n", v); }
                    }
                    v += 200;
                    return v;
                }
                """
            ),
            options=InterpreterOptions(engine=engine, warm_boot=False),
        )
        assert [str(record) for record in result.logs] == [
            "[stdout] 301",
            "[stdout] 45",
        ]
        assert result.status is ProcessStatus.EXITED
        assert result.exit_code == -11  # 45 + 200 wrapped to a char


class TestEngineSelection:
    def test_codegen_is_the_default_engine(self):
        assert InterpreterOptions().engine == "codegen"
        assert InterpreterOptions.ENGINES == ("tree", "codegen")

    @pytest.mark.parametrize("engine", ["codgen", "compiled", "", "TREE"])
    def test_unknown_engine_names_are_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown launch engine"):
            InterpreterOptions(engine=engine)

    def test_harness_override_is_validated(self):
        from repro.inject.harness import InjectionHarness

        system = get_system("vsftpd")
        with pytest.raises(ValueError, match="codgen"):
            InjectionHarness(system, engine="codgen")
        harness = InjectionHarness(system, engine="tree")
        assert harness.options.engine == "tree"


class TestCraftedSemantics:
    def test_null_deref_faults(self):
        result = _run("int main() { int *p = NULL; return *p; }")
        assert result.status is ProcessStatus.CRASHED
        assert result.fault_signal == "SIGSEGV"

    def test_step_budget_stops_at_the_exact_tick(self):
        result = _run(
            "int main() { while (1) { } return 0; }", max_steps=400
        )
        assert result.status is ProcessStatus.HUNG
        assert result.steps == 401

    def test_switch_fallthrough(self):
        result = _run(
            """
            int main() {
                int score = 0;
                switch (2) {
                case 1: score += 1;
                case 2: score += 10;
                case 3: score += 100; break;
                case 4: score += 1000;
                }
                return score;
            }
            """
        )
        assert result.exit_code == 110

    def test_function_pointer_dispatch(self):
        result = _run(
            """
            int twice(int x) { return x * 2; }
            struct op { void *fn; };
            struct op table = { twice };
            int main() {
                return table.fn(21);
            }
            """
        )
        assert result.exit_code == 42

    def test_null_function_pointer_faults(self):
        result = _run(
            """
            struct op { void *fn; };
            struct op table = { NULL };
            int main() {
                return table.fn(1);
            }
            """
        )
        assert result.status is ProcessStatus.CRASHED
        assert result.fault_signal == "SIGSEGV"

    def test_static_locals_persist_across_calls(self):
        result = _run(
            """
            int bump() { static int n = 0; n += 1; return n; }
            int main() { bump(); bump(); return bump(); }
            """
        )
        assert result.exit_code == 3

    def test_recursion_overflow_faults(self):
        result = _run(
            """
            int spin(int n) { return spin(n + 1); }
            int main() { return spin(0); }
            """
        )
        assert result.status is ProcessStatus.CRASHED
        assert result.fault_signal == "SIGSEGV"


class TestCodegenSnapshots:
    """Snapshot capture and resume driven by the codegen engine."""

    def _boot(self, system, record, stats, requests=None):
        options = InterpreterOptions(
            max_steps=400_000, max_virtual_seconds=120.0, engine="codegen"
        )

        def make_os():
            os_model = system.make_os()
            system.install_config(os_model, system.default_config)
            return os_model

        return boot_launch(
            system.program(),
            make_os,
            [system.name, system.config_path],
            options,
            record,
            requests=requests,
            stats=stats,
        )

    def test_capture_then_resume_is_identical(self):
        system = get_system("vsftpd")
        record = BootRecord()
        stats = BootStats()
        probe = self._boot(system, record, stats)
        capture = self._boot(system, record, stats)
        assert record.can_resume
        resumed = self._boot(system, record, stats)
        assert stats.resumes == 1
        for launch in (capture, resumed):
            assert launch.status is probe.status
            assert launch.exit_code == probe.exit_code
            assert launch.steps == probe.steps
            assert [str(r) for r in launch.logs] == [
                str(r) for r in probe.logs
            ]

    def test_resume_serves_requests(self):
        system = get_system("vsftpd")
        record = BootRecord()
        stats = BootStats()
        self._boot(system, record, stats)
        self._boot(system, record, stats)
        assert record.can_resume
        requests = system.tests[0].requests
        warm = self._boot(system, record, stats, requests=requests)
        cold_record = BootRecord()
        cold = self._boot(system, cold_record, BootStats(), requests=requests)
        assert warm.responses == cold.responses
        assert warm.steps == cold.steps

    def test_resumes_do_not_share_mutable_state(self):
        """Two launches resumed from one snapshot must not see each
        other's writes - the copy-on-write restore privatizes every
        mutable slot."""
        system = get_system("vsftpd")
        record = BootRecord()
        stats = BootStats()
        self._boot(system, record, stats)
        self._boot(system, record, stats)
        assert record.can_resume
        first = self._boot(system, record, stats)
        second = self._boot(system, record, stats)
        assert first.steps == second.steps
        assert [str(r) for r in first.logs] == [str(r) for r in second.logs]


class TestCopyStateBundle:
    def test_mutable_containers_are_privatized(self):
        inner = {"k": [1, 2]}
        state = {"globals": inner, "alias": inner}
        copied = StateBundleCopier(state).copy()
        assert copied["globals"] is not inner
        # Aliasing is preserved: both keys still point at one dict.
        assert copied["globals"] is copied["alias"]
        copied["globals"]["k"].append(3)
        assert inner["k"] == [1, 2]

    def test_atomic_leaves_are_shared(self):
        state = {"name": "vsftpd", "count": 7, "flag": True, "none": None}
        copied = StateBundleCopier(state).copy()
        assert copied == state

    def test_pointer_among_zeros_is_privatized(self):
        """The all-zeros fast path must not wave through a list that is
        all zeros but one: the hidden pointer is copied, and retargeted
        at the copy's globals."""
        env = {"x": 5}
        items = [0] * 65536
        items[40_000] = Pointer(VarSlot(env, "x"))
        env["arena"] = ArrayValue(None, items)
        copied = StateBundleCopier({"globals": env}).copy()
        arena = copied["globals"]["arena"]
        assert arena.items is not items
        assert not arena.shared
        pointer = arena.items[40_000]
        assert pointer is not items[40_000]
        assert pointer.slot.env is copied["globals"]
        pointer.store(9)
        assert env["x"] == 5
        assert copied["globals"]["x"] == 9

    def test_all_zero_arrays_are_shared_not_copied(self):
        arena = ArrayValue(None, [0] * 65536)
        copier = StateBundleCopier({"globals": {"arena": arena}})
        copied = copier.copy()["globals"]["arena"]
        assert copied.items is arena.items
        assert copied.shared and arena.shared

    def test_forked_recipe_equals_a_fresh_scan(self):
        """`fork` translates the live scan through the copy memo; the
        result must be exactly what rescanning the private copy finds,
        on a synthetic bundle and on a real captured boot."""
        env = {"n": 1, "name": "x", "t": (1, "a")}
        env["p"] = Pointer(VarSlot(env, "n"))
        env["arr"] = ArrayValue(None, [0, 3, env["p"]])
        env["zeros"] = ArrayValue(None, [0] * 1024)
        env["nested"] = [[1, 2], {"k": env["p"]}, {3, 4}, (env["p"],)]
        live = {"globals": env, "statics": {("f", "s"): 2}}
        bundles = [StateBundleCopier(live).fork()]

        system = get_system("storage_a")
        record = BootRecord()

        def make_os():
            os_model = system.make_os()
            system.install_config(os_model, system.default_config)
            return os_model

        argv = [system.name, system.config_path]
        for _ in range(2):  # probe, then capture
            boot_launch(
                system.program(), make_os, argv,
                InterpreterOptions(max_steps=400_000), record,
            )
        assert record.can_resume
        bundles.append(record.snapshot.copier)
        assert record.snapshot.copier.state is record.snapshot.slim_state

        for forked in bundles:
            fresh: dict = {}
            _scan_fixups(forked.state, fresh, set())
            assert forked._fixups == fresh
            assert len(fresh) > 3

    def test_writes_stay_in_their_own_resume(self):
        """A resume's `set` or `memset` is invisible to its siblings
        and to the snapshot, although all of them start out sharing one
        list."""
        snapshot = StateBundleCopier(
            {"globals": {"buf": ArrayValue(None, [0, 5, 0, 0])}}
        ).fork()
        written, memset, clean = (
            snapshot.copy()["globals"]["buf"] for _ in range(3)
        )
        source = snapshot.state["globals"]["buf"]
        assert written.items is memset.items is clean.items is source.items
        written.set(3, 7)
        REGISTRY.get("memset")(None, [memset, 9, 2], None)
        assert written.items == [0, 5, 0, 7]
        assert memset.items == [9, 9, 0, 0]
        assert clean.items == source.items == [0, 5, 0, 0]
        assert snapshot.copy()["globals"]["buf"].items == [0, 5, 0, 0]

    def test_live_write_after_capture_does_not_leak(self):
        """Capture shares the live run's arrays with the snapshot; the
        live run keeps executing and must privatize before writing."""
        live = ArrayValue(None, [0, 5, 0, 0])
        snapshot = StateBundleCopier({"globals": {"buf": live}}).fork()
        assert snapshot.state["globals"]["buf"].items is live.items
        live.set(0, 1)
        REGISTRY.get("memset")(None, [live, 8, 4], None)
        assert live.items == [8, 8, 8, 8]
        assert snapshot.state["globals"]["buf"].items == [0, 5, 0, 0]
        assert snapshot.copy()["globals"]["buf"].items == [0, 5, 0, 0]


ARENA_SERVER = """
int *arena;
int boot() {
    arena = malloc(64);
    arena[1] = 5;
    return 0;
}
int main() {
    boot();
    char *req = recv_request();
    while (req != NULL) {
        if (strcmp(req, "set") == 0) {
            arena[3] = 7;
        }
        if (strcmp(req, "memset") == 0) {
            memset(arena, 9, 2);
        }
        send_response(sprintf("%d %d %d %d", arena[0], arena[1], arena[3], arena[63]));
        req = recv_request();
    }
    return 0;
}
"""


class TestCopyOnWriteResumes:
    """The shared-array invariant end to end: a captured `malloc` arena
    is shared by every resume, and no run's writes reach another."""

    def _launch(self, program, record, requests, stats=None):
        options = InterpreterOptions(warm_boot=record is not None)
        if record is None:
            os_model = EmulatedOS()
            os_model.queue_requests(requests)
            return run_program(program, os_model, options=options)
        return boot_launch(
            program, EmulatedOS, None, options, record,
            requests=requests, stats=stats,
        )

    def test_resumes_match_cold_runs_whatever_the_order(self):
        program = _program(ARENA_SERVER)
        record = BootRecord()
        stats = BootStats()
        # Probe, then a capture run whose live tail writes the arena
        # after the snapshot was taken.
        self._launch(program, record, ["set"], stats)
        self._launch(program, record, ["set", "memset"], stats)
        assert record.can_resume
        expected = {
            "get": ["0 5 0 0"],
            "set": ["0 5 7 0"],
            "memset": ["9 9 0 0"],
        }
        for request in ("get", "memset", "get", "set", "get", "set"):
            resumed = self._launch(program, record, [request], stats)
            cold = self._launch(program, None, [request])
            assert resumed.responses == cold.responses == expected[request]
            assert resumed.steps == cold.steps
        assert stats.resumes == 6
