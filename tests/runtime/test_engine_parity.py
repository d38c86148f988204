"""Differential parity suite: the codegen engine vs the tree-walker.

The source-codegen engine (`repro.runtime.codegen`) must be
bit-identical to the tree-walking interpreter for every externally observable
channel SPEX-INJ reads: status, exit code, fault signal and reason,
fault location, logs, responses, and the *step count* (fault
classification is step-budget-sensitive, so steps are part of the
contract, not an implementation detail).

Warm-boot launches are part of the contract too: a launch resumed
from a boot snapshot must be bit-identical to a cold launch of the
same config, on every engine.
"""

from dataclasses import replace

import pytest

from repro.lang.program import Program
from repro.runtime.interpreter import InterpreterOptions
from repro.runtime.process import ProcessStatus, run_program
from repro.systems.registry import get_system, system_names

# The tree-walker is the reference; the codegen engine must match it.
ENGINES = ("tree", "codegen")


def assert_same_result(candidate, reference):
    assert candidate.status is reference.status
    assert candidate.exit_code == reference.exit_code
    assert candidate.fault_signal == reference.fault_signal
    assert candidate.fault_reason == reference.fault_reason
    assert str(candidate.fault_location) == str(reference.fault_location)
    assert [str(r) for r in candidate.logs] == [
        str(r) for r in reference.logs
    ]
    assert candidate.responses == reference.responses
    assert candidate.steps == reference.steps


def assert_all_same(results):
    reference = results[0]
    for candidate in results[1:]:
        assert_same_result(candidate, reference)


def run_all(source, argv=None, max_steps=2_000_000, max_virtual=600.0):
    program = Program.from_sources({"main.c": source})
    results = []
    for engine in ENGINES:
        options = InterpreterOptions(
            max_steps=max_steps,
            max_virtual_seconds=max_virtual,
            engine=engine,
            warm_boot=False,
        )
        results.append(run_program(program, argv=argv, options=options))
    assert_all_same(results)
    return results[0]


class TestCraftedProgramParity:
    def test_arithmetic_and_control_flow(self):
        result = run_all(
            """
            int main() {
                int total = 0;
                int i;
                for (i = 0; i < 10; i++) {
                    if (i % 2 == 0) { total += i; } else { total -= 1; }
                }
                while (total > 20) { total = total / 2; }
                do { total++; } while (total < 18);
                return total;
            }
            """
        )
        assert result.status is ProcessStatus.EXITED

    def test_switch_fallthrough_and_break(self):
        run_all(
            """
            int classify(int x) {
                int score = 0;
                switch (x) {
                case 1:
                    score += 1;
                case 2:
                    score += 2;
                    break;
                case 3:
                    score += 100;
                    break;
                default:
                    score = 0 - 1;
                }
                return score;
            }
            int main() {
                return classify(1) * 100 + classify(3) + classify(9) + 1;
            }
            """
        )

    def test_statics_structs_pointers_and_strings(self):
        run_all(
            """
            struct counter { int n; char *label; };
            struct counter box;
            int bump() {
                static int calls = 0;
                calls++;
                box.n = box.n + calls;
                return calls;
            }
            int main() {
                int i;
                char *name = "alpha";
                box.label = name + 2;
                for (i = 0; i < 4; i++) { bump(); }
                if (strcmp(box.label, "pha") != 0) { return 50; }
                return box.n;
            }
            """
        )

    def test_function_pointers_and_varargs(self):
        run_all(
            """
            int twice(int x) { return x * 2; }
            int thrice(int x) { return x * 3; }
            struct op { char *name; void *fn; };
            struct op ops[2] = { {"twice", twice}, {"thrice", thrice} };
            int main() {
                int i;
                int total = 0;
                for (i = 0; i < 2; i++) {
                    total += ops[i].fn(i + 4);
                }
                printf("total=%d\\n", total);
                return total;
            }
            """
        )

    def test_segfault_parity(self):
        result = run_all(
            """
            int main() {
                int *p = NULL;
                return *p;
            }
            """
        )
        assert result.status is ProcessStatus.CRASHED
        assert result.fault_signal == "SIGSEGV"

    def test_division_fault_parity(self):
        result = run_all(
            "int main() { int z = 0; return 7 / z; }"
        )
        assert result.fault_signal == "SIGFPE"

    def test_out_of_bounds_parity(self):
        result = run_all(
            """
            int table[3];
            int main() {
                int i;
                for (i = 0; i <= 3; i++) { table[i] = i; }
                return 0;
            }
            """
        )
        assert result.status is ProcessStatus.CRASHED

    def test_recursion_overflow_parity(self):
        result = run_all(
            """
            int spin(int n) { return spin(n + 1); }
            int main() { return spin(0); }
            """
        )
        assert result.status is ProcessStatus.CRASHED
        assert result.fault_signal == "SIGSEGV"

    def test_step_budget_exhaustion_same_step(self):
        result = run_all(
            "int main() { while (1) { } return 0; }",
            max_steps=500,
        )
        assert result.status is ProcessStatus.HUNG
        assert result.steps == 501  # all engines stop at the same tick

    def test_virtual_time_hang_parity(self):
        result = run_all(
            """
            int main() {
                while (1) { sleep(30); }
                return 0;
            }
            """,
            max_virtual=100.0,
        )
        assert result.status is ProcessStatus.HUNG

    def test_integer_wrap_and_casts(self):
        run_all(
            """
            int stored;
            int main() {
                long big = 9000000000;
                stored = (int)big;
                char c = (char)300;
                printf("%d %d\\n", stored, c);
                return sizeof(long) + sizeof(char);
            }
            """
        )

    def test_compound_assignment_and_ternary(self):
        run_all(
            """
            int main() {
                int x = 5;
                x += 3; x <<= 2; x |= 1; x %= 23;
                int y = x > 5 ? x - 5 : x + 5;
                return x * 10 + y;
            }
            """
        )

    def test_errno_and_file_io(self):
        run_all(
            """
            int main() {
                void *fp = fopen("/etc/missing.conf", "r");
                if (fp == NULL) {
                    fprintf(stderr, "open failed errno=%d\\n", errno);
                    return errno;
                }
                return 0;
            }
            """
        )


@pytest.mark.parametrize("name", system_names())
class TestSystemParity:
    """Every registered system: identical launches on every engine."""

    def _options(self, engine):
        return InterpreterOptions(
            max_steps=400_000,
            max_virtual_seconds=120.0,
            engine=engine,
            warm_boot=False,
        )

    def _launch(self, system, config, engine, requests=None):
        os_model = system.make_os()
        system.install_config(os_model, config)
        if requests:
            os_model.queue_requests(requests)
        return run_program(
            system.program(),
            os_model,
            argv=[system.name, system.config_path],
            options=self._options(engine),
        )

    def test_baseline_startup_and_tests(self, name):
        system = get_system(name)
        config = system.default_config
        assert_all_same(
            [self._launch(system, config, engine) for engine in ENGINES]
        )
        for test in system.tests:
            assert_all_same(
                [
                    self._launch(system, config, engine, test.requests)
                    for engine in ENGINES
                ]
            )

    def test_broken_config_parity(self, name):
        """Faulting and rejecting boots must match too - mangle every
        parameter of the vendor template in turn."""
        system = get_system(name)
        template = system.template_ar()
        for param in [e.name for e in template.entries][:10]:
            ar = template.clone()
            ar.set(param, "999999999999")
            config = ar.serialize()
            assert_all_same(
                [self._launch(system, config, engine) for engine in ENGINES]
            )

    def test_step_budget_regression_guard(self, name):
        """The per-launch instruction budget is part of the engine
        contract: every engine must consume *exactly* as many steps as
        a tree-walking boot, and a squeezed budget must hang all
        engines at the same tick."""
        system = get_system(name)
        config = system.default_config
        baselines = [
            self._launch(system, config, engine) for engine in ENGINES
        ]
        assert len({result.steps for result in baselines}) == 1
        squeezed_budget = baselines[0].steps // 2
        squeezed = [
            run_program(
                system.program(),
                self._broken_os(system, config),
                argv=[system.name, system.config_path],
                options=InterpreterOptions(
                    max_steps=squeezed_budget,
                    max_virtual_seconds=120.0,
                    engine=engine,
                    warm_boot=False,
                ),
            )
            for engine in ENGINES
        ]
        assert_all_same(squeezed)
        assert squeezed[0].status is ProcessStatus.HUNG
        assert squeezed[0].steps == squeezed_budget + 1

    @staticmethod
    def _broken_os(system, config):
        os_model = system.make_os()
        system.install_config(os_model, config)
        return os_model


@pytest.mark.parametrize("name", system_names())
class TestWarmBootParity:
    """Warm-boot (snapshot resume) launches are bit-identical to cold
    launches, per engine and across engines.

    Exercises the full snapshot protocol through the harness: the
    first launch probes the boot boundary, the second captures the
    copy-on-write snapshot mid-run, the third resumes from it.  All
    three must agree with each other and with every other engine.
    """

    def test_warm_equals_cold_on_every_engine(self, name):
        from repro.inject.harness import HARNESS_OPTIONS, InjectionHarness

        system = get_system(name)
        config = system.default_config
        requests = system.tests[0].requests if system.tests else None
        per_engine = []
        for engine in ENGINES:
            harness = InjectionHarness(
                system, options=replace(HARNESS_OPTIONS, engine=engine)
            )
            assert harness.options.warm_boot
            probe = harness.launch(config)  # cold: learns the boundary
            capture = harness.launch(config)  # cold: captures snapshot
            resumed = harness.launch(config)  # warm: resumes snapshot
            assert_same_result(capture, probe)
            assert_same_result(resumed, probe)
            if requests:
                # Warm boot then request replay, still bit-identical
                # to the cold run_program launch of the same test.
                warm_requests = harness.launch(config, requests)
                cold_os = system.make_os()
                system.install_config(cold_os, config)
                cold_os.queue_requests(requests)
                cold = run_program(
                    system.program(),
                    cold_os,
                    argv=[system.name, system.config_path],
                    options=harness.options,
                )
                assert_same_result(warm_requests, cold)
                per_engine.append((probe, warm_requests))
            else:
                per_engine.append((probe, resumed))
        assert_all_same([pair[0] for pair in per_engine])
        assert_all_same([pair[1] for pair in per_engine])
