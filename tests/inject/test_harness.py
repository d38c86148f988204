"""Reaction-classification edge cases of the injection harness:
stop-at-first-failure modes, pinpoint word-boundary matching, and
partial effective-value traversal (silent-violation evidence)."""

import pytest

from repro.core.constraints import BasicTypeConstraint
from repro.inject.generators import Misconfiguration
from repro.inject.harness import InjectionHarness
from repro.inject.reactions import ReactionCategory
from repro.lang.source import Location
from repro.runtime.os_model import LogRecord
from repro.runtime.process import ProcessResult, ProcessStatus
from repro.systems import get_system


def _misconf(param: str, value: str) -> Misconfiguration:
    return Misconfiguration(
        settings=((param, value),),
        constraint=BasicTypeConstraint(param, Location("t.c", 0, 0)),
        rule="test",
        description="test",
    )


def _result_with_logs(*lines: str) -> ProcessResult:
    return ProcessResult(
        status=ProcessStatus.EXITED,
        exit_code=0,
        logs=[LogRecord("stderr", line) for line in lines],
    )


class _StubAR:
    """Just enough of a ConfigAR for pinpointing: line lookups."""

    def __init__(self, lines: dict[str, int]):
        self._lines = lines

    def line_of(self, name):
        return self._lines.get(name)


@pytest.fixture(scope="module")
def openldap():
    return get_system("openldap")


@pytest.fixture(scope="module")
def failing_misconf():
    # sockbuf_max_incoming -1 starts cleanly but fails every
    # functional test (the Figure 7(c) shape).
    return _misconf("sockbuf_max_incoming", "-1")


class TestStopAtFirstFailure:
    def test_optimized_mode_stops_at_first_failure(
        self, openldap, failing_misconf
    ):
        harness = InjectionHarness(openldap, stop_at_first_failure=True)
        verdict = harness.test_misconfiguration(failing_misconf)
        assert verdict.reaction.category is ReactionCategory.FUNCTIONAL_FAILURE
        assert verdict.tests_run == 1
        assert len(verdict.failed_tests) == 1

    def test_full_suite_mode_drives_every_test(
        self, openldap, failing_misconf
    ):
        harness = InjectionHarness(openldap, stop_at_first_failure=False)
        verdict = harness.test_misconfiguration(failing_misconf)
        # The whole suite ran, and every failure was recorded.
        assert verdict.tests_run == len(openldap.tests)
        assert set(verdict.failed_tests) == {t.name for t in openldap.tests}

    def test_both_modes_agree_on_classification(
        self, openldap, failing_misconf
    ):
        stop = InjectionHarness(
            openldap, stop_at_first_failure=True
        ).test_misconfiguration(failing_misconf)
        full = InjectionHarness(
            openldap, stop_at_first_failure=False
        ).test_misconfiguration(failing_misconf)
        # Classification follows the first observed failure either way;
        # full-suite mode only adds coverage, never changes the verdict.
        assert full.reaction.category is stop.reaction.category
        assert full.reaction.failed_test == stop.reaction.failed_test
        assert full.failed_tests[0] == stop.failed_tests[0]
        assert full.tests_run > stop.tests_run

    def test_passing_misconf_identical_in_both_modes(self, openldap):
        # idletimeout is silently clamped: startup succeeds and every
        # functional test passes, so both modes run the full suite.
        misconf = _misconf("idletimeout", "0")
        stop = InjectionHarness(
            openldap, stop_at_first_failure=True
        ).test_misconfiguration(misconf)
        full = InjectionHarness(
            openldap, stop_at_first_failure=False
        ).test_misconfiguration(misconf)
        assert stop.tests_run == full.tests_run == len(openldap.tests)
        assert stop.failed_tests == full.failed_tests == ()
        assert stop.reaction.category is full.reaction.category


class _ScriptedSystem:
    """A stub system whose launches are scripted per request list."""

    name = "scripted"
    config_path = "/etc/scripted.conf"

    def __init__(self, tests, script):
        self.tests = tests
        self._script = script

    def template_ar(self):
        from repro.inject.ar import ConfigAR, KeyValueDialect

        return ConfigAR.parse("knob = 1\n", KeyValueDialect())

    def result_for(self, requests):
        key = tuple(requests or ())
        return self._script[key]


def _scripted_harness(system, **kwargs):
    harness = InjectionHarness(system, **kwargs)
    harness.launch = lambda config, requests=None: system.result_for(requests)
    return harness


class TestCrashMidSuite:
    """A crash on a later test must not change how the first observed
    failure classifies the misconfiguration - in either mode."""

    @pytest.fixture()
    def system(self):
        from repro.systems.base import FunctionalTest

        ok = ProcessResult(status=ProcessStatus.EXITED, exit_code=0)
        fail = ProcessResult(status=ProcessStatus.EXITED, exit_code=1)
        crash = ProcessResult(
            status=ProcessStatus.CRASHED,
            fault_signal="SIGSEGV",
            fault_reason="segfault",
        )
        tests = [
            FunctionalTest("a", ["A"], lambda r: True, duration=1.0),
            FunctionalTest("b", ["B"], lambda r: True, duration=2.0),
        ]
        return _ScriptedSystem(
            tests, {(): ok, ("A",): fail, ("B",): crash}
        )

    def test_stop_mode_returns_first_failure(self, system):
        harness = _scripted_harness(system, stop_at_first_failure=True)
        verdict = harness.test_misconfiguration(_misconf("knob", "2"))
        assert verdict.reaction.category is ReactionCategory.FUNCTIONAL_FAILURE
        assert verdict.tests_run == 1
        assert verdict.failed_tests == ("a",)

    def test_full_mode_keeps_driving_past_the_crash(self, system):
        harness = _scripted_harness(system, stop_at_first_failure=False)
        verdict = harness.test_misconfiguration(_misconf("knob", "2"))
        # Classification still follows the first observed failure...
        assert verdict.reaction.category is ReactionCategory.FUNCTIONAL_FAILURE
        assert verdict.reaction.failed_test == "a"
        # ...and the crash is recorded, not silently dropped.
        assert verdict.tests_run == 2
        assert verdict.failed_tests == ("a", "b")

    def test_crash_first_classifies_crash_in_both_modes(self, system):
        system._script[("A",)], system._script[("B",)] = (
            system._script[("B",)],
            system._script[("A",)],
        )
        for stop in (True, False):
            harness = _scripted_harness(system, stop_at_first_failure=stop)
            verdict = harness.test_misconfiguration(_misconf("knob", "2"))
            assert (
                verdict.reaction.category is ReactionCategory.CRASH_HANG
            ), stop
            assert verdict.failed_tests[0] == "a"


class TestPinpointWordBoundary:
    def _harness(self, openldap):
        return InjectionHarness(openldap)

    def test_parameter_name_match(self, openldap):
        harness = self._harness(openldap)
        result = _result_with_logs("invalid value for sockbuf_max_incoming")
        assert harness._pinpointed(
            result, _misconf("sockbuf_max_incoming", "-1"), _StubAR({})
        )

    def test_line_number_requires_exact_line(self, openldap):
        harness = self._harness(openldap)
        misconf = _misconf("threads", "9999")
        ar = _StubAR({"threads": 1})
        # "line 12" must NOT be credited as a pinpoint of line 1.
        assert not harness._pinpointed(
            misconf=misconf,
            result=_result_with_logs("syntax error at line 12"),
            ar=ar,
        )
        assert harness._pinpointed(
            misconf=misconf,
            result=_result_with_logs("syntax error at line 1, near 'threads'"),
            ar=ar,
        )
        assert harness._pinpointed(
            misconf=misconf,
            result=_result_with_logs("error at line 1: bad value"),
            ar=ar,
        )

    def test_short_value_not_credited_inside_longer_number(self, openldap):
        harness = self._harness(openldap)
        misconf = _misconf("threads", "10")
        ar = _StubAR({})
        # "10" buried in "3100" or "10240" is not a pinpoint...
        assert not harness._pinpointed(
            misconf=misconf,
            result=_result_with_logs("allocated 3100 slots, limit 10240"),
            ar=ar,
        )
        # ...but the standalone value is.
        assert harness._pinpointed(
            misconf=misconf,
            result=_result_with_logs("refusing to start 10 threads"),
            ar=ar,
        )

    def test_one_character_values_never_match(self, openldap):
        harness = self._harness(openldap)
        assert not harness._pinpointed(
            misconf=_misconf("threads", "7"),
            result=_result_with_logs("error 7 occurred"),
            ar=_StubAR({}),
        )


class _StubInterp:
    def __init__(self, globals_):
        self.globals = globals_


class _StubStruct:
    def __init__(self, fields):
        self.fields = fields


class TestEffectiveValueTraversal:
    def test_missing_global_is_unresolved(self):
        value, resolved = InjectionHarness._resolve_effective(
            _StubInterp({}), "cfg", ()
        )
        assert not resolved
        assert value is None

    def test_partial_path_is_unresolved(self):
        interp = _StubInterp({"cfg": _StubStruct({"net": _StubStruct({})})})
        value, resolved = InjectionHarness._resolve_effective(
            interp, "cfg", ("net", "port")
        )
        assert not resolved

    def test_non_struct_hop_is_unresolved(self):
        interp = _StubInterp({"cfg": 42})
        _, resolved = InjectionHarness._resolve_effective(
            interp, "cfg", ("port",)
        )
        assert not resolved

    def test_full_path_resolves(self):
        interp = _StubInterp(
            {"cfg": _StubStruct({"net": _StubStruct({"port": 8080})})}
        )
        value, resolved = InjectionHarness._resolve_effective(
            interp, "cfg", ("net", "port")
        )
        assert resolved
        assert value == 8080

    def test_unresolvable_location_is_not_a_silent_violation(self, openldap):
        harness = InjectionHarness(openldap)
        misconf = _misconf("index_intlen", "300")
        # A startup run missing the effective-value global is "no
        # evidence", never a reported value change.
        startup = ProcessResult(
            status=ProcessStatus.EXITED,
            exit_code=0,
            effective_values=harness._effective_values(_StubInterp({})),
        )
        assert "index_intlen" not in startup.effective_values
        assert harness._silently_changed(misconf, startup) is None

    def test_resolved_divergent_value_is_reported(self, openldap):
        harness = InjectionHarness(openldap)
        misconf = _misconf("index_intlen", "300")
        startup = ProcessResult(
            status=ProcessStatus.EXITED,
            exit_code=0,
            effective_values=harness._effective_values(
                _StubInterp({"index_intlen": 255})
            ),
        )
        changed = harness._silently_changed(misconf, startup)
        assert changed == ("index_intlen", "300", 255)

    def test_startup_results_keep_effective_values_not_interpreters(
        self, openldap
    ):
        """The harness resolves every effective-value location of a
        startup run once and drops the interpreter; the silent-violation
        check reads the resolved map."""
        harness = InjectionHarness(openldap)
        startup = harness.launch(openldap.default_config)
        assert startup.interpreter is None
        assert set(startup.effective_values) == set(
            openldap.effective_locations
        )
        value = startup.effective_values["index_intlen"]
        misconf = _misconf("index_intlen", str(value))
        assert harness._silently_changed(misconf, startup) is None
        diverged = _misconf("index_intlen", str(value + 1))
        assert harness._silently_changed(diverged, startup) == (
            "index_intlen", str(value + 1), value
        )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
