"""The injection test harness (§3.1 "Testing and Analysis").

For each generated configuration file (containing one
misconfiguration), launch the target system; if it starts, apply the
functional tests one by one; record all logs; classify the reaction
per Table 3.  A reaction is acceptable only if the system *pinpoints*
the injected parameter by name, value, or config-file line.

Every warm-boot launch takes its config's boot record from one launch
store (`repro.runtime.snapshot.SnapshotCache`): the one the harness is
given, or one it creates.  A repeated launch of a config resumes from
the record's snapshot; every launch still runs its post-boot
statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.core.constraints import ControlDepConstraint
from repro.inject.ar import ConfigAR
from repro.obs import get_registry, get_tracer
from repro.inject.generators import Misconfiguration, MisconfigurationBatch
from repro.inject.reactions import Reaction, ReactionCategory
from repro.runtime.interpreter import InterpreterOptions
from repro.runtime.process import ProcessResult, ProcessStatus, run_program
from repro.runtime.snapshot import (
    BootRecord,
    BootStats,
    SnapshotCache,
    boot_launch,
    snapshot_fingerprint,
)

if TYPE_CHECKING:  # avoid the inject <-> systems import cycle
    from repro.systems.base import SubjectSystem


@dataclass
class InjectionVerdict:
    """Outcome of testing one misconfiguration."""

    misconfiguration: Misconfiguration
    reaction: Reaction
    startup_result: ProcessResult | None = None
    tests_run: int = 0
    log_excerpt: str = ""
    # Every functional test that failed.  With stop_at_first_failure
    # this holds at most the first; full-suite mode records them all.
    failed_tests: tuple[str, ...] = ()

    @property
    def is_vulnerability(self) -> bool:
        return self.reaction.is_vulnerability


#: The harness's interpreter budgets.  Entry points that take a
#: launch-engine name turn it into ``replace(HARNESS_OPTIONS,
#: engine=...)`` once and hand harnesses the options.
HARNESS_OPTIONS = InterpreterOptions(
    max_steps=400_000, max_virtual_seconds=120.0
)


@dataclass
class InjectionHarness:
    system: "SubjectSystem"
    options: InterpreterOptions = field(
        default_factory=lambda: HARNESS_OPTIONS
    )
    stop_at_first_failure: bool = True
    sort_shortest_first: bool = True
    # Warm-boot snapshots (`repro.runtime.snapshot`): per-config boot
    # state replayed across the functional-test launches of one
    # config.  Enabled by `options.warm_boot` (default on); every
    # warm-boot launch takes its record from this launch store - one
    # shared across harnesses (campaign + fleet agreement) when
    # given, the harness's own otherwise.
    snapshot_cache: SnapshotCache = field(default_factory=SnapshotCache)

    # -- low-level runs ------------------------------------------------------

    def launch(
        self, config_text: str, requests: list[str] | None = None
    ) -> ProcessResult:
        # Telemetry: one counter always; a span only when a tracer is
        # wired up (the disabled check keeps the warm path flat - the
        # overhead budget is enforced by benchmarks/test_obs_overhead).
        get_registry().inc("launch.requests")
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "harness.launch",
                system=self.system.name,
                requests=len(requests or ()),
            ):
                return self._observed_launch(config_text, requests)
        return self._observed_launch(config_text, requests)

    def _launch(
        self, config_text: str, requests: list[str] | None = None
    ) -> ProcessResult:
        argv = [self.system.name, self.system.config_path]
        if not self.options.warm_boot:
            os_model = self._make_os(config_text)
            if requests:
                os_model.queue_requests(requests)
            return run_program(
                self.system.program(), os_model, argv=argv, options=self.options
            )
        record = self.boot_record(config_text, argv)
        return boot_launch(
            self.system.program(),
            lambda: self._make_os(config_text),
            argv,
            self.options,
            record,
            requests=requests,
            stats=self.snapshot_cache.boot_stats,
            hint=self.snapshot_cache.hint_for(
                self.system.name, self.options.fingerprint()
            ),
        )

    def _make_os(self, config_text: str):
        os_model = self.system.make_os()
        self.system.install_config(os_model, config_text)
        return os_model

    def boot_record(self, config_text: str, argv: list[str]) -> BootRecord:
        """This config's boot record in the launch store.  A lookup
        like any launch's: the record is created, and counted a miss,
        when the config has none yet."""
        key = snapshot_fingerprint(
            self.system.name,
            config_text,
            self.options.fingerprint(),
            argv=tuple(argv),
        )
        return self.snapshot_cache.record_for(key)

    @property
    def boot_stats(self) -> BootStats:
        """Snapshot-engine counters of this harness's launch store."""
        return self.snapshot_cache.boot_stats

    def _observed_launch(
        self, config_text: str, requests: list[str] | None
    ) -> ProcessResult:
        """One launch, reduced to what the harness reads back.

        A startup run's only interpreter state ever read is its
        effective config values (the silent-violation check), so they
        are resolved once into `effective_values` and the interpreter
        is dropped from every result: verdicts then hold no
        interpreter heap.
        """
        result = self._launch(config_text, requests)
        if not requests:
            result.effective_values = self._effective_values(
                result.interpreter
            )
        result.interpreter = None
        return result

    def _effective_values(self, interp) -> dict[str, object]:
        """`{param: value}` for every effective-value location of the
        system that resolves in `interp`'s globals."""
        values = {}
        for param, (var, path) in self.system.effective_locations.items():
            value, resolved = self._resolve_effective(interp, var, path)
            if resolved:
                values[param] = value
        return values

    def baseline_ok(self) -> bool:
        """The unmodified template must start and pass all tests."""
        result = self.launch(self.system.default_config)
        if not result.exited_ok:
            return False
        for test in self.system.tests:
            run = self.launch(self.system.default_config, test.requests)
            if not run.exited_ok or not test.oracle(run.responses):
                return False
        return True

    # -- one misconfiguration ------------------------------------------------

    def test_misconfiguration(self, misconf: Misconfiguration) -> InjectionVerdict:
        return self._test_one(misconf, self.system.template_ar())

    # -- one batch (all injections of one parameter) -------------------------

    def test_batch(
        self,
        batch: MisconfigurationBatch | list[Misconfiguration],
        template: ConfigAR | None = None,
    ) -> list[InjectionVerdict]:
        """Evaluate a group of injections against one parsed template.

        The template AR is parsed once (or supplied by the caller, who
        may share it across every batch of a campaign) and cloned per
        injection, instead of re-parsing the config file for each
        misconfiguration as the one-at-a-time loop did.  Verdicts come
        back in batch order.
        """
        if template is None:
            template = self.system.template_ar()
        return [self._test_one(misconf, template) for misconf in batch]

    def _test_one(
        self, misconf: Misconfiguration, template: ConfigAR
    ) -> InjectionVerdict:
        ar = template.clone()
        for name, value in misconf.settings:
            ar.set(name, value)
        config_text = ar.serialize()

        startup = self.launch(config_text)
        pinpointed = self._pinpointed(startup, misconf, ar)

        if startup.status in (ProcessStatus.CRASHED, ProcessStatus.HUNG):
            detail = startup.fault_reason or startup.status.value
            return InjectionVerdict(
                misconf,
                Reaction(
                    ReactionCategory.CRASH_HANG,
                    detail=detail,
                    pinpointed=pinpointed,
                    fault_signal=startup.fault_signal,
                ),
                startup,
                log_excerpt=startup.log_text(),
            )
        if startup.exit_code != 0:
            category = (
                ReactionCategory.GOOD if pinpointed else ReactionCategory.EARLY_TERMINATION
            )
            return InjectionVerdict(
                misconf,
                Reaction(
                    category,
                    detail=f"exit code {startup.exit_code}",
                    pinpointed=pinpointed,
                ),
                startup,
                log_excerpt=startup.log_text(),
            )

        # Started cleanly: drive the functional suite.
        tests = list(self.system.tests)
        if self.sort_shortest_first:
            tests.sort(key=lambda t: t.duration)
        tests_run = 0
        first_failure: InjectionVerdict | None = None
        failed_tests: list[str] = []
        for test in tests:
            tests_run += 1
            run = self.launch(config_text, test.requests)
            crashed = run.status in (ProcessStatus.CRASHED, ProcessStatus.HUNG)
            failed = crashed or run.exit_code != 0 or not test.oracle(
                run.responses
            )
            if not failed:
                continue
            failed_tests.append(test.name)
            if first_failure is None:
                # Pinpointing evidence only matters for the verdict
                # that classifies the misconfiguration - the first
                # observed failure; later failures are recorded by
                # name without re-scanning logs.
                run_pinpointed = pinpointed or self._pinpointed(
                    run, misconf, ar
                )
                if crashed:
                    reaction = Reaction(
                        ReactionCategory.CRASH_HANG,
                        detail=run.fault_reason or run.status.value,
                        pinpointed=run_pinpointed,
                        failed_test=test.name,
                        fault_signal=run.fault_signal,
                    )
                else:
                    reaction = Reaction(
                        ReactionCategory.GOOD
                        if run_pinpointed
                        else ReactionCategory.FUNCTIONAL_FAILURE,
                        detail=f"functional test {test.name!r} failed",
                        pinpointed=run_pinpointed,
                        failed_test=test.name,
                    )
                first_failure = InjectionVerdict(
                    misconf, reaction, startup, tests_run, run.log_text()
                )
            if self.stop_at_first_failure:
                break
            # Full-suite mode keeps going: every test drives a fresh
            # launch, so one failure (even a crash) does not prevent
            # observing the rest.

        if first_failure is not None:
            # Classification follows the first observed failure (the
            # same verdict both modes return); full-suite mode also
            # carries the complete failure roster and test count.
            first_failure.tests_run = tests_run
            first_failure.failed_tests = tuple(failed_tests)
            return first_failure

        # All tests pass: silent violation / ignorance / good.
        return self._classify_silent(misconf, startup, pinpointed, tests_run)

    # -- silent misbehaviour ---------------------------------------------------

    def _classify_silent(
        self,
        misconf: Misconfiguration,
        startup: ProcessResult,
        pinpointed: bool,
        tests_run: int,
    ) -> InjectionVerdict:
        if pinpointed:
            return InjectionVerdict(
                misconf,
                Reaction(ReactionCategory.GOOD, detail="pinpointed", pinpointed=True),
                startup,
                tests_run,
            )
        if isinstance(misconf.constraint, ControlDepConstraint):
            return InjectionVerdict(
                misconf,
                Reaction(
                    ReactionCategory.SILENT_IGNORANCE,
                    detail=(
                        f"{misconf.constraint.param} has no effect while "
                        f"{misconf.constraint.dep_param} disables it; no notice given"
                    ),
                ),
                startup,
                tests_run,
            )
        changed = self._silently_changed(misconf, startup)
        if changed is not None:
            param, injected, effective = changed
            return InjectionVerdict(
                misconf,
                Reaction(
                    ReactionCategory.SILENT_VIOLATION,
                    detail=(
                        f"{param}: injected {injected!r} but effective value is "
                        f"{effective!r}, with no notification"
                    ),
                ),
                startup,
                tests_run,
            )
        return InjectionVerdict(
            misconf,
            Reaction(ReactionCategory.GOOD, detail="setting accepted"),
            startup,
            tests_run,
        )

    def _silently_changed(self, misconf, startup: ProcessResult):
        effective = startup.effective_values
        if effective is None:
            return None
        for param, injected in misconf.settings:
            if param not in effective:
                # No effective-value location, or one that cannot be
                # traversed (missing global, non-struct hop, absent
                # field): no evidence of a changed value - reporting
                # it as a silent violation would blame the harness's
                # own bookkeeping on the system.
                continue
            value = effective[param]
            intended = self.system.decoder_for(param)(injected)
            if value is None and intended is None:
                continue
            if not _values_match(intended, value):
                return (param, injected, value)
        return None

    @staticmethod
    def _resolve_effective(
        interp, var: str, path: tuple[str, ...]
    ) -> tuple[object, bool]:
        """Walk `var.path...`; returns (value, fully-resolved?)."""
        if var not in interp.globals:
            return None, False
        value = interp.globals[var]
        for fld in path:
            fields = getattr(value, "fields", None)
            if fields is None or fld not in fields:
                return None, False
            value = fields[fld]
        return value, True

    # -- pinpointing -----------------------------------------------------------

    def _pinpointed(self, result: ProcessResult, misconf, ar) -> bool:
        """Did any log message name the parameter, its value, or its
        config-file line?

        Matching is word-bounded: "line 1" must not be credited for a
        log saying "line 12", and a short injected value like "10"
        must not match inside every longer number in the logs.
        """
        for param, value in misconf.settings:
            if result.logs_mention_word(param):
                return True
            if len(value) >= 2 and result.logs_mention_word(value):
                return True
            line = ar.line_of(param)
            if line is not None and result.logs_mention_word(f"line {line}"):
                return True
        return False


def _values_match(intended: object, effective: object) -> bool:
    if isinstance(intended, int) and isinstance(effective, int):
        return intended == effective
    if isinstance(intended, str) and isinstance(effective, str):
        return intended == effective
    if isinstance(intended, int) and isinstance(effective, float):
        return float(intended) == effective
    if isinstance(intended, str) and isinstance(effective, int):
        # The system decoded a string we considered opaque; treat a
        # plain integer string as matching its parse.
        try:
            return int(intended) == effective
        except ValueError:
            return False
    return intended == effective
