"""Process-level run results: what SPEX-INJ's harness observes."""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field

from repro.lang.program import Program
from repro.lang.source import Location
from repro.runtime.codegen import codegen_plan_for
from repro.runtime.faults import ExitProcess, HangFault, MachineFault
from repro.runtime.interpreter import Interpreter, InterpreterOptions
from repro.runtime.os_model import EmulatedOS, LogRecord


class ProcessStatus(enum.Enum):
    EXITED = "exited"
    CRASHED = "crashed"
    HUNG = "hung"


@functools.lru_cache(maxsize=1024)
def _word_pattern(needle: str) -> "re.Pattern[str]":
    """Compiled word-bounded search pattern for one needle.

    Pinpointing probes the same handful of needles (parameter names,
    injected values, "line N") against every launch of a campaign;
    the LRU makes the compile per-needle instead of per-call.
    """
    return re.compile(
        r"(?<![0-9A-Za-z_])" + re.escape(needle) + r"(?![0-9A-Za-z_])",
        re.IGNORECASE,
    )


@dataclass
class ProcessResult:
    """Externally observable outcome of one subject-system run."""

    status: ProcessStatus
    exit_code: int | None = None
    fault_signal: str | None = None
    fault_reason: str | None = None
    fault_location: Location | None = None
    logs: list[LogRecord] = field(default_factory=list)
    responses: list[str] = field(default_factory=list)
    steps: int = 0
    # The finished run's interpreter, for callers that inspect its
    # state; the injection harness drops it and keeps only
    # `effective_values` (`{param: value}` at each resolvable
    # effective-value location, startup runs only).
    interpreter: Interpreter | None = None
    effective_values: dict[str, object] | None = None
    # Memo of the joined log text, keyed by the log list's identity and
    # length so appends (and list replacement) invalidate it.
    _log_text: str | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _log_text_key: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def crashed(self) -> bool:
        return self.status is ProcessStatus.CRASHED

    @property
    def hung(self) -> bool:
        return self.status is ProcessStatus.HUNG

    @property
    def exited_ok(self) -> bool:
        return self.status is ProcessStatus.EXITED and self.exit_code == 0

    def log_text(self) -> str:
        key = (id(self.logs), len(self.logs))
        if self._log_text is None or self._log_text_key != key:
            self._log_text = "\n".join(
                f"[{r.stream}] {r.text}" for r in self.logs
            )
            self._log_text_key = key
        return self._log_text

    def logs_mention_word(self, needle: str) -> bool:
        """Case-insensitive log search where the match must not sit
        inside a longer alphanumeric token: "line 1" does not match
        "line 12", and an injected value of "10" does not match
        "3100".  The only log-matching API on purpose - a plain
        substring variant gave pinpointing false credit (a 2-character
        value matches almost any log line)."""
        if not needle:
            return False
        pattern = _word_pattern(needle)
        return any(pattern.search(record.text) for record in self.logs)


def capture_outcome(interp: Interpreter, thunk) -> ProcessResult:
    """Run `thunk` (which drives `interp`) and capture the process
    outcome - the single fault-to-result mapping shared by the plain
    launch path below and the warm-boot paths in
    `repro.runtime.snapshot`."""
    os_model = interp.os
    try:
        code = thunk()
        result = ProcessResult(status=ProcessStatus.EXITED, exit_code=code)
    except MachineFault as fault:
        os_model.log("console", fault.console_message)
        result = ProcessResult(
            status=ProcessStatus.CRASHED,
            fault_signal=fault.signal_name,
            fault_reason=fault.reason,
            fault_location=fault.location,
        )
    except HangFault as hang:
        result = ProcessResult(
            status=ProcessStatus.HUNG,
            fault_reason=hang.reason,
        )
    except ExitProcess as exit_:
        result = ProcessResult(status=ProcessStatus.EXITED, exit_code=exit_.code)
    result.logs = list(os_model.logs)
    result.responses = list(os_model.responses)
    result.steps = interp.steps
    result.interpreter = interp
    return result


def run_program(
    program: Program,
    os_model: EmulatedOS | None = None,
    argv: list[str] | None = None,
    options: InterpreterOptions | None = None,
) -> ProcessResult:
    """Execute a program's main() and capture the process outcome.

    With `options.engine == "codegen"` (the default) the program's
    memoized generated-source `CodegenPlan` executes the function
    bodies; `"tree"` walks the AST.
    """
    os_model = os_model if os_model is not None else EmulatedOS()
    options = options if options is not None else InterpreterOptions()
    plan = codegen_plan_for(program) if options.engine == "codegen" else None
    interp = Interpreter(program, os_model, options, plan=plan)
    return capture_outcome(interp, lambda: interp.run_main(argv))
