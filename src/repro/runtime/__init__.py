"""Execution substrate for SPEX-INJ.

The paper launches real servers on a testbed and runs their shipped
test suites.  This package is the reproduction's substitute: a MiniC
interpreter over an emulated OS (files, ports, users, clock, request
queue) with a fault model that surfaces exactly the externally
observable behaviours SPEX-INJ classifies - crashes (segfault, abort,
division fault), hangs (step/virtual-time budget), exit codes, log
streams and functional responses.
"""

from repro.runtime.faults import (
    AbortFault,
    DivisionFault,
    ExitProcess,
    HangFault,
    MachineFault,
    SegmentationFault,
)
from repro.runtime.os_model import EmulatedOS, FileNode, LogRecord
from repro.runtime.process import ProcessResult, ProcessStatus, run_program
from repro.runtime.interpreter import Interpreter, InterpreterOptions
from repro.runtime.snapshot import (
    BootRecord,
    BootSnapshot,
    BootStats,
    boot_launch,
)

__all__ = [
    "AbortFault",
    "BootRecord",
    "BootSnapshot",
    "BootStats",
    "DivisionFault",
    "EmulatedOS",
    "ExitProcess",
    "FileNode",
    "HangFault",
    "Interpreter",
    "InterpreterOptions",
    "LogRecord",
    "MachineFault",
    "ProcessResult",
    "ProcessStatus",
    "SegmentationFault",
    "boot_launch",
    "run_program",
]
