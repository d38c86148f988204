"""Reproduction of SPEX: "Do Not Blame Users for Misconfigurations"
(Xu et al., SOSP 2013).

Package map:

* :mod:`repro.lang`      - MiniC, the C-like subject language
* :mod:`repro.ir`        - three-address IR, CFG, dominators (LLVM stand-in)
* :mod:`repro.analysis`  - inter-procedural, field-sensitive dataflow
* :mod:`repro.knowledge` - library-API knowledge base
* :mod:`repro.core`      - SPEX constraint inference (the contribution)
* :mod:`repro.inject`    - SPEX-INJ misconfiguration injection testing
* :mod:`repro.lint`      - error-prone configuration design detection
* :mod:`repro.runtime`   - MiniC interpreter over an emulated OS
* :mod:`repro.systems`   - the eight miniature subject systems
* :mod:`repro.study`     - historical misconfiguration case replay
* :mod:`repro.reporting` - regenerates every table/figure of the paper's §4

Quick start::

    from repro.core import SpexEngine
    from repro.lang.program import Program

    program = Program.from_sources({"app.c": SOURCE})
    report = SpexEngine(program, ANNOTATIONS).run()
    for constraint in report.constraints:
        print(constraint.describe())
"""

__version__ = "1.0.0"
