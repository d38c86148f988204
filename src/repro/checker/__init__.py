"""Fleet-scale configuration checking: constraints -> validators.

The third pillar of the reproduction (infer -> inject -> **check**).
Where `repro.core` infers constraints from source and `repro.inject`
proves systems react badly to violations, this package *consumes*
constraints to validate user config files before deployment, with
diagnostics that do not blame the user: every finding cites the code
evidence the constraint came from and proposes a concrete fix.

Layering: `repro.checker` sits above `repro.pipeline` (whose caches
and executors it reuses) and below `repro.reporting` (which renders
fleet reports and exposes the `check` / `fleet` CLI commands).
"""

from repro.checker.compile import (
    CompiledChecker,
    EnvView,
    checker_for_system,
    compile_checker,
)
from repro.checker.corpus import (
    SyntheticConfig,
    corpus_pool,
    generate_config,
    iter_corpus,
    mistake_mix,
)
from repro.checker.fleet import (
    AgreementReport,
    ConfigOutcome,
    FleetReport,
    SystemFleetResult,
    run_fleet,
)
from repro.checker.validate import (
    Diagnostic,
    ValidationReport,
    validate_config,
)

__all__ = [
    "AgreementReport",
    "CompiledChecker",
    "ConfigOutcome",
    "Diagnostic",
    "EnvView",
    "FleetReport",
    "SyntheticConfig",
    "SystemFleetResult",
    "ValidationReport",
    "checker_for_system",
    "compile_checker",
    "corpus_pool",
    "generate_config",
    "iter_corpus",
    "mistake_mix",
    "run_fleet",
    "validate_config",
]
