"""Shared fixtures for the serve test tier.

One `PipelineCaches` is warmed once per session (checker compilation
for all eight systems), so every service instance the tests stand up
starts in milliseconds; parity tests build their *reference* results
from fresh caches instead (`serveutil.cold_reference`), so the
comparison side really is the cold `check` path.
"""

from __future__ import annotations

import pytest

from repro.checker import checker_for_system
from repro.pipeline.cache import PipelineCaches
from repro.serve import BackgroundServer, ValidationService
from repro.systems.registry import iter_systems


@pytest.fixture(scope="session")
def warm_caches() -> PipelineCaches:
    """Caches with every system's checker compiled once."""
    caches = PipelineCaches()
    for system in iter_systems(None):
        checker_for_system(system, caches=caches)
    return caches


@pytest.fixture
def make_service(warm_caches):
    """Factory for services that warm instantly off the shared caches."""

    def build(systems=None, **kwargs) -> ValidationService:
        return ValidationService(
            systems=systems, caches=warm_caches, **kwargs
        )

    return build


@pytest.fixture(scope="session")
def server(warm_caches):
    """One background server for the whole session, serving all eight
    systems.  Tests isolate through unique config_ids."""
    with BackgroundServer(caches=warm_caches) as handle:
        yield handle
