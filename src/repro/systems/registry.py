"""Registry of the subject systems (the paper's seven plus later
additions such as the nginx miniature).

Builders register themselves on import; instances are memoized.  The
bulk API (`iter_systems`, `load_all`) is what the campaign pipeline
uses to enumerate sweep targets without materialising systems it will
end up skipping (e.g. cached ones).
"""

from __future__ import annotations

from typing import Iterator

from repro.systems.base import SubjectSystem

_BUILDERS = {}
_CACHE: dict[str, SubjectSystem] = {}


def register(name: str):
    def deco(fn):
        _BUILDERS[name] = fn
        return fn

    return deco


def _ensure_loaded() -> None:
    # Import for side effects (each module registers its builder).
    from repro.systems import (  # noqa: F401
        apache,
        mysql,
        nginx,
        openldap,
        postgresql,
        squid,
        storage_a,
        vsftpd,
    )


def system_names() -> list[str]:
    _ensure_loaded()
    return sorted(_BUILDERS)


def is_registered(name: str) -> bool:
    _ensure_loaded()
    return name in _BUILDERS


def get_system(name: str) -> SubjectSystem:
    _ensure_loaded()
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]


def iter_systems(names: list[str] | None = None) -> Iterator[SubjectSystem]:
    """Lazily yield systems - all of them, or the named subset in the
    given order.  Unknown names raise `KeyError` up front so a sweep
    fails before any work is done."""
    _ensure_loaded()
    selected = system_names() if names is None else list(names)
    unknown = [n for n in selected if n not in _BUILDERS]
    if unknown:
        raise KeyError(
            f"unknown system(s): {', '.join(unknown)}; "
            f"registered: {', '.join(system_names())}"
        )
    for name in selected:
        yield get_system(name)


def load_all() -> dict[str, SubjectSystem]:
    """Materialise every registered system, keyed by name."""
    return {system.name: system for system in iter_systems()}


def all_systems() -> list[SubjectSystem]:
    return list(iter_systems())
