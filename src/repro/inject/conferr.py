"""ConfErr-style baseline injector (Keller et al., DSN'08; paper §6).

"Since it is not guided by configuration constraints, it makes generic
alterations to valid configuration settings (e.g., omissions,
substitutions, and case alternations of characters)."

The baseline applies the same human-error operators to every parameter
regardless of its inferred constraints, which is exactly what SPEX-INJ
improves on: the comparison benchmark measures vulnerabilities exposed
per injection for both tools.
"""

from __future__ import annotations

from repro.core.constraints import BasicTypeConstraint
from repro.inject.ar import ConfigAR
from repro.inject.generators import Misconfiguration
from repro.lang.source import Location

_LOC = Location("<conferr>", 0, 0)

# Deterministic keyboard-neighbour substitutions (ConfErr's typo model
# uses keyboard distance; one representative neighbour per key keeps
# the baseline reproducible).
_NEIGHBOUR = {
    "a": "s", "b": "v", "c": "x", "d": "f", "e": "r", "f": "g",
    "g": "h", "h": "j", "i": "o", "j": "k", "k": "l", "l": "k",
    "m": "n", "n": "m", "o": "p", "p": "o", "q": "w", "r": "t",
    "s": "d", "t": "y", "u": "i", "v": "b", "w": "e", "x": "c",
    "y": "u", "z": "x", "0": "9", "1": "2", "2": "3", "3": "4",
    "4": "5", "5": "6", "6": "7", "7": "8", "8": "9", "9": "0",
}


def _constraint_for(param: str) -> BasicTypeConstraint:
    # The baseline has no constraints; a placeholder keeps the
    # Misconfiguration record type uniform.
    return BasicTypeConstraint(param, _LOC)


def omission(param: str, value: str) -> list[tuple[str, str]]:
    """Drop one character (the classic typo)."""
    if len(value) < 2:
        return []
    mid = len(value) // 2
    return [(param, value[:mid] + value[mid + 1 :])]


def substitution(param: str, value: str) -> list[tuple[str, str]]:
    """Replace one character with a keyboard neighbour."""
    for i, ch in enumerate(value):
        repl = _NEIGHBOUR.get(ch.lower())
        if repl is not None:
            mutated = value[:i] + repl + value[i + 1 :]
            if mutated != value:
                return [(param, mutated)]
    return []


def case_alternation(param: str, value: str) -> list[tuple[str, str]]:
    if value.upper() != value:
        return [(param, value.upper())]
    if value.lower() != value:
        return [(param, value.lower())]
    return []


def transposition(param: str, value: str) -> list[tuple[str, str]]:
    """Swap the first two characters."""
    if len(value) < 2 or value[0] == value[1]:
        return []
    return [(param, value[1] + value[0] + value[2:])]


_OPERATORS = [
    ("omission", omission),
    ("substitution", substitution),
    ("case-alternation", case_alternation),
    ("transposition", transposition),
]


class ConfErrBaseline:
    """Generates generic (constraint-blind) misconfigurations."""

    def generate(self, template: ConfigAR) -> list[Misconfiguration]:
        out: list[Misconfiguration] = []
        seen: set[tuple] = set()
        for entry in template.entries:
            if not entry.value:
                continue
            for op_name, operator in _OPERATORS:
                for settings in operator(entry.name, entry.value):
                    key = (settings,)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(
                        Misconfiguration(
                            settings=(settings,),
                            constraint=_constraint_for(entry.name),
                            rule=f"conferr-{op_name}",
                            description=(
                                f"generic {op_name} of {entry.name}'s value"
                            ),
                        )
                    )
        return out


def run_conferr_baseline(system):
    """Test every baseline misconfiguration; returns (tested, verdicts)."""
    from repro.inject.harness import InjectionHarness

    harness = InjectionHarness(system)
    misconfs = ConfErrBaseline().generate(system.template_ar())
    verdicts = [harness.test_misconfiguration(m) for m in misconfs]
    return misconfs, verdicts
