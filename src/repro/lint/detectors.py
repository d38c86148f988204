"""The five §3.2 detectors, each a function over a SpexReport."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.events import CallArgEvent
from repro.core.constraints import (
    ControlDepConstraint,
    EnumRangeConstraint,
    NumericRangeConstraint,
    ValueRelConstraint,
)
from repro.core.engine import SpexReport
from repro.knowledge import Unit, default_knowledge


# -- case sensitivity (Table 6) -----------------------------------------------


@dataclass
class CaseSensitivityFinding:
    sensitive: list[str] = field(default_factory=list)
    insensitive: list[str] = field(default_factory=list)

    @property
    def inconsistent(self) -> bool:
        """Mixed requirements confuse users (Figure 6a): some string
        parameters demand exact case while most do not."""
        return bool(self.sensitive) and bool(self.insensitive)

    @property
    def minority(self) -> list[str]:
        """The parameters on the smaller side of the split - the ones
        a consistency fix would change."""
        if not self.inconsistent:
            return []
        if len(self.sensitive) <= len(self.insensitive):
            return self.sensitive
        return self.insensitive


def detect_case_sensitivity(report: SpexReport) -> CaseSensitivityFinding:
    finding = CaseSensitivityFinding()
    for param, sensitive in sorted(report.case_sensitivity.items()):
        if param.startswith("__SPEX_"):
            continue
        if sensitive:
            finding.sensitive.append(param)
        else:
            finding.insensitive.append(param)
    return finding


# -- unit granularity (Table 7) ----------------------------------------------

_UNIT_NAME_TOKENS = {
    "b": Unit.BYTES,
    "kb": Unit.KILOBYTES,
    "mb": Unit.MEGABYTES,
    "gb": Unit.GIGABYTES,
    "usec": Unit.MICROSECONDS,
    "msec": Unit.MILLISECONDS,
    "ms": Unit.MILLISECONDS,
    "sec": Unit.SECONDS,
    "s": Unit.SECONDS,
    "min": Unit.MINUTES,
    "hour": Unit.HOURS,
    "h": Unit.HOURS,
}


@dataclass
class UnitFinding:
    # dimension ("size"/"time") -> unit -> parameter list
    by_dimension: dict[str, dict[Unit, list[str]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(list))
    )
    # parameters whose *names* carry their unit (§5.2 mitigation)
    unit_named: list[str] = field(default_factory=list)

    def distribution(self, dimension: str) -> dict[Unit, int]:
        return {
            unit: len(params)
            for unit, params in self.by_dimension.get(dimension, {}).items()
        }


def detect_unit_inconsistency(report: SpexReport) -> UnitFinding:
    finding = UnitFinding()
    seen: set[tuple[str, str]] = set()
    for constraint in report.constraints.semantic_types():
        if constraint.unit is None:
            continue
        key = (constraint.param, constraint.unit.dimension)
        if key in seen:
            continue
        seen.add(key)
        finding.by_dimension[constraint.unit.dimension][constraint.unit].append(
            constraint.param
        )
        if _name_carries_unit(constraint.param, constraint.unit):
            finding.unit_named.append(constraint.param)
    return finding


def _name_carries_unit(param: str, unit: Unit) -> bool:
    tokens = param.lower().replace("-", ".").replace("_", ".").split(".")
    return any(
        _UNIT_NAME_TOKENS.get(token) is unit for token in tokens
    )


# -- silent overruling (Table 8, Figure 6c) -----------------------------------


@dataclass
class OverrulingFinding:
    params: list[str] = field(default_factory=list)
    constraints: list[EnumRangeConstraint] = field(default_factory=list)


def detect_silent_overruling(report: SpexReport) -> OverrulingFinding:
    finding = OverrulingFinding()
    seen: set[str] = set()
    for constraint in report.constraints.ranges():
        if not isinstance(constraint, EnumRangeConstraint):
            continue
        if constraint.silently_overruled and constraint.param not in seen:
            seen.add(constraint.param)
            finding.params.append(constraint.param)
            finding.constraints.append(constraint)
    # Numeric clamps without notification are overruling too, but the
    # paper counts them under silent violation; only enum-style else
    # and default overrules are reported here, matching Figure 6(c).
    finding.params.sort()
    return finding


# -- unsafe APIs (Table 8, Figure 6d) ------------------------------------------


@dataclass
class UnsafeApiFinding:
    # parameter -> unsafe APIs its value flows through
    params: dict[str, set[str]] = field(default_factory=lambda: defaultdict(set))

    @property
    def affected(self) -> list[str]:
        return sorted(self.params)


def detect_unsafe_apis(report: SpexReport) -> UnsafeApiFinding:
    knowledge = default_knowledge()
    finding = UnsafeApiFinding()
    for event in report.analysis.events_of(CallArgEvent):
        spec = knowledge.get(event.callee)
        if spec is None or not spec.unsafe_transform:
            continue
        # Formatting a parameter *out* with a constant format string is
        # not the parsing hazard the paper targets; sprintf only counts
        # when the tainted value is the format itself.
        if event.callee in ("sprintf", "snprintf") and event.arg_index > 0:
            continue
        for name in event.labels.names():
            if not name.startswith("__SPEX_"):
                finding.params[name].add(event.callee)
    # Parse-path conversions seen by the mapping toolkits (the value
    # token's flow is invisible to the main run for table/comparison
    # mappings).
    for param, apis in report.mapping.unsafe_parse.items():
        finding.params[param].update(apis)
    return finding


# -- undocumented constraints (Table 8) ---------------------------------------


@dataclass
class UndocumentedFinding:
    ranges: list[str] = field(default_factory=list)
    control_deps: list[str] = field(default_factory=list)
    value_rels: list[str] = field(default_factory=list)


def detect_undocumented(
    report: SpexReport, manual: dict[str, str]
) -> UndocumentedFinding:
    """Check inferred constraints against the user manual: a range
    must state its bounds (or acceptable values), a dependency must
    mention its gate, a relationship its partner parameter."""
    finding = UndocumentedFinding()
    seen: set[tuple[str, str]] = set()
    for constraint in report.constraints:
        entry = manual.get(constraint.param, "")
        low_entry = entry.lower()
        if isinstance(constraint, NumericRangeConstraint):
            documented = bool(entry) and _range_documented(constraint, entry)
            key = (constraint.param, "range")
            if not documented and key not in seen:
                seen.add(key)
                finding.ranges.append(constraint.param)
        elif isinstance(constraint, EnumRangeConstraint):
            documented = bool(entry) and any(
                str(v).lower() in low_entry for v in constraint.values
            )
            key = (constraint.param, "range")
            if not documented and key not in seen:
                seen.add(key)
                finding.ranges.append(constraint.param)
        elif isinstance(constraint, ControlDepConstraint):
            documented = bool(entry) and (
                constraint.dep_param.lower() in low_entry
            )
            key = (constraint.param, f"dep:{constraint.dep_param}")
            if not documented and key not in seen:
                seen.add(key)
                finding.control_deps.append(constraint.param)
        elif isinstance(constraint, ValueRelConstraint):
            documented = bool(entry) and (
                constraint.other_param.lower() in low_entry
            )
            other_entry = manual.get(constraint.other_param, "").lower()
            documented = documented or constraint.param.lower() in other_entry
            key = (constraint.param, f"rel:{constraint.other_param}")
            if not documented and key not in seen:
                seen.add(key)
                finding.value_rels.append(constraint.param)
    return finding


def _range_documented(constraint: NumericRangeConstraint, entry: str) -> bool:
    if ".." in entry or "between" in entry.lower():
        return True
    mentions = 0
    if constraint.valid_lo is not None and str(int(constraint.valid_lo)) in entry:
        mentions += 1
    if constraint.valid_hi is not None and str(int(constraint.valid_hi)) in entry:
        mentions += 1
    wanted = (constraint.valid_lo is not None) + (constraint.valid_hi is not None)
    return mentions >= wanted and wanted > 0
