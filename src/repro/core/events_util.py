"""Shared event-selection helpers for the inference passes.

The dataflow engine runs in passes over its roots, and each analysis
iterates its blocks; an event site can appear several times with
monotonically growing label sets.  Inference passes want
one canonical event per site with the richest labels.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.events import (
    BranchCondEvent,
    StringCompareEvent,
    SwitchCaseEvent,
    UsageEvent,
)


def _label_weight(event) -> int:
    if isinstance(event, BranchCondEvent):
        return len(event.left.labels.entries) + len(event.right.labels.entries)
    return len(event.labels.entries)


def canonical_events(events: list, site_key) -> list:
    """One event per site (picked by `site_key`), richest labels win."""
    best: dict[object, object] = {}
    for event in events:
        key = site_key(event)
        current = best.get(key)
        if current is None or _label_weight(event) > _label_weight(current):
            best[key] = event
    return list(best.values())


def canonical_branch_events(events: list[BranchCondEvent]) -> list[BranchCondEvent]:
    return canonical_events(
        events, lambda e: (e.function, e.block, e.location, e.chain)
    )


def branch_event_index(
    events: list[BranchCondEvent],
) -> dict[tuple[str, str], BranchCondEvent]:
    """(function, block) -> canonical branch event."""
    out: dict[tuple[str, str], BranchCondEvent] = {}
    for event in canonical_branch_events(events):
        key = (event.function, event.block)
        current = out.get(key)
        if current is None or _label_weight(event) > _label_weight(current):
            out[key] = event
    return out


def canonical_usages(events: list[UsageEvent]) -> list[UsageEvent]:
    return canonical_events(
        events, lambda e: (e.function, e.location, e.kind, e.chain)
    )


def usages_by_param(events: list[UsageEvent]) -> dict[str, list[UsageEvent]]:
    out: dict[str, list[UsageEvent]] = defaultdict(list)
    for event in canonical_usages(events):
        for name in event.labels.names():
            out[name].append(event)
    return dict(out)


def flip_op(op: str) -> str:
    return {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}[op]


def negate_op(op: str) -> str:
    return {"<": ">=", ">": "<=", "<=": ">", ">=": "<", "==": "!=", "!=": "=="}[op]
