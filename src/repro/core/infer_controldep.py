"""Control-dependency inference (§2.2.4).

(P, V, ⋄) -> Q: parameter Q's *usages* (branches, arithmetic,
library-call arguments; copies and user-call argument passing are not
usage) are dominated by conditions testing parameter P against
constant V.  Conditions guarding the call sites through which the
usage was reached count too (the PostgreSQL fsync example).

Blindly recording every dominating condition over-fits (the VSFTP
listen/listen_ipv6 example), so dependencies are filtered by MAY-belief
confidence: the fraction of Q's usages that carry the dependency must
reach a threshold (0.75 in the paper, after [Engler et al. SOSP'01]).
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis import AnalysisResult
from repro.analysis.events import BranchCondEvent, UsageEvent
from repro.core.constraints import ConstraintSet, ControlDepConstraint
from repro.core.events_util import (
    branch_event_index,
    flip_op,
    negate_op,
    usages_by_param,
)

_DEP_MAX_HOPS = 1


def infer_control_deps(
    result: AnalysisResult,
    constraints: ConstraintSet,
    threshold: float,
) -> None:
    branches = branch_event_index(result.events_of(BranchCondEvent))
    usages = usages_by_param(result.events_of(UsageEvent))

    for param, param_usages in sorted(usages.items()):
        if param.startswith("__SPEX_"):
            continue
        candidates: dict[tuple[str, str, object], dict] = defaultdict(
            lambda: {"count": 0, "loc": None}
        )
        for usage in param_usages:
            deps = _conditions_for_usage(result, branches, usage, param)
            for (dep_param, op, value), loc in deps.items():
                entry = candidates[(dep_param, op, value)]
                entry["count"] += 1
                if entry["loc"] is None:
                    entry["loc"] = loc
        total = len(param_usages)
        if total == 0:
            continue
        for (dep_param, op, value), entry in sorted(
            candidates.items(), key=lambda kv: str(kv[0])
        ):
            confidence = entry["count"] / total
            if confidence + 1e-9 < threshold:
                continue
            constraints.add(
                ControlDepConstraint(
                    param,
                    entry["loc"],
                    dep_param=dep_param,
                    op=op,
                    value=value,
                    confidence=confidence,
                )
            )


def _conditions_for_usage(
    result: AnalysisResult,
    branches: dict,
    usage: UsageEvent,
    param: str,
) -> dict[tuple[str, str, object], object]:
    """All (P, op, V) conditions guarding one usage of `param`.

    Walks the intra-procedural control dependences of the usage block
    plus, for each call-chain hop, the control dependences of the call
    site in its caller.
    """
    found: dict[tuple[str, str, object], object] = {}
    hops = [(usage.function, usage.block)]
    for site in usage.chain:
        hops.append((site.caller, site.block))
    for function, block in hops:
        if not result.module.has_function(function):
            continue
        cfg = result.cfg(function)
        # Hash-ordered set: iterate sorted so the location recorded for
        # a repeated (P, op, V) never depends on the hash seed.
        for cdep in sorted(
            cfg.transitive_controlling(block),
            key=lambda d: (d.branch_block, d.edge_label),
        ):
            event = branches.get((function, cdep.branch_block))
            if event is None:
                continue
            oriented = _orient(event, param)
            if oriented is None:
                continue
            dep_param, op, value = oriented
            if cdep.edge_label == event.false_label:
                op = negate_op(op)
            elif cdep.edge_label != event.true_label:
                continue
            found.setdefault((dep_param, op, value), event.location)
    # A condition reachable through both of its own edges says nothing:
    # drop (P, op, V) when its negation was also collected (transitive
    # closure through sibling branches produces such vacuous pairs).
    for (dep_param, op, value) in list(found):
        if (dep_param, negate_op(op), value) in found:
            del found[(dep_param, op, value)]
    return found


def _orient(event: BranchCondEvent, exclude_param: str):
    """(P, op, V) with P on the left; None if not a P-vs-const test."""
    left = event.left.labels.within_hops(_DEP_MAX_HOPS) - {exclude_param}
    right = event.right.labels.within_hops(_DEP_MAX_HOPS) - {exclude_param}
    left = {p for p in left if not p.startswith("__SPEX_")}
    right = {p for p in right if not p.startswith("__SPEX_")}
    if left and event.right.is_const and not right:
        return (sorted(left)[0], event.op, event.right.const)
    if right and event.left.is_const and not left:
        return (sorted(right)[0], flip_op(event.op), event.left.const)
    return None
