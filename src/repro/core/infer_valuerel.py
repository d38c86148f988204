"""Value-relationship inference (§2.2.5).

Two parameters' values can be mutually constrained:

* **direct** - a comparison whose two sides carry different parameters
  (P ⋄ Q);
* **transited** - both parameters compared against one intermediate
  variable inside one condition conjunction (the MySQL
  ``ft_min_word_len``/``ft_max_word_len`` example of Figure 3f:
  ``length >= min && length < max``  =>  ``min < max``).

Transitivity is bounded: "In the current prototype of SPEX, we only
check one intermediate variable" - enforced here via the copy-hop
count on labels and a configurable depth.
"""

from __future__ import annotations

from itertools import combinations

from repro.analysis import AnalysisResult
from repro.analysis.events import BranchCondEvent
from repro.core.constraints import ConstraintSet, ValueRelConstraint
from repro.core.events_util import canonical_branch_events, flip_op


def infer_value_relationships(
    result: AnalysisResult,
    constraints: ConstraintSet,
    max_transit_hops: int,
) -> None:
    events = [
        e
        for e in canonical_branch_events(result.events_of(BranchCondEvent))
        if e.op in ("<", ">", "<=", ">=")
    ]
    seen: set[tuple[str, str, str]] = set()

    _infer_direct(events, constraints, seen, max_transit_hops, result)
    _infer_transited(result, events, constraints, seen, max_transit_hops)


def _add(constraints, seen, rel: ValueRelConstraint) -> None:
    rel = rel.normalized()
    key = (rel.param, rel.op, rel.other_param)
    if key in seen:
        return
    seen.add(key)
    constraints.add(rel)


def _infer_direct(events, constraints, seen, max_hops, result=None) -> None:
    for event in events:
        left = _clean(event.left.labels.within_hops(max_hops))
        right = _clean(event.right.labels.within_hops(max_hops))
        if not left or not right:
            continue
        op = event.op
        # Validity (§2.2.5 "in a manner similar to range-constraint
        # inference"): when the region where the comparison HOLDS
        # exits/errors/resets, the required relation is its negation -
        # `if (max < min) exit(1)` means max >= min must hold.
        if result is not None:
            op = _required_op(result, event)
        for p in sorted(left):
            for q in sorted(right):
                if p == q:
                    continue
                _add(
                    constraints,
                    seen,
                    ValueRelConstraint(p, event.location, op=op, other_param=q),
                )


def _required_op(result, event) -> str:
    from repro.analysis.events import StoreEvent
    from repro.core.events_util import negate_op
    from repro.core.infer_range import region_behavior
    from repro.knowledge import default_knowledge

    knowledge = default_knowledge()
    cfg = result.cfg(event.function)
    union = event.left.labels.names() | event.right.labels.names()
    param = sorted(union)[0] if union else ""
    true_region = cfg.region_of_edge(event.block, event.true_label)
    if region_behavior(result, knowledge, event.function, true_region, param).is_invalid:
        return negate_op(event.op)
    # Correction pattern: the guarded region rewrites one of the
    # compared parameters (`if (lo >= hi) hi = lo + 1`) - the state
    # that triggered the rewrite is the invalid one.
    for store in result.events_of(StoreEvent):
        if store.function != event.function or store.block not in true_region:
            continue
        if store.target_labels.names() & union:
            return negate_op(event.op)
    return event.op


def _infer_transited(result, events, constraints, seen, max_hops) -> None:
    """X ⋄₁ P and X ⋄₂ Q inside one conjunction imply P ⋄ Q."""
    by_function: dict[str, list[BranchCondEvent]] = {}
    for event in events:
        by_function.setdefault(event.function, []).append(event)

    for function, fn_events in sorted(by_function.items()):
        for e1, e2 in combinations(fn_events, 2):
            pair = _common_variable_pair(e1, e2, max_hops)
            if pair is None:
                continue
            if not _conjoined(result, function, e1, e2):
                continue
            (p, p_rel), (q, q_rel) = pair
            rel = _combine(p, p_rel, q, q_rel)
            if rel is not None:
                _add(
                    constraints,
                    seen,
                    ValueRelConstraint(
                        rel[0], e1.location, op=rel[1], other_param=rel[2]
                    ),
                )


def _clean(names: set[str]) -> set[str]:
    return {n for n in names if not n.startswith("__SPEX_")}


def _normalize(event: BranchCondEvent, max_hops):
    """Return (origin, op, params): `origin op (params side)` with the
    unlabeled common variable on the left."""
    left = _clean(event.left.labels.within_hops(max_hops))
    right = _clean(event.right.labels.within_hops(max_hops))
    if event.left.origin is not None and not left and right:
        return (event.left.origin, event.op, right)
    if event.right.origin is not None and not right and left:
        return (event.right.origin, flip_op(event.op), left)
    return None


def _common_variable_pair(e1, e2, max_hops):
    n1 = _normalize(e1, max_hops)
    n2 = _normalize(e2, max_hops)
    if n1 is None or n2 is None:
        return None
    origin1, op1, params1 = n1
    origin2, op2, params2 = n2
    if origin1 != origin2:
        return None
    if params1 & params2:
        return None
    p = sorted(params1)[0]
    q = sorted(params2)[0]
    return ((p, op1), (q, op2))


def _conjoined(result: AnalysisResult, function: str, e1, e2) -> bool:
    """Are the two comparisons part of one condition conjunction?
    True when one branch's block is controlled by the other's true
    edge (how short-circuit && lowers)."""
    cfg = result.cfg(function)
    for a, b in ((e1, e2), (e2, e1)):
        region = cfg.controlled_by(a.block, a.true_label)
        if b.block in region:
            return True
    return False


def _combine(p: str, p_rel: str, q: str, q_rel: str):
    """X p_rel P and X q_rel Q  =>  relation between P and Q.

    `X >= P` places P at-or-below X; `X < Q` places Q strictly above:
    together P < Q.
    """
    below = {">": "strict", ">=": "loose"}  # X > P  => P below X
    above = {"<": "strict", "<=": "loose"}  # X < Q  => Q above X
    if p_rel in below and q_rel in above:
        strict = below[p_rel] == "strict" or above[q_rel] == "strict"
        return (p, "<" if strict else "<=", q)
    if p_rel in above and q_rel in below:
        strict = above[p_rel] == "strict" or below[q_rel] == "strict"
        return (p, ">" if strict else ">=", q)
    return None
