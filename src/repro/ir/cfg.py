"""CFG analyses: reachability, dominators, postdominators, control
dependence.

Control dependence is the backbone of two SPEX passes: range-validity
(what happens *inside* the guarded region - exit/abort/reset?) and
control-dependency constraints ((P,V,⋄) -> Q).  Implemented with the
classic Ferrante-Ottenstein-Warren construction on the postdominator
tree of the reversed CFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.function import IRFunction
from repro.ir.instructions import Branch, SwitchInst

_VIRTUAL_EXIT = "__exit__"


def reachable_blocks(fn: IRFunction) -> list[str]:
    """Labels reachable from entry, in DFS order."""
    seen: list[str] = []
    seen_set: set[str] = set()
    stack = [fn.entry_label]
    while stack:
        label = stack.pop()
        if label in seen_set:
            continue
        seen_set.add(label)
        seen.append(label)
        for succ in reversed(fn.blocks[label].successors()):
            stack.append(succ)
    return seen


def compute_dominators(fn: IRFunction) -> dict[str, set[str]]:
    """dom[b] = set of blocks dominating b (including b)."""
    blocks = reachable_blocks(fn)
    preds = fn.predecessors()
    all_blocks = set(blocks)
    dom: dict[str, set[str]] = {b: set(all_blocks) for b in blocks}
    dom[fn.entry_label] = {fn.entry_label}
    changed = True
    while changed:
        changed = False
        for b in blocks:
            if b == fn.entry_label:
                continue
            real_preds = [p for p in preds[b] if p in all_blocks]
            if real_preds:
                new = set.intersection(*(dom[p] for p in real_preds))
            else:
                new = set()
            new.add(b)
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


def compute_postdominators(fn: IRFunction) -> dict[str, set[str]]:
    """pdom[b] over the reversed CFG with a virtual unified exit."""
    blocks = reachable_blocks(fn)
    block_set = set(blocks)
    succs: dict[str, list[str]] = {}
    for label in blocks:
        succs[label] = [s for s in fn.blocks[label].successors() if s in block_set]
    # Exit nodes: no successors (ret/unreachable) -> virtual exit.
    rev_preds: dict[str, list[str]] = {b: [] for b in blocks}
    rev_preds[_VIRTUAL_EXIT] = []
    for label in blocks:
        if not succs[label]:
            rev_preds[_VIRTUAL_EXIT].append(label)
    # Postdominance = dominance on reverse edges from virtual exit.
    all_nodes = blocks + [_VIRTUAL_EXIT]
    pdom: dict[str, set[str]] = {b: set(all_nodes) for b in all_nodes}
    pdom[_VIRTUAL_EXIT] = {_VIRTUAL_EXIT}
    # successors in the reverse graph = predecessors in the forward graph
    fwd_preds = {b: [] for b in all_nodes}
    for label in blocks:
        for s in succs[label]:
            fwd_preds[s].append(label)

    def reverse_preds(node: str) -> list[str]:
        """Predecessors of `node` in the reversed CFG = fwd successors."""
        if node == _VIRTUAL_EXIT:
            return rev_preds[_VIRTUAL_EXIT]
        out = list(succs[node])
        return out

    changed = True
    while changed:
        changed = False
        for b in blocks:
            rp = reverse_preds(b)
            if rp:
                new = set.intersection(*(pdom[p] for p in rp))
            else:
                new = set()
            new.add(b)
            if new != pdom[b]:
                pdom[b] = new
                changed = True
    for b in pdom:
        pdom[b].discard(_VIRTUAL_EXIT)
    return pdom


@dataclass(frozen=True)
class ControlDep:
    """Block `dependent` executes only when `branch_block` takes
    `edge_label` (a successor label of the branch)."""

    branch_block: str
    edge_label: str


def compute_control_dependence(
    fn: IRFunction, pdom: dict[str, set[str]] | None = None
) -> dict[str, set[ControlDep]]:
    """For each block, the set of controlling (branch, edge) pairs.

    Edge (A -> B): every block on the postdominator-tree path from B up
    to but excluding ipdom(A) is control-dependent on A via that edge.
    `pdom` is `compute_postdominators(fn)` when the caller has it.
    """
    blocks = reachable_blocks(fn)
    block_set = set(blocks)
    if pdom is None:
        pdom = compute_postdominators(fn)
    result: dict[str, set[ControlDep]] = {b: set() for b in blocks}

    for a in blocks:
        term = fn.blocks[a].terminator
        if not isinstance(term, (Branch, SwitchInst)):
            continue
        for b in fn.blocks[a].successors():
            if b not in block_set:
                continue
            if b in pdom[a]:
                continue  # b postdominates a: taking this edge decides nothing
            # All nodes that postdominate b but do not strictly
            # postdominate a are control-dependent on edge (a, b); this
            # includes a itself for loop back-edges.
            below_b = _pdoms_of(pdom, b)
            strictly_below_a = _strict_pdoms_of(pdom, a)
            for node in blocks:
                if node in below_b and node not in strictly_below_a:
                    result[node].add(ControlDep(a, b))
    return result


def _pdoms_of(pdom: dict[str, set[str]], b: str) -> set[str]:
    return pdom.get(b, set())


def _strict_pdoms_of(pdom: dict[str, set[str]], a: str) -> set[str]:
    return pdom.get(a, set()) - {a}


@dataclass
class CfgInfo:
    """Memoized CFG facts for one function."""

    fn: IRFunction
    dominators: dict[str, set[str]] = field(default_factory=dict)
    postdominators: dict[str, set[str]] = field(default_factory=dict)
    control_deps: dict[str, set[ControlDep]] = field(default_factory=dict)

    @classmethod
    def for_function(cls, fn: IRFunction) -> "CfgInfo":
        postdominators = compute_postdominators(fn)
        return cls(
            fn=fn,
            dominators=compute_dominators(fn),
            postdominators=postdominators,
            control_deps=compute_control_dependence(fn, postdominators),
        )

    def controlled_by(self, branch_block: str, edge_label: str) -> set[str]:
        dep = ControlDep(branch_block, edge_label)
        return {
            label for label, deps in self.control_deps.items() if dep in deps
        }

    def region_of_edge(self, branch_block: str, edge_label: str) -> set[str]:
        """Transitive closure of `controlled_by`: every block that can
        only execute when the edge was taken, through any further
        nesting.  (FOW control dependence is immediate-level only.)"""
        region = self.controlled_by(branch_block, edge_label)
        changed = True
        while changed:
            changed = False
            for label, deps in self.control_deps.items():
                if label in region:
                    continue
                if any(d.branch_block in region for d in deps):
                    region.add(label)
                    changed = True
        return region

    def transitive_controlling(self, label: str) -> set[ControlDep]:
        """All branches controlling `label`, through any nesting depth
        (FOW control dependence is immediate-level only; a usage three
        ifs deep is guarded by all three conditions)."""
        out: set[ControlDep] = set()
        frontier = [label]
        seen_blocks: set[str] = set()
        while frontier:
            block = frontier.pop()
            if block in seen_blocks:
                continue
            seen_blocks.add(block)
            for dep in self.control_deps.get(block, set()):
                if dep not in out:
                    out.add(dep)
                    frontier.append(dep.branch_block)
        return out
