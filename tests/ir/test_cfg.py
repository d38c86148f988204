"""Unit tests for dominators, postdominators, control dependence."""

from repro.ir import build_ir
from repro.ir.cfg import (
    CfgInfo,
    compute_control_dependence,
    compute_dominators,
    compute_postdominators,
    reachable_blocks,
)
from repro.ir.instructions import Branch
from repro.lang.program import Program


def build_fn(source, name="f"):
    module = build_ir(Program.from_sources({"t.c": source}))
    return module.function(name)


def branch_blocks(fn):
    return [
        block.label
        for block in fn.block_order()
        if isinstance(block.terminator, Branch)
    ]


class TestDominators:
    def test_entry_dominates_all(self):
        fn = build_fn("int f(int v) { if (v) { v = 1; } return v; }")
        dom = compute_dominators(fn)
        for label in reachable_blocks(fn):
            assert fn.entry_label in dom[label]

    def test_then_block_dominated_by_branch(self):
        fn = build_fn("int f(int v) { if (v > 2) { v = 9; } return v; }")
        dom = compute_dominators(fn)
        then_label = next(lbl for lbl in fn.blocks if lbl.startswith("if.then"))
        assert fn.entry_label in dom[then_label]

    def test_immediate_dominator_of_entry_is_none(self):
        # The entry has no strict dominator, so no immediate one.
        fn = build_fn("int f() { return 0; }")
        dom = compute_dominators(fn)
        assert dom[fn.entry_label] == {fn.entry_label}

    def test_idom_chain(self):
        fn = build_fn(
            "int f(int v) { if (v) { if (v > 2) { v = 1; } } return v; }"
        )
        dom = compute_dominators(fn)
        inner_then = [lbl for lbl in fn.blocks if lbl.startswith("if.then")]
        # Every reachable then-block has a strict dominator, hence an
        # immediate one.
        reachable = set(reachable_blocks(fn))
        for lbl in inner_then:
            if lbl in reachable:
                assert dom[lbl] - {lbl}


class TestPostdominators:
    def test_merge_block_postdominates_branch(self):
        fn = build_fn("int f(int v) { if (v) { v = 1; } return v; }")
        pdom = compute_postdominators(fn)
        merge = next(lbl for lbl in fn.blocks if lbl.startswith("if.end"))
        assert merge in pdom[fn.entry_label]

    def test_then_block_does_not_postdominate_entry(self):
        fn = build_fn("int f(int v) { if (v) { v = 1; } return v; }")
        pdom = compute_postdominators(fn)
        then_label = next(lbl for lbl in fn.blocks if lbl.startswith("if.then"))
        assert then_label not in pdom[fn.entry_label]


class TestControlDependence:
    def test_then_block_control_dependent_on_branch(self):
        fn = build_fn("int f(int v) { if (v > 4) { v = 0; } return v; }")
        cdeps = compute_control_dependence(fn)
        then_label = next(lbl for lbl in fn.blocks if lbl.startswith("if.then"))
        branch = branch_blocks(fn)[0]
        deps = cdeps[then_label]
        assert any(d.branch_block == branch for d in deps)

    def test_else_and_then_depend_on_opposite_edges(self):
        fn = build_fn(
            "int f(int v) { if (v > 4) { v = 1; } else { v = 2; } return v; }"
        )
        info = CfgInfo.for_function(fn)
        branch = branch_blocks(fn)[0]
        term = fn.blocks[branch].terminator
        then_set = info.controlled_by(branch, term.true_label)
        else_set = info.controlled_by(branch, term.false_label)
        assert then_set and else_set
        assert not (then_set & else_set)

    def test_merge_block_not_control_dependent(self):
        fn = build_fn("int f(int v) { if (v > 4) { v = 0; } return v; }")
        cdeps = compute_control_dependence(fn)
        merge = next(lbl for lbl in fn.blocks if lbl.startswith("if.end"))
        branch = branch_blocks(fn)[0]
        assert all(d.branch_block != branch for d in cdeps.get(merge, set()))

    def test_nested_dependence(self):
        fn = build_fn(
            """
            int f(int a, int b) {
                if (a) {
                    if (b) { return 1; }
                }
                return 0;
            }
            """
        )
        info = CfgInfo.for_function(fn)
        branches = branch_blocks(fn)
        assert len(branches) == 2
        inner_branch = branches[1]
        # The inner branch block itself depends on the outer branch.
        outer_deps = info.control_deps.get(inner_branch, set())
        assert any(d.branch_block == branches[0] for d in outer_deps)

    def test_loop_body_control_dependent_on_header(self):
        fn = build_fn("int f(int n) { int i = 0; while (i < n) { i++; } return i; }")
        info = CfgInfo.for_function(fn)
        body = next(lbl for lbl in fn.blocks if lbl.startswith("while.body"))
        header_branch = branch_blocks(fn)[0]
        assert any(
            d.branch_block == header_branch
            for d in info.control_deps.get(body, set())
        )
