"""Unit tests for AST -> IR lowering."""

from repro.ir import build_ir
from repro.ir.instructions import (
    Assign,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Cast,
    Jump,
    LoadField,
    Ret,
    StoreField,
    SwitchInst,
)
from repro.ir.values import Const, Temp, Variable
from repro.lang.program import Program


def build(source):
    return build_ir(Program.from_sources({"t.c": source}))


def insts_of(module, fn_name, kind=None):
    out = list(module.function(fn_name).instructions())
    if kind is not None:
        out = [i for i in out if isinstance(i, kind)]
    return out


class TestBasicLowering:
    def test_simple_function_has_entry_and_ret(self):
        module = build("int f() { return 1; }")
        fn = module.function("f")
        assert fn.entry_label in fn.blocks
        rets = insts_of(module, "f", Ret)
        assert len(rets) == 1
        assert isinstance(rets[0].value, Const)

    def test_params_are_variables(self):
        module = build("int f(int a, char *b) { return a; }")
        fn = module.function("f")
        assert [p.name for p in fn.params] == ["a", "b"]
        assert fn.params[0].kind == "param"
        assert fn.params[0].param_index == 0

    def test_assignment_emits_store(self):
        module = build("int g; int f() { g = 5; return g; }")
        stores = [
            i
            for i in insts_of(module, "f", Assign)
            if isinstance(i.dest, Variable) and i.dest.name == "g"
        ]
        assert len(stores) == 1
        assert isinstance(stores[0].src, Const)

    def test_cast_preserved(self):
        module = build("int f(char *s) { return (int)strtol(s, NULL, 10); }")
        casts = insts_of(module, "f", Cast)
        assert len(casts) == 1
        assert str(casts[0].type) == "int"

    def test_call_lowered_with_args(self):
        module = build('int f() { return open("/etc/x", 0); }')
        calls = insts_of(module, "f", Call)
        assert calls[0].callee == "open"
        assert calls[0].args[0] == Const("/etc/x")

    def test_indirect_call_lowered(self):
        module = build(
            """
            struct cmd { char *name; void *fn; };
            struct cmd table[2];
            int f(int i) { return table[i].fn(1); }
            """
        )
        indirect = insts_of(module, "f", CallIndirect)
        assert len(indirect) == 1


class TestFieldPaths:
    def test_store_field_path_rooted_at_global(self):
        module = build(
            """
            struct conf { int timeout; };
            struct conf cfg;
            int f() { cfg.timeout = 30; return 0; }
            """
        )
        stores = insts_of(module, "f", StoreField)
        assert len(stores) == 1
        assert isinstance(stores[0].base, Variable)
        assert stores[0].base.name == "cfg"
        assert stores[0].path == ("timeout",)

    def test_nested_field_path(self):
        module = build(
            """
            struct inner { int x; };
            struct outer { struct inner in; };
            struct outer cfg;
            int f() { return cfg.in.x; }
            """
        )
        loads = insts_of(module, "f", LoadField)
        assert loads[0].path == ("in", "x")

    def test_arrow_on_param_keeps_variable_root(self):
        # The OpenLDAP config_generic(ConfigArgs *c) pattern.
        module = build(
            """
            struct args { int value_int; };
            int f(struct args *c) { return c->value_int; }
            """
        )
        loads = insts_of(module, "f", LoadField)
        assert isinstance(loads[0].base, Variable)
        assert loads[0].base.kind == "param"
        assert loads[0].path == ("value_int",)


class TestControlFlowLowering:
    def test_if_creates_branch_with_compare_info(self):
        module = build("int f(int v) { if (v < 4) { return 1; } return 0; }")
        branches = insts_of(module, "f", Branch)
        assert len(branches) == 1
        info = branches[0].cond_info
        assert info is not None
        assert info.op == "<"
        assert info.right == Const(4)

    def test_plain_condition_gets_nonzero_compare(self):
        module = build("int f(int v) { if (v) { return 1; } return 0; }")
        info = insts_of(module, "f", Branch)[0].cond_info
        assert info.op == "!="
        assert info.right == Const(0)

    def test_logical_and_creates_two_branches(self):
        module = build(
            "int f(int a, int b) { if (a > 1 && b < 9) { return 1; } return 0; }"
        )
        branches = insts_of(module, "f", Branch)
        assert len(branches) == 2
        ops = {b.cond_info.op for b in branches}
        assert ops == {">", "<"}

    def test_while_loop_structure(self):
        module = build("int f() { int i = 0; while (i < 3) { i = i + 1; } return i; }")
        fn = module.function("f")
        labels = set(fn.blocks)
        assert any(lbl.startswith("while.cond") for lbl in labels)
        assert any(lbl.startswith("while.body") for lbl in labels)

    def test_switch_lowering(self):
        module = build(
            """
            int f(int v) {
                switch (v) {
                    case 1: return 10;
                    case 2: return 20;
                    default: return 0;
                }
            }
            """
        )
        switches = insts_of(module, "f", SwitchInst)
        assert len(switches) == 1
        assert len(switches[0].cases) == 2
        assert switches[0].default_label is not None

    def test_ternary_becomes_branches(self):
        module = build("int f(int v) { return v > 64 ? 64 : v; }")
        branches = insts_of(module, "f", Branch)
        assert len(branches) == 1
        assert branches[0].cond_info.op == ">"

    def test_unreachable_code_after_return_is_dead_block(self):
        module = build("int f() { return 1; exit(0); }")
        from repro.ir.cfg import reachable_blocks

        fn = module.function("f")
        reachable = set(reachable_blocks(fn))
        dead = [lbl for lbl in fn.blocks if lbl not in reachable]
        assert dead  # the exit(0) landed in an unreachable block


class TestModuleLevel:
    def test_globals_registered(self):
        module = build("int a = 1; char *b;")
        assert "a" in module.globals
        assert module.globals["a"].kind == "global"
        assert "a" in module.global_inits

    def test_prototypes_not_lowered(self):
        module = build("extern int open(char *p, int f); int main() { return 0; }")
        assert not module.has_function("open")
        assert module.has_function("main")

    def test_printer_roundtrip_smoke(self):
        # Every lowered instruction renders as text (the IR's debug form).
        module = build("int f(int v) { if (v > 2) { return v; } return 0; }")
        assert module.has_function("f")
        fn = module.function("f")
        text = "\n".join(
            str(inst) for block in fn.block_order() for inst in block.instructions
        )
        assert "br" in text
