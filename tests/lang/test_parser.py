"""Unit tests for the MiniC parser."""

import pytest

from repro.lang import types as ct
from repro.lang.ast_nodes import (
    Assign,
    Binary,
    Block,
    Call,
    Cast,
    Conditional,
    ExprStmt,
    For,
    FunctionDef,
    Identifier,
    If,
    Index,
    InitList,
    IntLiteral,
    Member,
    Return,
    StringLiteral,
    StructDecl,
    Switch,
    Unary,
    VarDecl,
    While,
)
from repro.lang.errors import ParseError
from repro.lang.parser import parse_source


def parse_expr(text):
    ast = parse_source(f"void f() {{ {text}; }}")
    fn = ast.functions[0]
    stmt = fn.body.statements[0]
    assert isinstance(stmt, ExprStmt)
    return stmt.expr


def parse_stmt(text):
    ast = parse_source(f"void f() {{ {text} }}")
    return ast.functions[0].body.statements[0]


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("a + b * c")
        assert isinstance(expr, Binary)
        assert expr.op == "+"
        assert isinstance(expr.right, Binary)
        assert expr.right.op == "*"

    def test_precedence_comparison_over_logic(self):
        expr = parse_expr("a < b && c > d")
        assert expr.op == "&&"
        assert expr.left.op == "<"
        assert expr.right.op == ">"

    def test_assignment_right_associative(self):
        expr = parse_expr("a = b = 1")
        assert isinstance(expr, Assign)
        assert isinstance(expr.value, Assign)

    def test_compound_assignment(self):
        expr = parse_expr("a += 2")
        assert isinstance(expr, Assign)
        assert expr.op == "+="

    def test_ternary(self):
        expr = parse_expr("a ? b : c")
        assert isinstance(expr, Conditional)

    def test_call_with_args(self):
        expr = parse_expr('open("f", 0)')
        assert isinstance(expr, Call)
        assert expr.callee == "open"
        assert len(expr.args) == 2
        assert isinstance(expr.args[0], StringLiteral)

    def test_member_and_arrow(self):
        expr = parse_expr("cfg.field")
        assert isinstance(expr, Member)
        assert not expr.arrow
        expr = parse_expr("ptr->field")
        assert expr.arrow

    def test_chained_member(self):
        expr = parse_expr("a.b.c")
        assert isinstance(expr, Member)
        assert expr.field_name == "c"
        assert isinstance(expr.base, Member)

    def test_index(self):
        expr = parse_expr("arr[i + 1]")
        assert isinstance(expr, Index)
        assert isinstance(expr.index, Binary)

    def test_cast(self):
        expr = parse_expr("(int)x")
        assert isinstance(expr, Cast)
        assert expr.type == ct.INT

    def test_cast_vs_paren(self):
        expr = parse_expr("(x)")
        assert isinstance(expr, Identifier)

    def test_pointer_cast(self):
        expr = parse_expr("(char*)x")
        assert isinstance(expr, Cast)
        assert expr.type == ct.STRING

    def test_address_of_and_deref(self):
        expr = parse_expr("*p")
        assert isinstance(expr, Unary)
        assert expr.op == "*"
        expr = parse_expr("&v")
        assert expr.op == "&"

    def test_unary_minus_folds_nothing(self):
        expr = parse_expr("-x")
        assert isinstance(expr, Unary)
        assert expr.op == "-"

    def test_string_concatenation(self):
        expr = parse_expr('"a" "b"')
        assert isinstance(expr, StringLiteral)
        assert expr.value == "ab"


class TestStatements:
    def test_if_else_ladder(self):
        stmt = parse_stmt("if (a) { } else if (b) { } else { }")
        assert isinstance(stmt, If)
        assert isinstance(stmt.other, If)
        assert stmt.other.other is not None

    def test_while_loop(self):
        stmt = parse_stmt("while (i < 10) { i = i + 1; }")
        assert isinstance(stmt, While)

    def test_for_loop_with_decl(self):
        stmt = parse_stmt("for (int i = 0; i < 10; i++) { }")
        assert isinstance(stmt, For)
        assert isinstance(stmt.init, VarDecl)

    def test_for_loop_empty_clauses(self):
        stmt = parse_stmt("for (;;) { break; }")
        assert isinstance(stmt, For)
        assert stmt.init is None
        assert stmt.cond is None

    def test_switch_with_cases_and_default(self):
        stmt = parse_stmt(
            "switch (x) { case 1: a = 1; break; case 2: a = 2; break; default: a = 0; }"
        )
        assert isinstance(stmt, Switch)
        assert len(stmt.cases) == 3
        assert stmt.cases[2].value is None

    def test_local_decl_with_init(self):
        stmt = parse_stmt("int x = 5;")
        assert isinstance(stmt, VarDecl)
        assert isinstance(stmt.init, IntLiteral)

    def test_multi_declarator(self):
        stmt = parse_stmt("int x = 1, y = 2;")
        assert isinstance(stmt, Block)
        assert len(stmt.statements) == 2

    def test_return_value(self):
        stmt = parse_stmt("return 42;")
        assert isinstance(stmt, Return)
        assert stmt.value.value == 42


class TestTopLevel:
    def test_function_definition(self):
        ast = parse_source("int add(int a, int b) { return a + b; }")
        fn = ast.functions[0]
        assert fn.name == "add"
        assert fn.return_type == ct.INT
        assert [p.name for p in fn.params] == ["a", "b"]

    def test_function_prototype(self):
        ast = parse_source("extern int open(char *path, int flags);")
        fn = ast.declarations[0]
        assert isinstance(fn, FunctionDef)
        assert fn.is_declaration

    def test_variadic_prototype(self):
        ast = parse_source("extern int printf(char *fmt, ...);")
        assert ast.declarations[0].variadic

    def test_struct_declaration(self):
        ast = parse_source("struct point { int x; int y; char *label; };")
        decl = ast.declarations[0]
        assert isinstance(decl, StructDecl)
        assert [f.name for f in decl.fields] == ["x", "y", "label"]
        assert decl.fields[2].type == ct.STRING

    def test_global_with_initializer(self):
        ast = parse_source("int max_conns = 100;")
        decl = ast.globals[0]
        assert decl.name == "max_conns"
        assert decl.init.value == 100

    def test_global_struct_array_table(self):
        # The PostgreSQL-style mapping table from Figure 4(a).
        ast = parse_source(
            """
            struct config_int { char *name; int *var; int def; int min; int max; };
            int DeadlockTimeout = 1000;
            struct config_int ConfigureNamesInt[] = {
                { "deadlock_timeout", &DeadlockTimeout, 1000, 1, 100000 },
            };
            """
        )
        table = ast.globals[1]
        assert table.name == "ConfigureNamesInt"
        assert isinstance(table.init, InitList)
        row = table.init.items[0]
        assert isinstance(row, InitList)
        assert isinstance(row.items[0], StringLiteral)
        assert row.items[0].value == "deadlock_timeout"
        assert isinstance(row.items[1], Unary)
        assert row.items[1].op == "&"

    def test_enum_constants_fold(self):
        ast = parse_source(
            """
            enum modes { MODE_OFF = 0, MODE_ON = 1, MODE_AUTO };
            int x = MODE_AUTO;
            """
        )
        decl = ast.globals[0]
        assert isinstance(decl.init, IntLiteral)
        assert decl.init.value == 2

    def test_typedef(self):
        ast = parse_source(
            """
            typedef unsigned int uint32_t;
            uint32_t counter = 0;
            """
        )
        decl = ast.globals[0]
        assert decl.type == ct.IntType(32, signed=False)

    def test_syntax_error_reports_location(self):
        with pytest.raises(ParseError) as err:
            parse_source("int f( { }")
        assert err.value.location is not None


class TestProgramLinking:
    def test_program_links_files(self):
        from repro.lang.program import Program

        program = Program.from_sources(
            {
                "a.c": "int shared = 1; int helper(int x) { return x + shared; }",
                "b.c": "extern int helper(int x); int main() { return helper(41); }",
            }
        )
        assert program.has_function("helper")
        assert program.has_function("main")
        assert "shared" in program.globals
        assert "helper" in program.prototypes or program.has_function("helper")

    def test_duplicate_function_rejected(self):
        from repro.lang.errors import SemanticError
        from repro.lang.program import Program

        with pytest.raises(SemanticError):
            Program.from_sources(
                {"a.c": "int f() { return 1; }", "b.c": "int f() { return 2; }"}
            )

    def test_loc_counting_skips_comments(self):
        from repro.lang.source import SourceFile

        src = SourceFile(
            "x.c",
            "// comment\nint a;\n\n/* block\n   comment */\nint b; /* tail */\n",
        )
        assert src.count_code_lines() == 2
