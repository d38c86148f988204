"""What snapshot restores share by reference (`repro.runtime.snapshot`).

A boot's option tables are written once, by global initialization, and
the emulated file system's nodes are frozen; both ride every capture,
resume and global-init template restore by reference.  These tests pin
the syntactic constant-global pass that licenses sharing a table, the
sharing itself, and that a write after the boot boundary - through a
table's pointers, into a table that is not constant, or into a file -
stays private to the launch that made it.
"""

import pytest

from repro.lang.program import Program
from repro.obs.metrics import get_registry
from repro.runtime.interpreter import InterpreterOptions
from repro.runtime.os_model import EmulatedOS
from repro.runtime.process import run_program
from repro.runtime.snapshot import (
    BootRecord,
    BootStats,
    StateBundleCopier,
    boot_launch,
    constant_globals,
)
from repro.runtime.values import GlobalSlot, Pointer

ENGINES = ("codegen", "tree")

TABLE = """
struct rec { char *name; int *var; int lo; int k; };
int alpha = 1;
int beta = 2;
struct rec tab[2] = {{"alpha", &alpha, 0, 10}, {"beta", &beta, 5, 20}};
int set(char *key, int v) {
    int i;
    for (i = 0; i < 2; i++) {
        if (strcmp(key, tab[i].name) == 0) {
            if (v < tab[i].lo) { v = tab[i].lo; }
            *tab[i].var = v;
            return i;
        }
    }
    return -1;
}
"""


def _program(body: str, helpers: str = "") -> Program:
    return Program.from_sources(
        {"main.c": TABLE + helpers + "int main() {\n" + body + "\n}\n"}
    )


def _warm_runs(program, engine, count=4):
    """`count` launches of one boot record, each with one request."""
    record, stats = BootRecord(), BootStats()
    options = InterpreterOptions(engine=engine)
    results = [
        boot_launch(
            program, EmulatedOS, None, options, record,
            requests=["r"], stats=stats,
        )
        for _ in range(count)
    ]
    return results, record, stats


def _cold(program, engine):
    os_model = EmulatedOS()
    os_model.queue_requests(["r"])
    return run_program(
        program, os_model,
        options=InterpreterOptions(engine=engine, warm_boot=False),
    )


def _logs(result) -> list[str]:
    return [str(record) for record in result.logs]


class TestConstantGlobals:
    def test_read_only_table_is_constant(self):
        program = _program('set("beta", 1); return alpha + beta;')
        constants = constant_globals(program)
        assert "tab" in constants
        # The table's targets are written through its pointers.
        assert "alpha" not in constants and "beta" not in constants
        assert constant_globals(program) is constants  # memoized

    @pytest.mark.parametrize("use", [
        "tab[0].lo = 1;",
        "tab[1].k += 2;",
        "tab[0].k++;",
        "--tab[1].lo;",
        "struct rec *p = &tab[0];",
        "int *q = &tab[1].k;",
        "sink(tab);",
        "struct rec *p = tab;",
        "struct rec o = tab[0];",
        "return tab[0] == 0;",
    ])
    def test_each_disqualifier_makes_it_written(self, use):
        program = _program(use, helpers="int sink(struct rec *t) { return 0; }\n")
        assert "tab" not in constant_globals(program)

    def test_initializer_aliasing_disqualifies(self):
        program = Program.from_sources({"main.c": TABLE + (
            "struct rec *first = tab;\n"
            "int main() { return tab[0].k; }\n"
        )})
        assert "tab" not in constant_globals(program)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_struct_assignment_aliases_the_row(self, engine):
        """MiniC struct assignment shares the row, so a write through
        the copy is a write into the table - why a whole-element use
        disqualifies."""
        program = _program(
            'struct rec o = tab[0]; o.k = 5; printf("%d\\n", tab[0].k);'
        )
        result = run_program(program, options=InterpreterOptions(engine=engine))
        assert _logs(result) == ["[stdout] 5"]


class TestSharedByReference:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_constant_table_rides_every_restore(self, engine):
        program = _program(
            'set("alpha", 3); recv_request(); set("beta", 9);'
            ' printf("%d %d\\n", alpha, beta); return 0;'
        )
        results, record, stats = _warm_runs(program, engine)
        assert stats.resumes == 2
        expected = _cold(program, engine)
        assert _logs(expected) == ["[stdout] 3 9"]
        for result in results:
            assert _logs(result) == _logs(expected)
            assert result.steps == expected.steps
        snapshot = record.snapshot
        table = snapshot.slim_state["globals"]["tab"]
        assert snapshot.copier.copy()["globals"]["tab"] is table
        # The resumes wrote the pointed-to globals, never the bundle's.
        assert snapshot.slim_state["globals"]["beta"] == 2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_written_table_stays_private(self, engine):
        program = _program(
            'recv_request(); printf("%d\\n", tab[1].lo);'
            ' tab[1].lo = tab[1].lo + 1; return 0;'
        )
        results, record, _ = _warm_runs(program, engine)
        assert [_logs(r) for r in results] == [["[stdout] 5"]] * 4
        table = record.snapshot.slim_state["globals"]["tab"]
        assert record.snapshot.copier.copy()["globals"]["tab"] is not table

    def test_global_pointer_is_an_immutable_value(self):
        pointer = Pointer(GlobalSlot("x"))
        copier = StateBundleCopier({"globals": {"x": 1, "p": pointer}})
        first, second = copier.copy(), copier.copy()
        assert first["globals"]["p"] is second["globals"]["p"] is pointer
        assert copier._fixups[id(copier.state["globals"])] == ()

    def test_capture_records_the_restore_size(self):
        program = _program('recv_request(); return alpha;')
        registry = get_registry()

        def count():
            histogram = registry.snapshot()["histograms"].get(
                "launch.restore_objects"
            )
            return histogram["count"] if histogram else 0

        before = count()
        _, record, stats = _warm_runs(program, "codegen", count=2)
        assert stats.captures == 1
        assert count() == before + 1
        assert 0 < record.snapshot.copier.rebuilds < 64


FILE_OPS = """
int main() {
    void *log = fopen("/var/log/app.log", "a");
    fprintf(log, "boot\\n");
    recv_request();
    printf("size=%d ftp=%d nobody=%d\\n", stat_size("/var/log/app.log"),
           check_read_access("/var/log/app.log", "ftp"),
           check_read_access("/var/log/app.log", "nobody"));
    fprintf(log, "served\\n");
    void *again = fopen("/var/log/app.log", "w");
    chmod("/var/log/app.log", 384);
    chown_user("/var/log/app.log", "nobody");
    printf("size=%d ftp=%d nobody=%d\\n", stat_size("/var/log/app.log"),
           check_read_access("/var/log/app.log", "ftp"),
           check_read_access("/var/log/app.log", "nobody"));
    return 0;
}
"""


class TestFileNodes:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_resume_file_writes_stay_private(self, engine):
        """A resume appends to a log, truncates it, chmods and chowns
        it: neither the snapshot nor a sibling resume sees any of it."""
        program = Program.from_sources({"main.c": FILE_OPS})
        results, record, stats = _warm_runs(program, engine)
        assert stats.resumes == 2
        expected = _cold(program, engine)
        assert _logs(expected) == [
            "[stdout] size=5 ftp=0 nobody=0",
            "[stdout] size=0 ftp=-1 nobody=0",
        ]
        for result in results:
            assert _logs(result) == _logs(expected)
        written = results[-1].interpreter.os.files["/var/log/app.log"]
        assert (written.content, written.mode, written.owner) == (
            "", 0o600, "nobody"
        )
        node = record.snapshot.slim_state["os"].files["/var/log/app.log"]
        assert (node.content, node.mode, node.owner) == ("boot\n", 0o644, "root")
        restored = record.snapshot.copier.copy()["os"].files
        assert restored["/var/log/app.log"] is node
