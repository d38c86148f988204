"""Generated-program parity: the codegen engine vs the tree-walker.

`test_engine_parity` pins hand-picked programs and the eight subject
systems; this file draws seeded random MiniC programs instead, so the
engines are compared on shapes nobody thought to write down.  Every
program mixes bounded `for`/`while`/`do` loops with `break` and
`continue`, `switch` with fallthrough and misplaced `default` arms,
pointers into locals, statics, globals and arrays, direct and indirect
(function-pointer table) calls, static locals, and recursion - a
Fibonacci-shaped one that runs out of step budget mid-recursion and a
linear one that can overflow the call depth.  Occasional unguarded
divisors, array indexes and NULL stores make some programs fault.

Each program runs on both engines and the two outcomes must agree on
status, exit code, fault signal, reason and location, logs, responses
and `steps`.  A diverging program is shrunk (statements deleted and
compound statements flattened while the divergence persists) and the
failure message carries the minimal source; pin it in `REGRESSIONS`
so it is re-checked on every run.

The snapshot leg reuses the generator for the warm-boot engine
(`repro.runtime.snapshot`): a request poll is inserted at a seeded
top-level statement of `main`, so the statements before it are the
boot prefix, and a cold run must agree on the same channels with the
probe, the capturing run and two successive resumes of one
`boot_launch` record.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.lang.program import Program
from repro.runtime.interpreter import InterpreterOptions
from repro.runtime.os_model import EmulatedOS
from repro.runtime.process import ProcessStatus, run_program
from repro.runtime.snapshot import BootRecord, BootStats, boot_launch

N_SEEDS = 100
MAX_STEPS = 5_000
#: The snapshot leg's seeds (parsing and lowering each program
#: dominates its cost, so it draws half as many).
SNAPSHOT_SEEDS = 50

#: Shrunk fuzzer output, pinned so it is re-checked on every run.  Each
#: program was shrunk from a seed that caught a deliberately broken
#: codegen engine (the comment names the break); on a correct engine
#: both engines agree on it.  Append new divergences here.
REGRESSIONS = {
    # a compound assignment combined with the target's value from
    # *before* its right-hand side ran
    "compound-assign-rereads-target": """\
int f1(int a, int b) {
    return b;
}
int main() {
    int y = 1;
    int *p = &y;
    int i1;
    y ^= (--y - (2 && i1));
    if ((f1(*p, *p) != (*p >= 7))) {
    }
}
""",
    # a `switch` arm stopped at the next label instead of falling through
    "switch-falls-through": """\
int g0 = -1;
int g1;
int f0(int a, int b) {
    int x = a;
    int *p = &x;
    switch ((((g0 | 0) & (2147483647 & *p))) % 5) {
    case 0:
    case 4:
        p = &g1;
    }
}
int main() {
    static int s = 1;
    s = f0(g1, (1 <= s));
}
""",
    # a `do`/`while` iteration skipped its step-budget tick
    "do-while-ticks-each-iteration": """\
int f0(int a, int b) {
    int i1;
    i1 = 0;
    do {
    } while (i1 < 0);
}
int main() {
    int x = 0;
    int z = 2;
    f0(1, (x > z));
}
""",
    # a call through the function-pointer table skipped its tick
    "indirect-call-ticks": """\
int garr[8] = {3, 1, 4, 1, 5, 9, 2, 6};
int f0(int a, int b) {
}
int f2(int a, int b) {
}
int main() {
    int b = -1;
    int y = 1;
    int *p = &y;
    if (((*p >> 4) | ops[(garr[(-1) & 7]) & 3](-1, b))) {
    } else {
    }
}
void *ops[4] = {f2, f2, f0, f2};
""",
}


# -- program model ------------------------------------------------------------
#
# A statement is a list of parts: strings are source lines, nested lists
# are indented statement bodies.  `["x = 1;"]` is a simple statement;
# `["if (c) {", [...], "} else {", [...], "}"]` an if/else.  The shrinker
# edits this tree, never the rendered text.


def render_body(body: list, depth: int, out: list[str]) -> None:
    for stmt in body:
        for part in stmt:
            if isinstance(part, list):
                render_body(part, depth + 1, out)
            else:
                out.append("    " * depth + part)


class MiniCProgram:
    """A generated program: prelude lines (the globals), functions as
    ``[signature, prologue lines, statement body, epilogue lines]`` in
    definition order, and trailer lines (the function-pointer table)."""

    def __init__(self, prelude: list, functions: list, trailer: list):
        self.prelude = prelude
        self.functions = functions
        self.trailer = trailer

    def source(self) -> str:
        out = list(self.prelude)
        for signature, prologue, body, epilogue in self.functions:
            out.append(signature + " {")
            out.extend("    " + line for line in prologue)
            render_body(body, 1, out)
            out.extend("    " + line for line in epilogue)
            out.append("}")
        out.extend(self.trailer)
        return "\n".join(out) + "\n"

    def statement_count(self) -> int:
        def count(body):
            return sum(
                1 + sum(count(p) for p in stmt if isinstance(p, list))
                for stmt in body
            )

        return sum(count(fn[2]) for fn in self.functions)


class ProgramGenerator:
    """Seeded random MiniC programs (deterministic per seed)."""

    ASSIGN_OPS = ("=", "=", "+=", "-=", "*=", "^=", "|=", "&=")
    BINARY_OPS = (
        "+", "-", "*", "&", "|", "^", "==", "!=", "<", ">", "<=", ">=",
        "&&", "||",
    )

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.labels = 0
        # Per-function context, set as each function is generated.
        self.callees: list[str] = []
        self.indirect = False  # may call through `ops`
        self.in_function = False  # may `return` early

    # -- expressions -------------------------------------------------------

    def expr(self, depth: int = 0) -> str:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.3:
            return self.leaf()
        roll = rng.random()
        if roll < 0.45:
            op = rng.choice(self.BINARY_OPS)
            return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"
        if roll < 0.55:
            op = rng.choice(("/", "%"))
            divisor = self.expr(depth + 1)
            if rng.random() < 0.9:
                divisor = f"({divisor} | 1)"  # mostly non-zero
            return f"({self.expr(depth + 1)} {op} {divisor})"
        if roll < 0.62:
            shift = rng.choice(("<<", ">>"))
            return f"({self.expr(depth + 1)} {shift} {rng.randint(0, 4)})"
        if roll < 0.7:
            return f"{rng.choice(('-', '!', '~'))}({self.expr(depth + 1)})"
        if roll < 0.77:
            return (
                f"({self.expr(depth + 1)} ? {self.expr(depth + 1)} "
                f": {self.expr(depth + 1)})"
            )
        if roll < 0.85:
            name = rng.choice(("x", "y", "z", "s", "g0"))
            return rng.choice((f"{name}++", f"--{name}", f"++{name}"))
        if roll < 0.95 and self.callees:
            return self.call(depth)
        return self.leaf()

    def leaf(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            return str(rng.choice((0, 1, 2, 3, 5, 7, 10, -1, -4, 2147483647)))
        if roll < 0.7:
            return rng.choice(
                ("a", "b", "x", "y", "z", "s", "g0", "g1", "i0", "i1")
            )
        if roll < 0.85:
            return f"garr[{self.index()}]"
        return "*p"

    def index(self) -> str:
        if self.rng.random() < 0.95:
            return f"({self.expr(1)}) & 7"
        return f"({self.expr(1)}) % 9"  # may run off either end

    def call(self, depth: int) -> str:
        rng = self.rng
        args = f"{self.expr(depth + 1)}, {self.expr(depth + 1)}"
        if self.indirect and rng.random() < 0.4:
            return f"ops[({self.expr(depth + 1)}) & 3]({args})"
        return f"{rng.choice(self.callees)}({args})"

    def lvalue(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.6:
            return rng.choice(("x", "y", "z", "s", "g0", "g1"))
        if roll < 0.85:
            return f"garr[{self.index()}]"
        return "(*p)"

    # -- statements --------------------------------------------------------

    def body(self, depth: int, loop: int | None) -> list:
        return [
            self.stmt(depth, loop)
            for _ in range(self.rng.randint(1, 4 if depth == 0 else 2))
        ]

    def stmt(self, depth: int, loop: int | None) -> list:
        rng = self.rng
        roll = rng.random()
        if depth >= 2:
            roll *= 0.45  # simple statements only
        if roll < 0.22:
            op = rng.choice(self.ASSIGN_OPS)
            target = self.lvalue()
            value = self.expr()
            if op != "=" and target.isalnum() and rng.random() < 0.3:
                # The right-hand side updates the target itself: the
                # combine must re-read it afterwards.
                bump = rng.choice((f"{target}++", f"--{target}"))
                value = f"({bump} + {value})"
            return [f"{target} {op} {value};"]
        if roll < 0.27:
            return [f"{self.lvalue()}{rng.choice(('++', '--'))};"]
        if roll < 0.33:
            self.labels += 1
            return [
                f'printf("L{self.labels} %d %d\\n", {self.expr()}, '
                f"{self.expr()});"
            ]
        if roll < 0.38:
            return [self.pointer_retarget()]
        if roll < 0.45:
            if loop is not None and rng.random() < 0.6:
                jump = rng.choice(("break;", "continue;"))
                return [f"if ({self.expr()}) {{", [[jump]], "}"]
            if self.in_function and rng.random() < 0.3:
                cond = self.expr()
                return [f"if ({cond}) {{", [[f"return {self.expr()};"]], "}"]
            return [f"{self.expr()};"]
        if roll < 0.55:
            then = self.body(depth + 1, loop)
            if rng.random() < 0.5:
                return [f"if ({self.expr()}) {{", then, "}"]
            other = self.body(depth + 1, loop)
            return [f"if ({self.expr()}) {{", then, "} else {", other, "}"]
        if roll < 0.85:
            return self.loop(depth)
        return self.switch(depth, loop)

    def pointer_retarget(self) -> str:
        rng = self.rng
        if rng.random() < 0.04:
            return "p = NULL;"
        target = rng.choice(("x", "y", "z", "s", "g0", "g1", "garr"))
        if target == "garr":
            return f"p = &garr[{self.index()}];"
        return f"p = &{target};"

    def loop(self, depth: int) -> list:
        rng = self.rng
        counter = f"i{depth}"
        bound = rng.randint(0, 5)
        body = self.body(depth + 1, depth)
        kind = rng.random()
        if kind < 0.5:
            return [
                f"for ({counter} = 0; {counter} < {bound}; {counter}++) {{",
                body,
                "}",
            ]
        # The counter steps first, so `continue` cannot spin forever.
        step = [[f"{counter}++;"]]
        if kind < 0.75:
            return [
                f"{counter} = 0;",
                f"while ({counter} < {bound}) {{",
                step + body,
                "}",
            ]
        return [
            f"{counter} = 0;",
            "do {",
            step + body,
            f"}} while ({counter} < {bound});",
        ]

    def switch(self, depth: int, loop: int | None) -> list:
        rng = self.rng
        values = rng.sample(range(5), rng.randint(1, 4))
        labels = [f"case {value}:" for value in values]
        if rng.random() < 0.6:
            labels.insert(rng.randint(0, len(labels)), "default:")
        parts: list = [f"switch (({self.expr()}) % 5) {{"]
        for label in labels:
            arm = self.body(depth + 1, loop)
            if rng.random() < 0.6:
                arm.append(["break;"])  # otherwise: fall through
            parts.extend([label, arm])
        parts.append("}")
        return parts

    # -- whole programs ----------------------------------------------------

    def function(self, index: int) -> list:
        self.callees = [f"f{j}" for j in range(index)]
        self.indirect = False
        self.in_function = True
        prologue = [
            f"static int s = {self.rng.randint(0, 9)};",
            "int x = a;",
            "int y = b;",
            f"int z = {self.rng.randint(-3, 3)};",
            "int *p = &x;",
            "int i0;",
            "int i1;",
            "int i2;",
            "s++;",
        ]
        epilogue = [f"return {self.expr()};"]
        body = self.body(0, None)
        return [f"int f{index}(int a, int b)", prologue, body, epilogue]

    def main(self, helpers: int) -> list:
        rng = self.rng
        self.callees = [f"f{j}" for j in range(helpers)]
        self.indirect = True
        self.in_function = False
        prologue = [
            "static int s = 1;",
            f"int a = {rng.randint(-5, 9)};",
            f"int b = {rng.randint(-5, 9)};",
            "int x = 0;",
            "int y = 1;",
            "int z = 2;",
            "int *p = &y;",
            "int i0;",
            "int i1;",
            "int i2;",
        ]
        body = self.body(0, None)
        # Recursion: Fibonacci-shaped calls outgrow the step budget
        # somewhere mid-recursion; the linear one may overflow the
        # call depth (100 frames) before it reaches its base case.
        if rng.random() < 0.5:
            body.append([f"x += fib({rng.randint(3, 22)});"])
        if rng.random() < 0.3:
            body.append([f"y += deep({rng.choice((5, 40, 99, 130))});"])
        rng.shuffle(body)
        epilogue = [f"return ({self.expr()}) & 255;"]
        return ["int main()", prologue, body, epilogue]

    def program(self) -> MiniCProgram:
        rng = self.rng
        helpers = rng.randint(1, 3)
        prelude = [
            f"int g0 = {rng.randint(-9, 9)};",
            "int g1;",
            "int garr[8] = {3, 1, 4, 1, 5, 9, 2, 6};",
        ]
        functions = [
            [
                "int fib(int n)",
                [],
                [["if (n < 2) {", [["return n;"]], "}"]],
                ["return fib(n - 1) + fib(n - 2);"],
            ],
            [
                "int deep(int n)",
                [],
                [["if (n <= 0) {", [["return 0;"]], "}"]],
                ["return deep(n - 1) + 1;"],
            ],
        ]
        functions.extend(self.function(i) for i in range(helpers))
        table = ", ".join(f"f{rng.randrange(helpers)}" for _ in range(4))
        functions.append(self.main(helpers))
        trailer = [f"void *ops[4] = {{{table}}};"]
        return MiniCProgram(prelude, functions, trailer)


# -- differential execution ---------------------------------------------------


def observe(launch) -> tuple:
    """Every observable channel of one run, as a comparable tuple (an
    escaping interpreter error counts as an outcome too)."""
    try:
        result = launch()
    except Exception as exc:  # every run must raise alike
        return ("raised", type(exc).__name__, str(exc))
    return (
        result.status,
        result.exit_code,
        result.fault_signal,
        result.fault_reason,
        str(result.fault_location),
        tuple(str(record) for record in result.logs),
        tuple(result.responses),
        result.steps,
    )


@functools.lru_cache(maxsize=1024)
def outcome(source: str, engine: str) -> tuple:
    program = Program.from_sources({"main.c": source})
    options = InterpreterOptions(
        max_steps=MAX_STEPS, engine=engine, warm_boot=False
    )
    return observe(lambda: run_program(program, options=options))


#: The snapshot leg's request queue, drained by the inserted poll.
POLL = "send_response(recv_request());"
REQUESTS = ("ping",)


def with_request_poll(program: MiniCProgram, seed: int) -> MiniCProgram:
    """`program` with `POLL` inserted as a top-level statement of main
    at a seeded position (its own RNG: the generator's stream, and so
    every other test's program, is unchanged)."""
    body = program.functions[-1][2]
    body.insert(random.Random(seed).randint(0, len(body)), [POLL])
    return program


@functools.lru_cache(maxsize=1024)
def snapshot_outcomes(
    source: str,
) -> tuple[tuple, list[tuple], BootRecord, BootStats]:
    """The cold outcome, and the outcomes of four successive warm
    launches of one boot record: probe, capture, resume, resume."""
    program = Program.from_sources({"main.c": source})
    options = InterpreterOptions(max_steps=MAX_STEPS)

    def cold_run():
        os_model = EmulatedOS()
        os_model.queue_requests(list(REQUESTS))
        return run_program(
            program, os_model, options=InterpreterOptions(
                max_steps=MAX_STEPS, warm_boot=False
            )
        )

    record, stats = BootRecord(), BootStats()
    warm = [
        observe(lambda: boot_launch(
            program, EmulatedOS, None, options, record,
            requests=list(REQUESTS), stats=stats,
        ))
        for _ in range(4)
    ]
    return observe(cold_run), warm, record, stats


def snapshot_diverges(source: str) -> bool:
    cold, warm, _, _ = snapshot_outcomes(source)
    return any(run != cold for run in warm)


def diverges(source: str) -> bool:
    return outcome(source, "tree") != outcome(source, "codegen")


def parses(source: str) -> bool:
    try:
        Program.from_sources({"main.c": source})
    except Exception:
        return False
    return True


def _deletions(items: list):
    """Delete one element of a list: a source line or a function."""
    for i, item in enumerate(items):

        def delete(i=i, item=item):
            del items[i]
            return lambda: items.insert(i, item)

        yield delete


def _statement_edits(body: list):
    """Delete a statement, or flatten a compound statement into one of
    its bodies; recursing into nested bodies."""
    yield from _deletions(body)
    for i, stmt in enumerate(body):
        for part in stmt:
            if isinstance(part, list):

                def flatten(i=i, stmt=stmt, part=part):
                    body[i : i + 1] = part
                    return lambda: body.__setitem__(
                        slice(i, i + len(part)), [stmt]
                    )

                yield flatten
                yield from _statement_edits(part)


def _edits(program: MiniCProgram):
    """Every one-step simplification of a program, as closures that
    apply the edit and return its undo - biggest cuts first."""
    yield from _deletions(program.functions)
    for _signature, prologue, body, epilogue in program.functions:
        yield from _statement_edits(body)
        yield from _deletions(prologue)
        yield from _deletions(epilogue)
    yield from _deletions(program.prelude)
    yield from _deletions(program.trailer)


def shrink(program: MiniCProgram, failing=diverges) -> MiniCProgram:
    """Greedy delta reduction: keep applying the first edit after which
    the program still parses and still fails, until no single edit
    does.  A cut that breaks the program (an undefined name, a missing
    `main`) fails both engines alike, so it is never kept."""
    progress = True
    while progress:
        progress = False
        for edit in _edits(program):
            undo = edit()
            source = program.source()
            if parses(source) and failing(source):
                progress = True
                break
            undo()
    return program


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_generated_program_parity(seed):
    program = ProgramGenerator(seed).program()
    source = program.source()
    if diverges(source):
        minimal = shrink(program).source()
        pytest.fail(
            f"seed {seed}: tree and codegen diverge; shrunk program "
            f"(pin it in REGRESSIONS):\n{minimal}\n"
            f"tree:    {outcome(minimal, 'tree')}\n"
            f"codegen: {outcome(minimal, 'codegen')}"
        )


@pytest.mark.parametrize("seed", range(SNAPSHOT_SEEDS))
def test_snapshot_resume_parity(seed):
    program = with_request_poll(ProgramGenerator(seed).program(), seed)
    source = program.source()
    cold, warm, record, stats = snapshot_outcomes(source)
    if any(run != cold for run in warm):
        minimal = shrink(program, failing=snapshot_diverges).source()
        pytest.fail(
            f"seed {seed}: a warm launch diverges from the cold run; "
            f"shrunk program:\n{minimal}\n"
            f"cold: {snapshot_outcomes(minimal)[0]}\n"
            f"warm: {snapshot_outcomes(minimal)[1]}"
        )
    # Whenever the boot reached the poll, the last two launches resumed.
    assert stats.resumes == (0 if record.boundary is None else 2)


def test_snapshot_leg_resumes_most_programs():
    """Most of the seed range reaches the poll, so the leg exercises
    capture and resume rather than cold boots."""
    resumed = 0
    for seed in range(SNAPSHOT_SEEDS):
        program = with_request_poll(ProgramGenerator(seed).program(), seed)
        resumed += snapshot_outcomes(program.source())[3].resumes == 2
    assert resumed >= SNAPSHOT_SEEDS // 2


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_pinned_regressions(name):
    assert not diverges(REGRESSIONS[name])


def test_generator_is_deterministic_and_covers_every_outcome():
    """Same seed, same text; and the seed range reaches every status
    (clean exit, crash, budget hang) the parity contract covers."""
    assert (
        ProgramGenerator(7).program().source()
        == ProgramGenerator(7).program().source()
    )
    statuses = {
        outcome(ProgramGenerator(seed).program().source(), "tree")[0]
        for seed in range(N_SEEDS)
    }
    assert statuses >= {
        ProcessStatus.EXITED,
        ProcessStatus.CRASHED,
        ProcessStatus.HUNG,
    }


def test_shrinker_reduces_to_the_failing_core():
    """A planted predicate (the program exits after printing) shrinks
    to a handful of statements that still satisfy it."""

    def prints(source):
        result = outcome(source, "tree")
        return result[0] is ProcessStatus.EXITED and bool(result[5])

    seed = next(
        seed
        for seed in range(N_SEEDS)
        if prints(ProgramGenerator(seed).program().source())
    )
    program = ProgramGenerator(seed).program()
    before = program.statement_count()
    minimal = shrink(program, failing=prints)
    assert prints(minimal.source())
    assert minimal.statement_count() < before
    assert minimal.statement_count() <= 3
