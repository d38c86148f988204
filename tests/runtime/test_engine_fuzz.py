"""Generated-program parity: the codegen engine vs the tree-walker.

`test_engine_parity` pins hand-picked programs and the eight subject
systems; this file draws seeded random MiniC programs instead, so the
engines are compared on shapes nobody thought to write down.  Every
program mixes bounded `for`/`while`/`do` loops with `break` and
`continue`, `switch` with fallthrough and misplaced `default` arms,
pointers into locals, statics, globals and arrays, direct and indirect
(function-pointer table) calls, static locals, and recursion - a
Fibonacci-shaped one that runs out of step budget mid-recursion and a
linear one that can overflow the call depth.  They also reach every
typed fast path the codegen engine lowers: `char`, `short` and
`unsigned` locals, parameters and return types stored out of range;
reads and writes of struct-array members (`tab[i].f`, `rp->f`); `== 0`
on NULL pointers and strings; string indexing at and past the
terminating NUL; `strcasecmp`, `atoi` and `strlen` calls; and a global
(`g2`) that a local declared later - sometimes twice, with different
types - shadows, read and stored both before and after.  Occasional
unguarded divisors, indexes, NULL stores and NULL strings make some
programs fault.

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
    # a bound builtin call was handed the enclosing function's location
    # instead of the call's, so its fault pointed at the wrong line
    "bound-builtin-fault-location": """\
int g0 = 0;
int garr[8] = {3, 1, 4, 1, 5, 9, 2, 6};
struct rec { int k; char c; char *name; };
struct rec tab[4] = {{1, 200, "alpha"}, {-2, 7, NULL}, {3, -300, ""}, {40000, 0, NULL}};
int main() {
    int y = 1;
    int *p = &y;
    unsigned u = 3;
    return (((g0 / (atoi(tab[((*p / (tab[(garr[((strlen(tab[((7 ^ u)) & 3].name) >> 3)) & 7]) % 5].c | 1))) & 3].name) | 1)) + -4)) & 255;
}
""",
    # the scope scan skipped declarations nested in compound statements,
    # so a shadowing local read inside a `switch` arm went to the globals
    "nested-declaration-is-local": """\
struct rec { int k; char c; char *name; };
struct rec tab[4] = {{1, 200, "alpha"}, {-2, 7, NULL}, {3, -300, ""}, {40000, 0, NULL}};
int main() {
    int y = 1;
    int z = 2;
    struct rec *rp = &tab[0];
    switch ((z) % 5) {
    case 4:
    default:
        unsigned g2 = (127 % ((y > (rp == 0)) | 1));
        printf("L9 %d %d\\n", g2, 0);
    case 3:
    }
}
""",
    # the array-index fast path dropped its lower bound: a negative index
    # read Python's end-relative element instead of faulting
    "array-index-fast-path-rejects-negative": """\
int garr[8] = {3, 1, 4, 1, 5, 9, 2, 6};
struct rec { int k; char c; char *name; };
struct rec tab[4] = {{1, 200, "alpha"}, {-2, 7, NULL}, {3, -300, ""}, {40000, 0, NULL}};
short f0(int a, int b) {
    static int s = 2;
    if (garr[((s - 127)) % 9]) {
    } else {
    }
}
int main() {
    int b = -2;
    int y = 1;
    int *p = &y;
    tab[(f0(*p, b)) & 3].k++;
}
""",
    # the member fast path dropped its struct type test, so `rp->k`
    # through a pointer read `.fields` off the pointer
    "member-fast-path-needs-a-struct": """\
struct rec { int k; char c; char *name; };
struct rec tab[4] = {{1, 200, "alpha"}, {-2, 7, NULL}, {3, -300, ""}, {40000, 0, NULL}};
int main() {
    int x = 0;
    int z = 2;
    struct rec *rp = &tab[0];
    x ^= (tab[((z ^ x)) & 3].k != rp->k);
}
""",
    # `== 0` compared natively without its int type test, so a NULL
    # string was not equal to 0
    "null-equals-zero": """\
int garr[8] = {3, 1, 4, 1, 5, 9, 2, 6};
struct rec { int k; char c; char *name; };
struct rec tab[4] = {{1, 200, "alpha"}, {-2, 7, NULL}, {3, -300, ""}, {40000, 0, NULL}};
int main() {
    static int s = 1;
    int y = 1;
    int *p = &y;
    unsigned u = 0;
    switch (((tab[((65535 | garr[(s) & 7])) & 3].name == 0)) % 5) {
    case 4:
    case 1:
        tab[((u * garr[((*p % (255 | 1))) & 7])) & 3].k |= 5;
    }
}
""",
    # a store at a known int type skipped its range test, so 40000 was
    # kept in a `short`
    "typed-store-wraps": """\
int g2 = 7;
int garr[8] = {3, 1, 4, 1, 5, 9, 2, 6};
struct rec { int k; char c; char *name; };
struct rec tab[4] = {{1, 200, "alpha"}, {-2, 7, NULL}, {3, -300, ""}, {40000, 0, NULL}};
int f0(int a, int b) {
}
int main() {
    static int s = 1;
    int i0;
    short h = 40000;
    printf("L1 %d %d\\n", h, ((garr[(tab[(f0(s, g2)) & 3].k) & 7] * i0) << 4));
}
""",
    # a name declared twice (`int g2`, later `unsigned g2`) stored through
    # one of its declared types instead of the one that ran
    "name-declared-twice-wraps-dynamically": """\
int garr[8] = {3, 1, 4, 1, 5, 9, 2, 6};
int main() {
    int y = 1;
    int z = 2;
    int *p = &y;
    int g2 = (++z ^ (garr[(-1) & 7] % (*p | 1)));
    g2 -= 200;
    printf("L10 %d %d\\n", g2, 0);
    unsigned g2 = 10;
}
""",
    # `++` on a local of known int type skipped the wrap, so an `unsigned`
    # at UINT_MAX stepped to 2**32 instead of 0
    "typed-increment-wraps": """\
int main() {
    int y = 1;
    int z = 2;
    int *p = &y;
    unsigned u = -1;
    switch ((++u) % 5) {
    case 0:
    case 4:
    default:
    }
    return (((*p * u) ? 1 : z++)) & 255;
}
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
    #: Declared types of the narrow scalars (locals, parameters and
    #: return types); stores of wider values into them must wrap.
    SCALAR_TYPES = ("int", "int", "char", "short", "unsigned")
    #: Integer names every function declares (`g0`..`g2` are globals;
    #: `g2` is shadowed by a local wherever a function declares one).
    INT_NAMES = (
        "a", "b", "x", "y", "z", "s", "c", "h", "u", "g0", "g1", "g2",
        "i0", "i1",
    )
    STORE_NAMES = ("x", "y", "z", "s", "c", "h", "u", "g0", "g1", "g2")
    STRINGS = ('"alpha"', '"ALPHA"', '"Beta"', '""', '"12x"', '"99999999999"')

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
            name = rng.choice(("x", "y", "z", "s", "c", "u", "g0", "g2"))
            return rng.choice((f"{name}++", f"--{name}", f"++{name}"))
        if roll < 0.95 and self.callees:
            return self.call(depth)
        return self.leaf()

    def leaf(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            return str(rng.choice(
                (0, 1, 2, 3, 5, 7, 10, -1, -4, 127, 255, 65535, 2147483647)
            ))
        if roll < 0.6:
            return rng.choice(self.INT_NAMES)
        if roll < 0.72:
            return f"garr[{self.index()}]"
        if roll < 0.8:
            return f"{self.record()}.{rng.choice(('k', 'c'))}"
        if roll < 0.87:
            return self.string_probe()
        return "*p"

    def index(self, size: int = 8) -> str:
        if self.rng.random() < 0.95:
            return f"({self.expr(1)}) & {size - 1}"
        return f"({self.expr(1)}) % {size + 1}"  # may run off either end

    def record(self) -> str:
        """An element of the global struct array `tab`."""
        return f"tab[{self.index(4)}]"

    def string(self) -> str:
        """A string-valued operand: a `char *` local or a table name
        (either may be NULL)."""
        if self.rng.random() < 0.8:
            return "q"
        return f"{self.record()}.name"

    def string_probe(self) -> str:
        """An int read off a string or a pointer: NULL tests, indexing
        up to and past the terminating NUL, and string builtins."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            subject = rng.choice(("q", f"{self.record()}.name", "rp", "p"))
            return f"({subject} {rng.choice(('==', '!='))} 0)"
        if roll < 0.55:
            return f"q[{rng.choice((0, 1, 2, 3, 4, 5))}]"
        if roll < 0.68:
            return "rp->k"
        if roll < 0.77:
            return f"strlen({self.string()})"
        if roll < 0.86:
            return f"atoi({self.string()})"
        other = rng.choice((*self.STRINGS, self.string()))
        return f"strcasecmp({self.string()}, {other})"

    def call(self, depth: int) -> str:
        rng = self.rng
        args = f"{self.expr(depth + 1)}, {self.expr(depth + 1)}"
        if self.indirect and rng.random() < 0.4:
            return f"ops[({self.expr(depth + 1)}) & 3]({args})"
        return f"{rng.choice(self.callees)}({args})"

    def lvalue(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.55:
            return rng.choice(self.STORE_NAMES)
        if roll < 0.75:
            return f"garr[{self.index()}]"
        if roll < 0.88:
            return f"{self.record()}.{rng.choice(('k', 'c'))}"
        if roll < 0.9:
            return "rp->c"
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
            return self.show(self.expr(), self.expr())
        if roll < 0.38:
            return [self.pointer_retarget()]
        if roll < 0.46:
            # A local that shadows the global `g2` from here on: reads
            # and stores before it reach the global.  A function may
            # declare it more than once, with different types, so a
            # store wraps by whichever declaration ran last.
            value = rng.choice((self.expr(), "200", "-1", "40000"))
            store = [f"g2 {rng.choice(self.ASSIGN_OPS)} {value};"]
            if rng.random() < 0.4:
                return store
            kind = rng.choice(("char", "int", "unsigned"))
            decl = [f"{kind} g2 = {self.expr()};"]
            return ["{", [self.show("g2"), decl, store, self.show("g2")], "}"]
        if roll < 0.51:
            if loop is not None and rng.random() < 0.6:
                jump = rng.choice(("break;", "continue;"))
                return [f"if ({self.expr()}) {{", [[jump]], "}"]
            if self.in_function and rng.random() < 0.3:
                cond = self.expr()
                return [f"if ({cond}) {{", [[f"return {self.expr()};"]], "}"]
            return [f"{self.expr()};"]
        if roll < 0.6:
            then = self.body(depth + 1, loop)
            if rng.random() < 0.5:
                return [f"if ({self.expr()}) {{", then, "}"]
            other = self.body(depth + 1, loop)
            return [f"if ({self.expr()}) {{", then, "} else {", other, "}"]
        if roll < 0.86:
            return self.loop(depth)
        return self.switch(depth, loop)

    def show(self, first: str, second: str = "0") -> list:
        """A `printf` of two values, labelled so every line differs."""
        self.labels += 1
        return [f'printf("L{self.labels} %d %d\\n", {first}, {second});']

    def pointer_retarget(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.2:
            if rng.random() < 0.25:
                return "q = NULL;"
            return f"q = {rng.choice((*self.STRINGS, self.string()))};"
        if roll < 0.3:
            if rng.random() < 0.2:
                return "rp = NULL;"
            return f"rp = &{self.record()};"
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

    def narrow_locals(self) -> list:
        """The narrow scalar, string and struct-pointer locals every
        function declares, started from values their types must wrap."""
        rng = self.rng
        return [
            f"char c = {rng.choice((0, 65, 127, 200, -129))};",
            f"short h = {rng.choice((0, 7, 32767, 40000))};",
            f"unsigned u = {rng.choice((0, 3, -1, 4294967296))};",
            f"char *q = {rng.choice(self.STRINGS)};",
            f"struct rec *rp = &tab[{rng.randrange(4)}];",
        ]

    def function(self, index: int) -> list:
        rng = self.rng
        self.callees = [f"f{j}" for j in range(index)]
        self.indirect = False
        self.in_function = True
        ret, ta, tb = (rng.choice(self.SCALAR_TYPES) for _ in range(3))
        prologue = [
            f"static int s = {rng.randint(0, 9)};",
            "int x = a;",
            "int y = b;",
            f"int z = {rng.randint(-3, 3)};",
            "int *p = &x;",
            "int i0;",
            "int i1;",
            "int i2;",
            *self.narrow_locals(),
            "s++;",
        ]
        epilogue = [f"return {self.expr()};"]
        body = self.body(0, None)
        return [f"{ret} f{index}({ta} a, {tb} b)", prologue, body, epilogue]

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
            *self.narrow_locals(),
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
            f"int g2 = {rng.randint(-9, 9)};",
            "int garr[8] = {3, 1, 4, 1, 5, 9, 2, 6};",
            "struct rec { int k; char c; char *name; };",
            "struct rec tab[4] = {{1, 200, \"alpha\"}, {-2, 7, NULL},"
            " {3, -300, \"\"}, {40000, 0, NULL}};",
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


def well_formed(source: str) -> bool:
    """The program parses, and the reference engine runs it without an
    interpreter error (no cut left a name undefined)."""
    try:
        Program.from_sources({"main.c": source})
    except Exception:
        return False
    return outcome(source, "tree")[0] != "raised"


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
    the program is still well formed and still fails, until no single
    edit does.  A cut that breaks the program (an undefined name, a
    missing `main`) is never kept, even where the engines would report
    the breakage differently."""
    progress = True
    while progress:
        progress = False
        for edit in _edits(program):
            undo = edit()
            source = program.source()
            if well_formed(source) and failing(source):
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
