#!/usr/bin/env python
"""Dead-code lint for the repo, wired into `make lint` / `make test`.

The authoritative checks are built on `ast` and need no third-party
install (the CI image carries none), targeting the defect classes that
have actually bitten this codebase:

* ``dead-branch`` - an ``if`` whose taken and fallthrough paths both
  ``return`` the *same* expression, making the condition dead.  The
  `stop_at_first_failure` bug in ``repro.inject.harness`` (both sides
  of the ``if`` returned ``verdict``) is the motivating instance.
* ``self-compare`` - ``x == x`` / ``x is x`` comparisons, which are
  tautologies (``!=`` is deliberately exempt: it is the NaN idiom).
* ``assert-tuple`` - ``assert (expr, "msg")``, a non-empty tuple that
  is always truthy.
* ``mutable-default`` - a function parameter whose default is a
  mutable literal or constructor (``[]``, ``{}``, ``set()``,
  ``list()``, ``dict()``): the default is created once and shared by
  every call, the classic accumulating-state bug.  Dataclass
  ``field(default_factory=...)`` is the idiom this codebase uses
  instead and is naturally exempt (it is not a parameter default).
* ``regex-recompile`` - ``re.compile(...)`` inside a loop or inside a
  function/method body, where the same pattern is recompiled on every
  call/iteration.  ``ProcessResult.logs_mention_word`` recompiling its
  word-boundary pattern per call (on the injection hot path) is the
  motivating instance.  Compiles at module scope are the idiom;
  functions decorated with ``functools.lru_cache``/``functools.cache``
  are exempt (compile-once-per-input is the point of the cache).
* ``dynamic-exec`` - an ``exec(...)`` or ``eval(...)`` call in library
  code under ``src/repro/``.  Dynamic code execution hides control
  flow from every static check in this file and is an injection
  hazard; the one sanctioned site is the source-codegen launch engine
  (``runtime/codegen.py``), which exists precisely to compile
  generated launch modules.  Grow the allowlist only for another
  engine of that kind.
* ``worker-protocol`` - a ``metrics_delta(...)`` call in library code
  under ``src/repro/`` outside ``repro/obs/`` (which defines it) and
  ``pipeline/executor.py``.  Process fan-outs ship their metrics home
  in one ``WorkerEnvelope`` built by the executor; an entry point that
  takes its own delta is a second, hand-rolled worker protocol - the
  double-counting kind.  Keep the allowlist at the executor.
* ``executor-branch`` - an ``isinstance``/``issubclass`` test against
  an executor class (``Executor``, ``SerialExecutor``,
  ``ThreadExecutor``, ``ProcessExecutor``) in library code under
  ``src/repro/`` outside ``pipeline/executor.py``.  A fan-out hands
  every executor the same by-name shard function; a caller that
  branches on the executor type grows a second shard path (the
  pipeline's and the fleet's closures beside their process entry
  points were the motivating instances).
* ``bare-print`` - a ``print(...)`` call in library code under
  ``src/repro/``.  Library modules have two sanctioned output
  channels: human-facing text flows through the CLI layer
  (``reporting/cli.py``, the one allowlisted module) and telemetry
  flows through ``repro.obs`` counters/histograms/spans.  A stray
  ``print`` in a pillar corrupts piped ``--json`` output and is
  invisible to the metrics snapshot.
* ``wall-clock`` - a ``time.time()`` call in library code under
  ``src/repro/``.  Wall-clock timestamps drift with NTP and break
  deterministic tests; intervals use ``time.perf_counter()`` /
  ``time.monotonic()`` and trace timestamps come from the tracer's
  injected clock (``repro.obs.Tracer(clock=...)``).  The allowlist is
  empty on purpose - grow it only for a module that genuinely needs
  calendar time.
* ``silent-exception`` - a handler in library code under
  ``src/repro/`` that swallows everything: a bare ``except:``, or an
  ``except Exception:``/``except BaseException:`` whose body is only
  ``pass``/``...``.  Swallowed faults are how recovery paths rot
  silently - the resilience layer's whole contract is that failures
  are *observed* (a retry, a quarantine record, a ``resilience.*``
  counter), never discarded.  Narrow handlers (``except OSError:
  pass``) stay legal: naming the type is the author proving they
  know what they are ignoring.  The allowlist is empty on purpose.

* ``test-only-api`` - a whole-repo rule: a public (no leading ``_``)
  module-level function or class under ``src/repro/``, or a method of
  a module-level class there, whose name nothing outside ``tests/``
  references.  A reference is a name, an attribute, an import alias
  or an identifier-shaped string constant (perfbench patches by name,
  ``patch(owner, "attr")``) in ``src/``, ``tools/``, ``perfbench/``,
  ``benchmarks/``, ``examples/`` or ``setup.py``, or a word in a code
  block ``tools/docs_check.py`` executes.  The definition's own body,
  ``__all__`` entries and ``src/repro/**/__init__.py`` re-exports do
  not count.  Matching is by name only, so a colliding name (``get``,
  ``run``) counts as used: the rule can miss a dead definition but
  never flags a live one.  Code that only tests call is code nobody
  uses that still has to be maintained; delete it, or name it in
  ``TEST_ONLY_ALLOWLIST`` with the reason it stays.  The rule runs
  with the default paths only (it needs the whole tree).  Public
  upper-case module constants (``LONG_MAX``) are held to the same
  rule; assigning a name is not a reference to it.  The rule cannot
  see builtins (private functions reached through the registry):
  ``unused-builtin`` covers those.
* ``test-only-setting`` - a whole-repo rule: a defaulted parameter of
  a public function, method or class constructor under ``src/repro/``,
  or a defaulted field of a public dataclass there, that nothing in
  the ``test-only-api`` reference roots (or an executed doc block)
  sets, so every real caller runs its default.  Setting it means a
  keyword of that name at a call of that callee (a constructor's
  callee is its class or a subclass, or ``cls`` inside the class),
  enough positional arguments to reach it, a call passing ``*args``
  or ``**kwargs`` to that callee, and for a field or constructor
  parameter also ``replace(..., name=)`` or an attribute store
  ``x.name = ...``.  Private names and fields that start as an empty
  container (``field(default_factory=list)``, a ``defaultdict``) are
  state, not settings, and are skipped.  Matching is by name, so the
  rule can miss a dead setting but never flags a live one.  A setting
  only tests turn is a configuration surface nobody uses; delete it,
  or name it in ``TEST_ONLY_SETTING_ALLOWLIST`` with the reason it
  stays.  It runs whenever ``test-only-api`` runs.
* ``unused-builtin`` - a whole-repo rule: a builtin of the emulated
  libc (a ``@register("name")`` in ``runtime/builtins.py``, or an
  aliased ``register`` imported from it, as ``systems/storage_a.py``
  does) that no MiniC source calls, that is, no string literal in
  ``src/``, ``tests/``, ``examples/`` or ``benchmarks/`` contains
  ``name(``.  The libc exists only to run the subject systems; a
  builtin nothing calls is emulation nobody runs.  Docstrings (the
  first string statement of a module, class or function) are prose
  and do not count; in any other string the match is textual, so a
  word followed by a parenthesis there also counts: the rule can miss
  a dead builtin but never flags a live one.  It runs whenever
  ``test-only-api`` runs.

When ruff or pyflakes *is* installed, ``--external`` additionally runs
it (ruff restricted to F-codes) for broader coverage; absence of both
is never an error, so the default `make test` path stays hermetic.

Usage::

    python tools/lint.py [--external] [paths...]

Default paths: src tools benchmarks tests examples.  Exit status 1 if
any finding is reported.
"""

from __future__ import annotations

import argparse
import ast
import re
import shutil
import subprocess
import sys
from pathlib import Path

from docs_check import DOC_FILES, extract_python_blocks

DEFAULT_PATHS = ["src", "tools", "benchmarks", "tests", "examples"]
REPO_ROOT = Path(__file__).resolve().parent.parent


def iter_python_files(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    return out


def _stmt_lists(tree: ast.AST):
    for node in ast.walk(tree):
        for attr in ("body", "orelse", "finalbody"):
            stmts = getattr(node, attr, None)
            if isinstance(stmts, list) and stmts and isinstance(
                stmts[0], ast.stmt
            ):
                yield stmts


def _is_lone_return(stmts: list[ast.stmt]) -> ast.Return | None:
    if len(stmts) == 1 and isinstance(stmts[0], ast.Return):
        return stmts[0]
    return None


def _same_node(a: ast.AST | None, b: ast.AST | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return ast.dump(a) == ast.dump(b)


def check_tree(path: Path, tree: ast.AST) -> list[tuple[Path, int, str, str]]:
    findings = []

    def report(node: ast.AST, code: str, message: str) -> None:
        findings.append((path, node.lineno, code, message))

    for stmts in _stmt_lists(tree):
        for current, following in zip(stmts, stmts[1:] + [None]):
            if not isinstance(current, ast.If):
                continue
            taken = _is_lone_return(current.body)
            if taken is None:
                continue
            if current.orelse:
                other = _is_lone_return(current.orelse)
            elif isinstance(following, ast.Return):
                other = following
            else:
                other = None
            if other is not None and _same_node(taken.value, other.value):
                report(
                    current,
                    "dead-branch",
                    "both paths of this `if` return the same expression; "
                    "the condition is dead",
                )

    for finding in _find_regex_recompiles(tree):
        findings.append((path, finding[0], "regex-recompile", finding[1]))

    for line, message in _find_worker_protocol_escapes(path, tree):
        findings.append((path, line, "worker-protocol", message))

    for line, message in _find_executor_branches(path, tree):
        findings.append((path, line, "executor-branch", message))

    for line, code, message in _find_observability_escapes(path, tree):
        findings.append((path, line, code, message))

    for line, message in _find_silent_exceptions(path, tree):
        findings.append((path, line, "silent-exception", message))

    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.Is))
            and _same_node(node.left, node.comparators[0])
            # Calls/attributes may be effectful or non-deterministic;
            # only literal self-comparison of plain names is flagged.
            and isinstance(node.left, (ast.Name, ast.Constant))
        ):
            findings.append(
                (
                    path,
                    node.lineno,
                    "self-compare",
                    "comparison of an expression with itself is always "
                    "the same verdict",
                )
            )
        if isinstance(node, ast.Assert) and isinstance(node.test, ast.Tuple):
            if node.test.elts:
                findings.append(
                    (
                        path,
                        node.lineno,
                        "assert-tuple",
                        "assert on a non-empty tuple is always true "
                        "(parenthesized assert with message?)",
                    )
                )
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in [
                *node.args.defaults,
                *(d for d in node.args.kw_defaults if d is not None),
            ]:
                if _is_mutable_default(default):
                    findings.append(
                        (
                            path,
                            default.lineno,
                            "mutable-default",
                            f"default argument of {node.name}() is "
                            "mutable and shared across calls; use None "
                            "and create it inside the function",
                        )
                    )

    return findings


def _is_re_compile(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "compile"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
    )


_CACHE_DECORATORS = {"lru_cache", "cache"}


def _is_cached_function(node: ast.AST) -> bool:
    """Decorated with functools.lru_cache / functools.cache (bare or
    called, bare name or attribute)?"""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) and target.attr in _CACHE_DECORATORS:
            return True
        if isinstance(target, ast.Name) and target.id in _CACHE_DECORATORS:
            return True
    return False


_LOOPS = (ast.For, ast.AsyncFor, ast.While)


def _find_regex_recompiles(tree: ast.AST) -> list[tuple[int, str]]:
    """`re.compile` calls that re-run per call or per iteration.

    A compile is flagged when it sits inside a loop (anywhere) or
    inside a function/method that is not cache-decorated; module-scope
    compiles - including comprehension-built tables at module scope -
    are the idiom and pass.
    """
    findings: list[tuple[int, str]] = []

    def visit(node: ast.AST, in_function: bool, in_loop: bool) -> None:
        if _is_re_compile(node):
            if in_loop:
                findings.append(
                    (
                        node.lineno,
                        "re.compile inside a loop recompiles the "
                        "pattern every iteration; hoist it out (module "
                        "scope or functools.lru_cache)",
                    )
                )
            elif in_function:
                findings.append(
                    (
                        node.lineno,
                        "re.compile inside a function recompiles the "
                        "pattern on every call; hoist it to module "
                        "scope or wrap the function in "
                        "functools.lru_cache",
                    )
                )
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Decorators and parameter defaults run once, at def time,
            # in the *enclosing* scope - visit them under the current
            # context, not as per-call code.
            for deco in node.decorator_list:
                visit(deco, in_function, in_loop)
            for default in [
                *node.args.defaults,
                *(d for d in node.args.kw_defaults if d is not None),
            ]:
                visit(default, in_function, in_loop)
            if _is_cached_function(node):
                return  # compile-once-per-input: that is the cache's job
            for stmt in node.body:
                visit(stmt, True, False)  # new function scope: loop resets
            return
        child_in_loop = in_loop or isinstance(node, _LOOPS)
        for child in ast.iter_child_nodes(node):
            visit(child, in_function, child_in_loop)

    visit(tree, False, False)
    return findings


# Modules under src/repro/ (besides repro/obs/, which defines it)
# permitted to call metrics_delta(): the executor, whose WorkerEnvelope
# is the one way a process shard's metrics reach its parent.  Never
# grow this for a new fan-out - dispatch it through the executor.
METRICS_DELTA_ALLOWLIST = {
    "pipeline/executor.py",
}

# The executor classes, and the one module under src/repro/ that may
# test an object against them: the executor itself (`resolve_executor`).
EXECUTOR_CLASSES = {
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
}
EXECUTOR_BRANCH_ALLOWLIST = {
    "pipeline/executor.py",
}

# Modules under src/repro/ (repo-relative, posix) permitted to call
# print() directly: the CLI is the sanctioned human-output surface.
# Everything else routes human-facing text through reporting/cli.py
# and telemetry through repro.obs.
BARE_PRINT_ALLOWLIST = {
    "reporting/cli.py",
}

# Modules under src/repro/ permitted to call time.time().  Empty on
# purpose: intervals use time.perf_counter()/time.monotonic() and
# trace timestamps come from the tracer's injected clock.  Grow this
# only for a module that genuinely needs calendar time.
WALL_CLOCK_ALLOWLIST: set[str] = set()

# Modules under src/repro/ permitted to call exec()/eval(): only the
# source-codegen launch engine, whose whole job is compiling generated
# launch modules.  Everything else expresses dynamism through plain
# dispatch (dicts of callables, closures).
DYNAMIC_EXEC_ALLOWLIST = {
    "runtime/codegen.py",
}

# Modules under src/repro/ permitted to silently swallow broad
# exceptions.  Empty on purpose: a failure is either handled (a real
# body), narrowed (a named exception type), or it propagates.
SILENT_EXCEPT_ALLOWLIST: set[str] = set()


def _repro_relative(path: Path) -> str | None:
    """Path below ``src/repro/`` (posix), or None outside the library.

    Tests, tools and benchmarks print and read clocks legitimately;
    only library modules are held to the repro.obs discipline.
    """
    parts = path.parts
    for i in range(len(parts) - 1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            return "/".join(parts[i + 2:])
    return None


def _find_worker_protocol_escapes(
    path: Path, tree: ast.AST
) -> list[tuple[int, str]]:
    """``metrics_delta(...)`` calls in library modules outside
    ``repro/obs/`` and the allowlisted executor."""
    rel = _repro_relative(path)
    if rel is None or rel.startswith("obs/") or rel in METRICS_DELTA_ALLOWLIST:
        return []
    findings: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute) else None
        )
        if name == "metrics_delta":
            findings.append(
                (
                    node.lineno,
                    "metrics_delta() outside the executor; dispatch the "
                    "fan-out through repro.pipeline.executor, whose "
                    "WorkerEnvelope ships worker metrics home",
                )
            )
    return findings


def _class_names(node: ast.expr) -> list[str]:
    """The bare names an isinstance/issubclass class argument lists."""
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for candidate in candidates:
        if isinstance(candidate, ast.Name):
            names.append(candidate.id)
        elif isinstance(candidate, ast.Attribute):
            names.append(candidate.attr)
    return names


def _find_executor_branches(
    path: Path, tree: ast.AST
) -> list[tuple[int, str]]:
    """``isinstance``/``issubclass`` tests against an executor class in
    library modules outside the allowlisted executor."""
    rel = _repro_relative(path)
    if rel is None or rel in EXECUTOR_BRANCH_ALLOWLIST:
        return []
    findings: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
        ):
            continue
        tested = EXECUTOR_CLASSES.intersection(_class_names(node.args[1]))
        if tested:
            findings.append(
                (
                    node.lineno,
                    f"{node.func.id}() against {min(tested)}; pass every "
                    "executor the same by-name shard function instead of "
                    "branching on the executor type",
                )
            )
    return findings


def _find_observability_escapes(
    path: Path, tree: ast.AST
) -> list[tuple[int, str, str]]:
    """``print(...)``, ``time.time()`` and ``exec``/``eval`` calls in
    library modules.

    Returns ``(line, code, message)`` triples - this detector owns
    three codes (``bare-print``, ``wall-clock`` and ``dynamic-exec``).
    """
    rel = _repro_relative(path)
    if rel is None:
        return []
    findings: list[tuple[int, str, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if (
            isinstance(target, ast.Name)
            and target.id == "print"
            and rel not in BARE_PRINT_ALLOWLIST
        ):
            findings.append(
                (
                    node.lineno,
                    "bare-print",
                    "print() in library code; route human-facing text "
                    "through the CLI layer and telemetry through "
                    "repro.obs counters/spans",
                )
            )
        elif (
            isinstance(target, ast.Attribute)
            and target.attr == "time"
            and isinstance(target.value, ast.Name)
            and target.value.id == "time"
            and rel not in WALL_CLOCK_ALLOWLIST
        ):
            findings.append(
                (
                    node.lineno,
                    "wall-clock",
                    "time.time() in library code; use "
                    "time.perf_counter()/time.monotonic() for intervals "
                    "and the repro.obs injected clock for trace "
                    "timestamps",
                )
            )
        elif (
            isinstance(target, ast.Name)
            and target.id in ("exec", "eval")
            and rel not in DYNAMIC_EXEC_ALLOWLIST
        ):
            findings.append(
                (
                    node.lineno,
                    "dynamic-exec",
                    f"{target.id}() in library code; dynamic execution "
                    "is reserved for the codegen launch engine "
                    "(runtime/codegen.py) - use plain dispatch instead",
                )
            )
    return findings


_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _handler_type_name(handler: ast.ExceptHandler) -> str | None:
    """The handled exception's bare name ("Exception" for ``except
    Exception:`` / ``except builtins.Exception:``), or None for a bare
    ``except:``.  Tuples report the first broad member, if any."""
    node = handler.type
    if node is None:
        return None
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    for candidate in candidates:
        if isinstance(candidate, ast.Name):
            name = candidate.id
        elif isinstance(candidate, ast.Attribute):
            name = candidate.attr
        else:
            continue
        if name in _BROAD_EXCEPTIONS:
            return name
    # Every member is a named, non-broad type: the narrow idiom.
    return "-narrow-"


def _body_is_silent(body: list[ast.stmt]) -> bool:
    """Only ``pass`` and bare ``...`` statements: nothing is recorded,
    re-raised, returned or logged."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ) and stmt.value.value is Ellipsis:
            continue
        return False
    return True


def _find_silent_exceptions(
    path: Path, tree: ast.AST
) -> list[tuple[int, str]]:
    """Bare ``except:`` handlers (always), and broad
    ``except Exception/BaseException:`` handlers whose body swallows
    the fault without doing anything."""
    rel = _repro_relative(path)
    if rel is None or rel in SILENT_EXCEPT_ALLOWLIST:
        return []
    findings: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = _handler_type_name(node)
        if caught is None:
            findings.append(
                (
                    node.lineno,
                    "bare `except:` catches everything including "
                    "KeyboardInterrupt/SystemExit; name the exception "
                    "type being handled",
                )
            )
        elif caught in _BROAD_EXCEPTIONS and _body_is_silent(node.body):
            findings.append(
                (
                    node.lineno,
                    f"`except {caught}: pass` swallows every fault "
                    "silently; handle it, record it (repro.obs / a "
                    "FailedShard), or narrow the exception type",
                )
            )
    return findings


# Public definitions under src/repro/ that nothing outside tests/
# references and that stay on purpose, keyed by their dotted name below
# src/repro/ (a dotted key is no identifier, so listing a name here is
# not itself a reference to it).  Every entry carries its reason.
TEST_ONLY_ALLOWLIST = {
    "obs.trace.Tracer.current_span": (
        "the obs read API: the open span, for operators and tests"
    ),
    "lang.lexer.tokenize": (
        "front-end string entry point the lexer tests drive"
    ),
    "lang.parser.parse_source": (
        "front-end string entry point the parser tests drive"
    ),
}

# Where a reference to a library definition counts: everything that
# ships or runs beside the library, but not the tests.
REFERENCE_ROOTS = [
    "src", "tools", "perfbench", "benchmarks", "examples", "setup.py",
]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _public_definitions(module: str, tree: ast.Module):
    """``(dotted name, name, line)`` of every public module-level
    function, class or constant and every public method of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and _is_constant(target.id):
                    yield f"{module}.{target.id}", target.id, node.lineno
            continue
        if not isinstance(node, _DEFS):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _FUNCTIONS) and not (
                    member.name.startswith("_")
                ):
                    yield (
                        f"{module}.{node.name}.{member.name}",
                        member.name,
                        member.lineno,
                    )


def _is_constant(name: str) -> bool:
    """A public module constant: an upper-case name (``LONG_MAX``)."""
    return not name.startswith("_") and name.isupper()


def _assigns_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


class _References:
    """Every name a set of files references.

    A reference inside the body of a definition of the same name is
    kept with that definition's place (file, line): it does not count
    for that definition (recursion, a class naming itself) but still
    counts for any other definition that shares the name.
    """

    def __init__(self) -> None:
        self.free: set[str] = set()
        self.owned: dict[str, list[set[tuple[Path, int]]]] = {}

    def add(self, name: str, owners: set[tuple[Path, int]] = frozenset()):
        if owners:
            self.owned.setdefault(name, []).append(owners)
        else:
            self.free.add(name)

    def uses(self, path: Path, name: str, line: int) -> bool:
        place = (path, line)
        return name in self.free or any(
            place not in owners for owners in self.owned.get(name, ())
        )

    def scan(self, path: Path, tree: ast.AST, *, count_imports=True):
        def note(name: str, enclosing: tuple[ast.AST, ...]) -> None:
            self.add(
                name,
                {(path, n.lineno) for n in enclosing if n.name == name},
            )

        def visit(node: ast.AST, enclosing: tuple[ast.AST, ...]) -> None:
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    note(node.id, enclosing)
            elif isinstance(node, ast.Attribute):
                note(node.attr, enclosing)
            elif isinstance(node, ast.alias):
                for name in (*node.name.split("."), node.asname):
                    if name:
                        note(name, enclosing)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
            ):
                note(node.value, enclosing)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if not count_imports:
                    return  # a package __init__ re-export is no use
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                if _assigns_all(node):
                    return  # naming a definition in __all__ is no use
            if isinstance(node, _DEFS):
                inner = (*enclosing, node)
                for child in ast.iter_child_nodes(node):
                    visit(child, inner if child in node.body else enclosing)
                return
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing)

        visit(tree, ())


def _parse_all(root: Path, names: list[str]):
    for path in iter_python_files([str(root / name) for name in names]):
        if path.exists():
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _doc_blocks(root: Path):
    """The code of every ``python`` block ``tools/docs_check.py``
    executes."""
    for name in DOC_FILES:
        doc = root / name
        if doc.exists():
            text = doc.read_text(encoding="utf-8")
            for _, code in extract_python_blocks(text):
                yield code


def _module_name(library: Path, path: Path) -> str:
    """The dotted name of a module below ``src/repro/``."""
    rel = path.relative_to(library).with_suffix("")
    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
    return ".".join(parts)


def find_test_only_api(
    root: Path, allowlist: dict[str, str] | None = None
) -> list[tuple[Path, int, str, str]]:
    """The ``test-only-api`` findings for the repository at ``root``
    (``TEST_ONLY_ALLOWLIST`` unless ``allowlist`` is given)."""
    allowlist = TEST_ONLY_ALLOWLIST if allowlist is None else allowlist
    library = root / "src" / "repro"
    used, tested = _References(), _References()
    for path, tree in _parse_all(root, REFERENCE_ROOTS):
        reexports = path.name == "__init__.py" and library in path.parents
        used.scan(path, tree, count_imports=not reexports)
    for code in _doc_blocks(root):
        for word in _WORD.findall(code):
            used.add(word)
    for path, tree in _parse_all(root, ["tests"]):
        tested.scan(path, tree)

    findings = []
    for path, tree in _parse_all(root, ["src/repro"]):
        module = _module_name(library, path)
        for dotted, name, line in _public_definitions(module, tree):
            if dotted in allowlist or used.uses(path, name, line):
                continue
            who = (
                "only tests reference"
                if tested.uses(path, name, line)
                else "nothing references"
            )
            findings.append(
                (
                    path.relative_to(root),
                    line,
                    "test-only-api",
                    f"{who} `{dotted}` outside its own body; "
                    "delete it, or name it in TEST_ONLY_ALLOWLIST with "
                    "the reason it stays",
                )
            )
    return findings


# Defaulted parameters and dataclass fields under src/repro/ that no
# caller outside tests/ sets and that stay on purpose, keyed by
# ``<dotted callable>(<name>)``; every entry carries its reason.
TEST_ONLY_SETTING_ALLOWLIST = {
    "analysis.seeds.ParamSeed(path)": (
        "seeds a struct field behind a pointer parameter; no mapping "
        "emits one, and test_taint pins the engine's field-path seeding"
    ),
    "chaos.ChaosSchedule(stall_rate)": (
        "the chaos tier stalls shards to drive the watchdog timeout path"
    ),
    "chaos.ChaosSchedule(kill_rate)": (
        "the chaos and worker-death tiers kill workers to drive crash "
        "recovery"
    ),
    "chaos.ChaosSchedule(stall_seconds)": (
        "the chaos tier sizes stalls against the watchdog deadline"
    ),
    "checker.compile.compile_checker(env)": (
        "the fake-environment seam: a test compiles a checker against a "
        "hand-built EnvView"
    ),
    "checker.fleet.run_fleet(retry_policy)": (
        "the chaos tier supervises fleet chunks through kill and resume"
    ),
    "checker.fleet.run_fleet(chaos)": (
        "the chaos tier injects faults into fleet chunks"
    ),
    "pipeline.runner.CampaignPipeline(retry_policy)": (
        "the chaos tier supervises campaigns through kill and resume"
    ),
    "pipeline.runner.CampaignPipeline(chaos)": (
        "the chaos and worker-death tiers inject faults into campaigns"
    ),
    "runtime.os_model.EmulatedOS.add_file(writable)": (
        "a read-only file: open, fopen, fwrite_str and access refuse "
        "writes to it and EnvView.read_only mirrors it; no system "
        "declares one, and the builtin and ACL tests pin the veto"
    ),
    "serve.server.BackgroundServer(max_pending)": (
        "the serve chaos tier sheds load on an in-process server; the "
        "CLI sets the same bound on ValidationService"
    ),
    "serve.service.ValidationService(max_results)": (
        "the serve tests evict result snapshots (cursor-expired) with a "
        "small bound"
    ),
    "serve.service.ValidationService(circuit_threshold)": (
        "the serve degradation tests trip the per-system breaker"
    ),
    "serve.service.ValidationService(circuit_reset_seconds)": (
        "the serve degradation tests half-open the breaker on a fake clock"
    ),
}


def _decorator_names(node: ast.AST) -> set[str]:
    names = set()
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _defaulted_params(args: ast.arguments, skip_first: bool):
    """``(name, positional index or None)`` of every parameter with a
    default; the index counts from the first argument a caller passes
    (past ``self``/``cls`` when ``skip_first``)."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        if not positional[index].arg.startswith("_"):
            yield positional[index].arg, index - skip_first
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and not arg.arg.startswith("_"):
            yield arg.arg, None


# A field that starts as an empty container the object fills is state,
# not a setting.
_CONTAINERS = {"list", "dict", "set"}


def _is_empty_container(factory: ast.expr | None) -> bool:
    """``list``/``dict``/``set``, or a lambda building an empty one or
    a ``defaultdict``."""
    if isinstance(factory, ast.Name):
        return factory.id in _CONTAINERS
    if not isinstance(factory, ast.Lambda):
        return False
    body = factory.body
    return (
        isinstance(body, ast.Call)
        and isinstance(body.func, ast.Name)
        and (
            body.func.id == "defaultdict"
            or (body.func.id in _CONTAINERS and not body.args)
        )
    )


def _dataclass_fields(node: ast.ClassDef):
    """``(name, positional index)`` of every defaulted init field of a
    dataclass, leaving out private ones and empty containers.  The
    index ignores inherited fields, so it can only be too low: a
    positional call then counts as reaching the field."""
    index = 0
    for stmt in node.body:
        if not (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ) or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        options = {}
        value = stmt.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "field"
        ):
            options = {kw.arg: kw.value for kw in value.keywords}
        init = options.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        factory = options.get("default_factory")
        if value is not None and not (
            _is_empty_container(factory) or stmt.target.id.startswith("_")
        ):
            yield stmt.target.id, index
        index += 1


def _class_bases(trees) -> dict[str, set[str]]:
    """``{class name: names of the classes it derives from}``."""
    bases: dict[str, set[str]] = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    name for base in node.bases for name in _class_names(base)
                )
    return bases


def _public_settings(module: str, tree: ast.Module, subclasses):
    """``(dotted name, callee names, setting, positional index, line,
    is_field)`` of every defaulted parameter of a public module-level
    function, constructor or method, and every defaulted field of a
    public dataclass.  A constructor's callees are its class and every
    class derived from it; ``is_field`` marks what an attribute store
    or ``dataclasses.replace`` may set too."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        if isinstance(node, _FUNCTIONS):
            for name, index in _defaulted_params(node.args, False):
                yield (
                    f"{module}.{node.name}({name})",
                    {node.name}, name, index, node.lineno, False,
                )
            continue
        builders = {node.name} | subclasses(node.name)
        if "dataclass" in _decorator_names(node):
            for name, index in _dataclass_fields(node):
                yield (
                    f"{module}.{node.name}({name})",
                    builders, name, index, node.lineno, True,
                )
        for member in node.body:
            if not isinstance(member, _FUNCTIONS):
                continue
            decorators = _decorator_names(member)
            if member.name == "__init__":
                dotted, callees, is_field = node.name, builders, True
            elif member.name.startswith("_") or "property" in decorators:
                continue
            else:
                dotted = f"{node.name}.{member.name}"
                callees, is_field = {member.name}, False
            skip = "staticmethod" not in decorators
            for name, index in _defaulted_params(member.args, skip):
                yield (
                    f"{module}.{dotted}({name})",
                    callees, name, index, member.lineno, is_field,
                )


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class _Settings:
    """What a set of files sets, by name: the keywords and the number
    of positional arguments passed at calls of each callee name, the
    callees called with ``*args``/``**kwargs`` (which may set
    anything), the keywords of ``replace(...)`` calls and the
    attribute names stored to."""

    def __init__(self) -> None:
        self.keywords: dict[str, set[str]] = {}
        self.positional: dict[str, int] = {}
        self.unpacked: set[str] = set()
        self.replaced: set[str] = set()
        self.stored: set[str] = set()

    def scan(self, tree: ast.AST) -> None:
        classes = {
            id(child): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for child in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Store
            ):
                self.stored.add(node.attr)
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node.func)
            if callee == "cls" and id(node) in classes:
                callee = classes[id(node)]
            if callee is None:
                continue
            keywords = {kw.arg for kw in node.keywords}
            if callee == "replace":
                self.replaced.update(keywords - {None})
            if None in keywords or any(
                isinstance(arg, ast.Starred) for arg in node.args
            ):
                self.unpacked.add(callee)
            self.keywords.setdefault(callee, set()).update(keywords)
            self.positional[callee] = max(
                self.positional.get(callee, 0), len(node.args)
            )

    def sets(self, callees, name, index, is_field) -> bool:
        if is_field and (name in self.replaced or name in self.stored):
            return True
        return any(
            callee in self.unpacked
            or name in self.keywords.get(callee, ())
            or (
                index is not None
                and self.positional.get(callee, 0) > index
            )
            for callee in callees
        )


def find_test_only_settings(
    root: Path, allowlist: dict[str, str] | None = None
) -> list[tuple[Path, int, str, str]]:
    """The ``test-only-setting`` findings for the repository at
    ``root`` (``TEST_ONLY_SETTING_ALLOWLIST`` unless ``allowlist`` is
    given)."""
    if allowlist is None:
        allowlist = TEST_ONLY_SETTING_ALLOWLIST
    library = root / "src" / "repro"
    used, tested = _Settings(), _Settings()
    for _, tree in _parse_all(root, REFERENCE_ROOTS):
        used.scan(tree)
    for code in _doc_blocks(root):
        used.scan(ast.parse(code))
    for _, tree in _parse_all(root, ["tests"]):
        tested.scan(tree)

    trees = list(_parse_all(root, ["src/repro"]))
    bases = _class_bases(trees)

    def subclasses(name: str) -> set[str]:
        found: set[str] = set()
        todo = [name]
        while todo:
            parent = todo.pop()
            for child, parents in bases.items():
                if parent in parents and child not in found:
                    found.add(child)
                    todo.append(child)
        return found

    findings = []
    for path, tree in trees:
        module = _module_name(library, path)
        for dotted, callees, name, index, line, is_field in _public_settings(
            module, tree, subclasses
        ):
            if dotted in allowlist or used.sets(
                callees, name, index, is_field
            ):
                continue
            who = (
                "only tests set"
                if tested.sets(callees, name, index, is_field)
                else "nothing sets"
            )
            findings.append(
                (
                    path.relative_to(root),
                    line,
                    "test-only-setting",
                    f"{who} `{dotted}`, so every caller runs its default; "
                    "delete the setting, or name it in "
                    "TEST_ONLY_SETTING_ALLOWLIST with the reason it stays",
                )
            )
    return findings


# Where a call of a builtin counts: the MiniC sources in string
# literals (the subject systems, examples, tests and benchmarks).
CALLER_ROOTS = ["src", "tests", "examples", "benchmarks"]
BUILTINS_MODULE = "repro.runtime.builtins"
_CALLED_WORD = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(")


def _register_aliases(path: Path, tree: ast.Module, library: Path) -> set:
    """The names that bind the builtin ``register`` decorator in a
    library module: ``register`` inside the builtins module itself, and
    whatever ``from repro.runtime.builtins import register [as x]``
    binds elsewhere."""
    if path == library / "runtime" / "builtins.py":
        return {"register"}
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == BUILTINS_MODULE
        for alias in node.names
        if alias.name == "register"
    }


def _registered_builtins(path: Path, tree: ast.Module, library: Path):
    """``(name, line)`` of every ``@register("name")`` in one module."""
    aliases = _register_aliases(path, tree, library)
    for node in ast.walk(tree):
        if not isinstance(node, _FUNCTIONS):
            continue
        for deco in node.decorator_list:
            if (
                isinstance(deco, ast.Call)
                and isinstance(deco.func, ast.Name)
                and deco.func.id in aliases
                and deco.args
                and isinstance(deco.args[0], ast.Constant)
                and isinstance(deco.args[0].value, str)
            ):
                yield deco.args[0].value, deco.lineno


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of a module and of its classes
    and functions: prose, which calls nothing."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *_DEFS))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def find_unused_builtins(root: Path) -> list[tuple[Path, int, str, str]]:
    """The ``unused-builtin`` findings for the repository at ``root``."""
    library = root / "src" / "repro"
    called: set[str] = set()
    for _, tree in _parse_all(root, CALLER_ROOTS):
        prose = _docstrings(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in prose
            ):
                called.update(_CALLED_WORD.findall(node.value))
    findings = []
    for path, tree in _parse_all(root, ["src/repro"]):
        for name, line in _registered_builtins(path, tree, library):
            if name not in called:
                findings.append(
                    (
                        path.relative_to(root),
                        line,
                        "unused-builtin",
                        f"no MiniC source calls the builtin `{name}`; "
                        "delete it, or call it from the system that "
                        "needs it",
                    )
                )
    return findings


_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


def run_builtin(files: list[Path]) -> int:
    failures = 0
    for path in files:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            print(f"{path}:{exc.lineno}: syntax-error: {exc.msg}")
            failures += 1
            continue
        for found_path, line, code, message in check_tree(path, tree):
            print(f"{found_path}:{line}: {code}: {message}")
            failures += 1
    return failures


def run_repo_rules(root: Path) -> int:
    findings = (
        find_test_only_api(root)
        + find_test_only_settings(root)
        + find_unused_builtins(root)
    )
    for found_path, line, code, message in findings:
        print(f"{found_path}:{line}: {code}: {message}")
    return len(findings)


def run_external(paths: list[str]) -> int:
    """Run ruff (F-codes) or pyflakes when available; 0 when neither
    is installed - the built-in checks remain the hermetic baseline."""
    if shutil.which("ruff"):
        return subprocess.call(["ruff", "check", "--select", "F", *paths])
    try:
        import pyflakes  # noqa: F401
    except ImportError:
        print("lint: no external linter installed (ruff/pyflakes); skipped")
        return 0
    return subprocess.call([sys.executable, "-m", "pyflakes", *paths])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*")
    parser.add_argument(
        "--external",
        action="store_true",
        help="also run ruff/pyflakes if installed",
    )
    options = parser.parse_args(argv)
    paths = options.paths or DEFAULT_PATHS
    files = iter_python_files(paths)
    if not files:
        print(f"lint: no python files under {paths}", file=sys.stderr)
        return 2
    failures = run_builtin(files)
    if not options.paths:
        failures += run_repo_rules(REPO_ROOT)
    status = 1 if failures else 0
    if options.external:
        status = max(status, 1 if run_external(paths) else 0)
    if failures:
        print(f"lint: {failures} finding(s) in {len(files)} files")
    else:
        print(f"lint: ok ({len(files)} files)")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
