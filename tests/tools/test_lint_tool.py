"""Tests for the AST lint tool (`tools/lint.py`)."""

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint import check_tree  # noqa: E402


def _codes(source: str) -> list[str]:
    tree = ast.parse(source)
    return [code for _, _, code, _ in check_tree(Path("x.py"), tree)]


class TestMutableDefault:
    def test_list_literal_default(self):
        assert _codes("def f(x=[]):\n    pass\n") == ["mutable-default"]

    def test_dict_and_set_literals(self):
        assert _codes("def f(a={}, b={1}):\n    pass\n") == [
            "mutable-default",
            "mutable-default",
        ]

    def test_constructor_calls(self):
        source = "def f(a=list(), b=dict(), c=set()):\n    pass\n"
        assert _codes(source) == ["mutable-default"] * 3

    def test_keyword_only_default(self):
        assert _codes("def f(*, x=[]):\n    pass\n") == ["mutable-default"]

    def test_async_function(self):
        assert _codes("async def f(x={}):\n    pass\n") == [
            "mutable-default"
        ]

    def test_comprehension_default(self):
        assert _codes("def f(x=[i for i in range(3)]):\n    pass\n") == [
            "mutable-default"
        ]

    def test_immutable_defaults_pass(self):
        source = (
            "def f(a=None, b=0, c='x', d=(), e=frozenset()):\n    pass\n"
        )
        assert _codes(source) == []

    def test_dataclass_field_factory_exempt(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class C:\n"
            "    xs: list = field(default_factory=list)\n"
        )
        assert _codes(source) == []


class TestRegexRecompile:
    def test_compile_inside_function_flagged(self):
        source = (
            "import re\n"
            "def f(needle, text):\n"
            "    return re.compile(needle).search(text)\n"
        )
        assert _codes(source) == ["regex-recompile"]

    def test_compile_inside_method_flagged(self):
        source = (
            "import re\n"
            "class C:\n"
            "    def hits(self, needle):\n"
            "        pattern = re.compile(needle)\n"
            "        return pattern\n"
        )
        assert _codes(source) == ["regex-recompile"]

    def test_compile_inside_loop_flagged(self):
        source = (
            "import re\n"
            "patterns = []\n"
            "for word in ['a', 'b']:\n"
            "    patterns.append(re.compile(word))\n"
        )
        assert _codes(source) == ["regex-recompile"]

    def test_compile_in_while_inside_function_flagged_once(self):
        source = (
            "import re\n"
            "def f(words):\n"
            "    while words:\n"
            "        re.compile(words.pop())\n"
        )
        assert _codes(source) == ["regex-recompile"]

    def test_module_scope_compile_passes(self):
        assert _codes("import re\nPAT = re.compile('x+')\n") == []

    def test_lru_cached_function_exempt(self):
        source = (
            "import functools\n"
            "import re\n"
            "@functools.lru_cache(maxsize=64)\n"
            "def pattern_for(needle):\n"
            "    return re.compile(needle)\n"
        )
        assert _codes(source) == []

    def test_bare_cache_decorator_exempt(self):
        source = (
            "import re\n"
            "from functools import cache\n"
            "@cache\n"
            "def pattern_for(needle):\n"
            "    return re.compile(needle)\n"
        )
        assert _codes(source) == []

    def test_loop_inside_cached_function_exempt(self):
        # The cache bounds the recompiles to one per distinct input;
        # a loop inside it is the cached function's own business.
        source = (
            "import functools\n"
            "import re\n"
            "@functools.lru_cache\n"
            "def patterns_for(words):\n"
            "    return [re.compile(w) for w in words]\n"
        )
        assert _codes(source) == []

    def test_default_argument_compile_passes(self):
        # Defaults evaluate once at def time, not per call.
        source = (
            "import re\n"
            "def f(pat=re.compile('x')):\n"
            "    return pat\n"
        )
        assert _codes(source) == []

    def test_default_argument_inside_loop_still_flagged(self):
        # ...but a def inside a loop re-evaluates its defaults per
        # iteration.
        source = (
            "import re\n"
            "fns = []\n"
            "for w in ['a', 'b']:\n"
            "    def f(pat=re.compile('x')):\n"
            "        return pat\n"
            "    fns.append(f)\n"
        )
        assert _codes(source) == ["regex-recompile"]

    def test_decorator_argument_compile_passes(self):
        source = (
            "import re\n"
            "def deco(pattern):\n"
            "    def wrap(fn):\n"
            "        return fn\n"
            "    return wrap\n"
            "@deco(re.compile('x'))\n"
            "def g():\n"
            "    return 1\n"
        )
        assert _codes(source) == []

    def test_nested_function_resets_loop_context(self):
        # The inner def runs per call, not per iteration of the outer
        # loop - still flagged, but as a per-call compile.
        source = (
            "import re\n"
            "def outer(xs):\n"
            "    out = []\n"
            "    for x in xs:\n"
            "        def inner():\n"
            "            return re.compile('x')\n"
            "        out.append(inner)\n"
            "    return out\n"
        )
        assert _codes(source) == ["regex-recompile"]


class TestObservabilityEscapes:
    LIB_PATH = Path("src/repro/inject/campaign.py")

    def _codes_at(self, path: Path, source: str) -> list[str]:
        return [c for _, _, c, _ in check_tree(path, ast.parse(source))]

    def test_bare_print_in_library_module_flagged(self):
        source = "def f(x):\n    print(x)\n    return x\n"
        assert self._codes_at(self.LIB_PATH, source) == ["bare-print"]

    def test_wall_clock_in_library_module_flagged(self):
        source = "import time\nstamp = time.time()\n"
        assert self._codes_at(self.LIB_PATH, source) == ["wall-clock"]

    def test_monotonic_clocks_pass(self):
        source = (
            "import time\n"
            "a = time.perf_counter()\n"
            "b = time.monotonic()\n"
        )
        assert self._codes_at(self.LIB_PATH, source) == []

    def test_time_method_on_other_object_passes(self):
        # clock.time() is an injected clock, not the wall clock.
        source = "def f(clock):\n    return clock.time()\n"
        assert self._codes_at(self.LIB_PATH, source) == []

    def test_cli_module_may_print_but_not_wall_clock(self):
        path = Path("src/repro/reporting/cli.py")
        assert self._codes_at(path, "print('hi')\n") == []
        assert self._codes_at(path, "import time\ntime.time()\n") == [
            "wall-clock"
        ]

    def test_non_library_modules_exempt(self):
        # Tests, tools and benchmarks print and read clocks freely;
        # the discipline applies to src/repro/ only.
        source = "import time\nprint(time.time())\n"
        for raw in (
            "x.py",
            "tools/lint.py",
            "tests/obs/test_metrics.py",
            "benchmarks/test_obs_overhead.py",
        ):
            assert self._codes_at(Path(raw), source) == []

    def test_print_allowlist_tracks_reality(self):
        # Every allowlisted module must exist and still print; a
        # module that stopped printing should lose its exemption.
        from lint import BARE_PRINT_ALLOWLIST

        lib_root = REPO_ROOT / "src" / "repro"
        for rel in BARE_PRINT_ALLOWLIST:
            module = lib_root / rel
            assert module.exists(), rel
            assert "print(" in module.read_text(encoding="utf-8"), (
                f"{rel} no longer prints; drop it from the allowlist"
            )

    def test_wall_clock_allowlist_tracks_reality(self):
        from lint import WALL_CLOCK_ALLOWLIST

        lib_root = REPO_ROOT / "src" / "repro"
        for rel in WALL_CLOCK_ALLOWLIST:
            module = lib_root / rel
            assert module.exists(), rel
            assert "time.time(" in module.read_text(encoding="utf-8"), (
                f"{rel} no longer reads the wall clock; drop it"
            )


class TestDynamicExec:
    LIB_PATH = Path("src/repro/inject/campaign.py")

    def _codes_at(self, path: Path, source: str) -> list[str]:
        return [c for _, _, c, _ in check_tree(path, ast.parse(source))]

    def test_exec_in_library_module_flagged(self):
        source = "def f(src):\n    exec(src)\n"
        assert self._codes_at(self.LIB_PATH, source) == ["dynamic-exec"]

    def test_eval_in_library_module_flagged(self):
        source = "def f(expr):\n    return eval(expr)\n"
        assert self._codes_at(self.LIB_PATH, source) == ["dynamic-exec"]

    def test_codegen_engine_exempt(self):
        path = Path("src/repro/runtime/codegen.py")
        source = "def f(src):\n    exec(compile(src, '<x>', 'exec'), {})\n"
        assert self._codes_at(path, source) == []

    def test_method_named_eval_passes(self):
        # obj.eval(...) is an ordinary method, not the builtin.
        source = "def f(model, x):\n    return model.eval(x)\n"
        assert self._codes_at(self.LIB_PATH, source) == []

    def test_non_library_modules_exempt(self):
        source = "exec('pass')\neval('1')\n"
        for raw in ("x.py", "tools/lint.py", "tests/lint/test_detectors.py"):
            assert self._codes_at(Path(raw), source) == []

    def test_allowlist_tracks_reality(self):
        # Every exempted module must exist and still exec; anything
        # else on the list would silently disable the gate.  The list
        # must stay exactly the codegen engine unless a second code
        # generator lands.
        from lint import DYNAMIC_EXEC_ALLOWLIST

        assert DYNAMIC_EXEC_ALLOWLIST == {"runtime/codegen.py"}
        lib_root = REPO_ROOT / "src" / "repro"
        for rel in DYNAMIC_EXEC_ALLOWLIST:
            module = lib_root / rel
            assert module.exists(), rel
            assert "exec(" in module.read_text(encoding="utf-8"), (
                f"{rel} no longer executes generated code; drop it"
            )


class TestWorkerProtocol:
    LIB_PATH = Path("src/repro/checker/fleet.py")
    DELTA = (
        "from repro.obs import metrics_delta\n"
        "def shard(before, after):\n"
        "    return metrics_delta(before, after)\n"
    )

    def _codes_at(self, path: Path, source: str) -> list[str]:
        return [c for _, _, c, _ in check_tree(path, ast.parse(source))]

    def test_delta_in_library_module_flagged(self):
        assert self._codes_at(self.LIB_PATH, self.DELTA) == [
            "worker-protocol"
        ]

    def test_attribute_call_flagged(self):
        source = (
            "import repro.obs as obs\n"
            "def shard(before, after):\n"
            "    return obs.metrics_delta(before, after)\n"
        )
        assert self._codes_at(self.LIB_PATH, source) == ["worker-protocol"]

    def test_executor_and_obs_exempt(self):
        for raw in (
            "src/repro/pipeline/executor.py",
            "src/repro/obs/metrics.py",
            "src/repro/obs/__init__.py",
        ):
            assert self._codes_at(Path(raw), self.DELTA) == []

    def test_non_library_modules_exempt(self):
        for raw in ("tests/obs/test_metrics.py", "perfbench/rep.py"):
            assert self._codes_at(Path(raw), self.DELTA) == []

    def test_allowlist_tracks_reality(self):
        # The executor is the one sanctioned caller and must still be
        # one; a fan-out that needs deltas dispatches through it.
        from lint import METRICS_DELTA_ALLOWLIST

        assert METRICS_DELTA_ALLOWLIST == {"pipeline/executor.py"}
        for rel in METRICS_DELTA_ALLOWLIST:
            module = REPO_ROOT / "src" / "repro" / rel
            assert "metrics_delta(" in module.read_text(encoding="utf-8")


class TestExecutorBranch:
    LIB_PATH = Path("src/repro/pipeline/runner.py")
    BRANCH = (
        "from repro.pipeline.executor import ProcessExecutor\n"
        "def fan_out(executor):\n"
        "    if isinstance(executor, ProcessExecutor):\n"
        "        return 'by name'\n"
        "    return 'closure'\n"
    )

    def _codes_at(self, path: Path, source: str) -> list[str]:
        return [c for _, _, c, _ in check_tree(path, ast.parse(source))]

    def test_branch_in_library_module_flagged(self):
        assert self._codes_at(self.LIB_PATH, self.BRANCH) == [
            "executor-branch"
        ]

    def test_attribute_tuple_and_issubclass_forms_flagged(self):
        for test in (
            "isinstance(e, executor.ThreadExecutor)",
            "isinstance(e, (int, SerialExecutor))",
            "issubclass(type(e), Executor)",
        ):
            assert self._codes_at(self.LIB_PATH, f"{test}\n") == [
                "executor-branch"
            ]

    def test_other_isinstance_tests_pass(self):
        source = "isinstance(e, ProcessPoolExecutor)\nisinstance(e, str)\n"
        assert self._codes_at(self.LIB_PATH, source) == []

    def test_executor_and_non_library_modules_exempt(self):
        for raw in (
            "src/repro/pipeline/executor.py",
            "tests/pipeline/test_executors.py",
            "perfbench/rep.py",
        ):
            assert self._codes_at(Path(raw), self.BRANCH) == []

    def test_library_has_no_executor_branches(self):
        # Each fan-out passes one shard function to every executor.
        found = [
            f"{path}:{line}"
            for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
            for _, line, code, _ in check_tree(
                path, ast.parse(path.read_text(encoding="utf-8"))
            )
            if code == "executor-branch"
        ]
        assert found == []


class TestSilentException:
    LIB_PATH = Path("src/repro/inject/campaign.py")

    def _codes_at(self, path: Path, source: str) -> list[str]:
        return [c for _, _, c, _ in check_tree(path, ast.parse(source))]

    def test_bare_except_flagged(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        log()\n"
        )
        assert self._codes_at(self.LIB_PATH, source) == ["silent-exception"]

    def test_broad_silent_handler_flagged(self):
        for body in ("pass", "..."):
            source = (
                "def f():\n"
                "    try:\n"
                "        work()\n"
                f"    except Exception:\n        {body}\n"
            )
            assert self._codes_at(self.LIB_PATH, source) == [
                "silent-exception"
            ]

    def test_base_exception_and_tuple_forms_flagged(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except (ValueError, BaseException):\n"
            "        pass\n"
        )
        assert self._codes_at(self.LIB_PATH, source) == ["silent-exception"]

    def test_broad_handler_that_acts_passes(self):
        # Recording, re-raising or returning is handling, not hiding.
        for body in ("raise", "return None", "log(exc)"):
            source = (
                "def f():\n"
                "    try:\n"
                "        work()\n"
                f"    except Exception as exc:\n        {body}\n"
            )
            assert self._codes_at(self.LIB_PATH, source) == []

    def test_narrow_silent_handler_passes(self):
        # `except OSError: pass` names exactly what it tolerates; the
        # rule targets the catch-everything-say-nothing idiom.
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except (OSError, ValueError):\n"
            "        pass\n"
        )
        assert self._codes_at(self.LIB_PATH, source) == []

    def test_non_library_modules_exempt(self):
        source = "try:\n    x()\nexcept:\n    pass\n"
        for raw in ("x.py", "tools/lint.py", "tests/lint/test_x.py"):
            assert self._codes_at(Path(raw), source) == []

    def test_allowlist_tracks_reality(self):
        # The allowlist is empty today; any future entry must point at
        # a real module that still contains a broad handler.
        from lint import SILENT_EXCEPT_ALLOWLIST

        lib_root = REPO_ROOT / "src" / "repro"
        for rel in SILENT_EXCEPT_ALLOWLIST:
            module = lib_root / rel
            assert module.exists(), rel
            text = module.read_text(encoding="utf-8")
            assert "except" in text, (
                f"{rel} no longer handles exceptions; drop it"
            )


class TestTestOnlyApi:
    """The whole-repo rule, run on a miniature repository."""

    def _flagged(self, tmp_path: Path, files: dict[str, str]) -> dict:
        """``{dotted name: message}`` of every finding in a repo made of
        ``files`` (repo-relative path -> source)."""
        from lint import find_test_only_api

        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        out = {}
        for path, _, code, message in find_test_only_api(tmp_path, {}):
            assert code == "test-only-api"
            assert not path.is_absolute()
            out[message.split("`")[1]] = message
        return out

    def test_function_only_a_test_calls_flagged(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": "def helper():\n    return 1\n",
            "tests/test_mod.py": (
                "from repro.mod import helper\nassert helper() == 1\n"
            ),
        })
        assert list(flagged) == ["mod.helper"]
        assert flagged["mod.helper"].startswith("only tests reference")

    def test_method_only_a_test_calls_flagged(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": (
                "class Box:\n"
                "    def used(self):\n"
                "        return 1\n"
                "    def probe(self):\n"
                "        return 2\n"
            ),
            "src/repro/user.py": (
                "from repro.mod import Box\nvalue = Box().used()\n"
            ),
            "tests/test_mod.py": "def test_probe(box):\n    box.probe()\n",
        })
        assert list(flagged) == ["mod.Box.probe"]

    def test_unreferenced_definition_flagged(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": "class Orphan:\n    pass\n",
        })
        assert flagged["mod.Orphan"].startswith("nothing references")

    def test_attribute_reference_from_src_passes(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": "def helper():\n    return 1\n",
            "src/repro/user.py": (
                "import repro.mod as m\nvalue = m.helper()\n"
            ),
        })
        assert flagged == {}

    def test_string_constant_reference_passes(self, tmp_path):
        # perfbench wraps library functions by name.
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": "def helper():\n    return 1\n",
            "perfbench/tracing.py": (
                "import repro.mod as owner\n"
                "patch(recorder, owner, \"helper\", \"layer\")\n"
            ),
        })
        assert flagged == {}

    def test_executed_doc_block_reference_passes(self, tmp_path):
        from docs_check import DOC_FILES

        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": "def helper():\n    return 1\n",
            DOC_FILES[0]: (
                "Prose naming unused_word.\n\n"
                "```python\nfrom repro.mod import helper\n```\n"
            ),
        })
        assert flagged == {}

    def test_private_and_dunder_names_pass(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": (
                "def _private():\n"
                "    return 1\n"
                "class _Hidden:\n"
                "    def _inner(self):\n"
                "        return 2\n"
                "class Shown:\n"
                "    def __repr__(self):\n"
                "        return 'Shown'\n"
            ),
            "src/repro/user.py": "from repro.mod import Shown\n",
        })
        assert flagged == {}

    def test_package_reexport_is_not_a_use(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.mod import helper\n"
                "__all__ = [\"helper\"]\n"
            ),
            "src/repro/pkg/mod.py": "def helper():\n    return 1\n",
        })
        assert list(flagged) == ["pkg.mod.helper"]

    def test_self_reference_is_not_a_use(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": (
                "def countdown(n):\n"
                "    return n and countdown(n - 1)\n"
                "class Node:\n"
                "    @classmethod\n"
                "    def leaf(cls):\n"
                "        return Node()\n"
            ),
            "src/repro/user.py": "value = factory.leaf()\n",
        })
        assert list(flagged) == ["mod.countdown", "mod.Node"]

    def test_colliding_name_counts_as_used(self, tmp_path):
        # Matching is by name: a call to one `run` keeps every `run`.
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": (
                "class Outer:\n"
                "    def run(self):\n"
                "        return self.inner.run()\n"
                "class Inner:\n"
                "    def run(self):\n"
                "        return 1\n"
            ),
            "src/repro/user.py": "from repro.mod import Inner, Outer\n",
        })
        assert list(flagged) == ["mod.Outer.run"]

    def test_module_constants_are_checked(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/consts.py": (
                "LIMIT = 4\n"
                "UNUSED: int = 8\n"
                "TESTED = 16\n"
                "lowercase_alias = len\n"
                "_PRIVATE = 32\n"
            ),
            "src/repro/user.py": "from repro.consts import LIMIT\n",
            "tests/test_consts.py": "from repro.consts import TESTED\n",
        })
        assert list(flagged) == ["consts.UNUSED", "consts.TESTED"]
        assert flagged["consts.UNUSED"].startswith("nothing references")
        assert flagged["consts.TESTED"].startswith("only tests reference")

    def test_assigning_a_constant_is_not_a_use(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/consts.py": "LIMIT = 4\n",
            "src/repro/user.py": "def _reset():\n    LIMIT = 0\n    return 1\n",
        })
        assert list(flagged) == ["consts.LIMIT"]

    def test_allowlist_tracks_reality(self):
        # Every entry names a real definition that the rule would flag
        # without its entry, and carries its reason; nothing else on
        # the repo needs one.
        from lint import TEST_ONLY_ALLOWLIST, find_test_only_api

        assert set(TEST_ONLY_ALLOWLIST) == {
            "obs.trace.Tracer.current_span",
            "lang.lexer.tokenize",
            "lang.parser.parse_source",
        }
        assert all(reason.strip() for reason in TEST_ONLY_ALLOWLIST.values())
        unlisted = find_test_only_api(REPO_ROOT, {})
        assert {m.split("`")[1] for *_, m in unlisted} == set(
            TEST_ONLY_ALLOWLIST
        )


class TestTestOnlySetting:
    """The whole-repo settings rule, run on a miniature repository."""

    def _flagged(self, tmp_path: Path, files: dict[str, str]) -> dict:
        """``{dotted setting: message}`` of every finding in a repo made
        of ``files`` (repo-relative path -> source)."""
        from lint import find_test_only_settings

        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        out = {}
        for path, _, code, message in find_test_only_settings(tmp_path, {}):
            assert code == "test-only-setting"
            assert not path.is_absolute()
            out[message.split("`")[1]] = message
        return out

    def test_keyword_only_a_test_sets_flagged(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": "def run(x, fast=False):\n    return x\n",
            "src/repro/user.py": "from repro.mod import run\nrun(1)\n",
            "tests/test_mod.py": "from repro.mod import run\nrun(1, fast=True)\n",
        })
        assert list(flagged) == ["mod.run(fast)"]
        assert flagged["mod.run(fast)"].startswith("only tests set")

    def test_keyword_positional_and_unpacked_calls_set(self, tmp_path):
        source = (
            "def run(x, fast=False, *, depth=0, width=1):\n"
            "    return x\n"
        )
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": source,
            "src/repro/user.py": (
                "import repro.mod as m\n"
                "m.run(1, True, depth=2)\n"
            ),
        })
        assert list(flagged) == ["mod.run(width)"]
        assert flagged["mod.run(width)"].startswith("nothing sets")
        assert self._flagged(tmp_path, {
            "src/repro/user.py": "import repro.mod as m\nm.run(1, **opts)\n",
        }) == {}

    def test_dataclass_fields_replace_and_attribute_stores(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/opts.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Opts:\n"
                "    name: str\n"
                "    level: int = 1\n"
                "    mode: str = 'a'\n"
                "    tag: str = ''\n"
                "    limit: int = 9\n"
            ),
            "src/repro/user.py": (
                "import dataclasses\n"
                "from repro.opts import Opts\n"
                "o = dataclasses.replace(Opts('n'), mode='b')\n"
                "o.tag = 'x'\n"
            ),
            "tests/test_opts.py": "from repro.opts import Opts\nOpts('n', limit=2)\n",
        })
        assert list(flagged) == ["opts.Opts(level)", "opts.Opts(limit)"]
        assert flagged["opts.Opts(level)"].startswith("nothing sets")
        assert flagged["opts.Opts(limit)"].startswith("only tests set")

    def test_methods_and_constructors(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": (
                "class Box:\n"
                "    def __init__(self, size=1):\n"
                "        self.size = size\n"
                "    def grow(self, by=1):\n"
                "        return self.size + by\n"
                "    @staticmethod\n"
                "    def make(size=1):\n"
                "        return Box(size)\n"
            ),
            "src/repro/user.py": (
                "from repro.mod import Box\n"
                "Box(2).grow()\n"
                "Box.make(3)\n"
            ),
        })
        assert list(flagged) == ["mod.Box.grow(by)"]

    def test_subclass_and_cls_constructors_count(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Base:\n"
                "    limit: int = 1\n"
                "    other: int = 2\n"
                "    @classmethod\n"
                "    def fresh(cls):\n"
                "        return cls(other=3)\n"
                "class Child(Base):\n"
                "    pass\n"
            ),
            "src/repro/user.py": (
                "from repro.mod import Child\nChild(limit=4).fresh()\n"
            ),
        })
        assert flagged == {}

    def test_state_and_private_names_skipped(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": (
                "from collections import defaultdict\n"
                "from dataclasses import dataclass, field\n"
                "@dataclass\n"
                "class Report:\n"
                "    items: list = field(default_factory=list)\n"
                "    by_kind: dict = field(\n"
                "        default_factory=lambda: defaultdict(list)\n"
                "    )\n"
                "    _memo: dict | None = None\n"
                "    done: bool = field(default=False, init=False)\n"
                "def _helper(x=1):\n"
                "    return x\n"
                "def run(x, _depth=0):\n"
                "    return x\n"
            ),
            "src/repro/user.py": (
                "from repro.mod import Report, run\nReport()\nrun(1)\n"
            ),
        })
        assert flagged == {}

    def test_executed_doc_block_sets(self, tmp_path):
        from docs_check import DOC_FILES

        flagged = self._flagged(tmp_path, {
            "src/repro/mod.py": "def run(x, fast=False):\n    return x\n",
            DOC_FILES[0]: (
                "```python\nfrom repro.mod import run\nrun(1, fast=True)\n```\n"
            ),
        })
        assert flagged == {}

    def test_allowlist_tracks_reality(self):
        # Every entry names a real setting that the rule would flag
        # without its entry, and carries its reason; nothing else on
        # the repo needs one.
        from lint import TEST_ONLY_SETTING_ALLOWLIST, find_test_only_settings

        assert set(TEST_ONLY_SETTING_ALLOWLIST) == {
            "chaos.ChaosSchedule(stall_rate)",
            "chaos.ChaosSchedule(kill_rate)",
            "chaos.ChaosSchedule(stall_seconds)",
            "checker.compile.compile_checker(env)",
            "checker.fleet.run_fleet(retry_policy)",
            "checker.fleet.run_fleet(chaos)",
            "pipeline.runner.CampaignPipeline(retry_policy)",
            "pipeline.runner.CampaignPipeline(chaos)",
            "analysis.seeds.ParamSeed(path)",
            "runtime.os_model.EmulatedOS.add_file(writable)",
            "serve.server.BackgroundServer(max_pending)",
            "serve.service.ValidationService(max_results)",
            "serve.service.ValidationService(circuit_threshold)",
            "serve.service.ValidationService(circuit_reset_seconds)",
        }
        assert all(
            reason.strip() for reason in TEST_ONLY_SETTING_ALLOWLIST.values()
        )
        unlisted = find_test_only_settings(REPO_ROOT, {})
        assert {m.split("`")[1] for *_, m in unlisted} == set(
            TEST_ONLY_SETTING_ALLOWLIST
        )


class TestUnusedBuiltin:
    """The whole-repo rule over registered builtins, on a miniature
    repository with its own builtins module."""

    BUILTINS = (
        "REGISTRY = {}\n"
        "def register(name):\n"
        "    return lambda fn: REGISTRY.setdefault(name, fn)\n"
        "@register(\"strlen\")\n"
        "def _strlen(interp, args, loc):\n"
        "    return 0\n"
        "@register(\"never_called\")\n"
        "def _never_called(interp, args, loc):\n"
        "    return 0\n"
    )

    def _flagged(self, tmp_path: Path, files: dict[str, str]) -> list[str]:
        from lint import find_unused_builtins

        files = {"src/repro/runtime/builtins.py": self.BUILTINS, **files}
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        out = []
        for path, _, code, message in find_unused_builtins(tmp_path):
            assert code == "unused-builtin"
            assert not path.is_absolute()
            out.append(message.split("`")[1])
        return out

    def test_builtin_nothing_calls_flagged(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/systems/demo.py": (
                'SOURCE = """int main() { return strlen("x"); }"""\n'
            ),
        })
        assert flagged == ["never_called"]

    def test_a_call_in_any_caller_root_counts(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "tests/test_demo.py": 'SOURCE = "never_called (1); strlen(s);"\n',
        })
        assert flagged == []

    def test_a_name_without_a_call_does_not_count(self, tmp_path):
        flagged = self._flagged(tmp_path, {
            "src/repro/knowledge.py": 'APIS = ["strlen", "never_called"]\n',
            "tools/notes.py": 'TEXT = "strlen(s); never_called(s)"\n',
        })
        assert flagged == ["strlen", "never_called"]

    def test_a_docstring_mention_does_not_count(self, tmp_path):
        # Prose naming a builtin keeps nothing alive; only code strings
        # (MiniC sources) call.
        flagged = self._flagged(tmp_path, {
            "src/repro/runtime/helpers.py": (
                '"""Wraps never_called(x) for callers."""\n'
                "class Wrapper:\n"
                '    """See never_called (n)."""\n'
                "    def run(self):\n"
                '        """never_called(1)"""\n'
                "        return 1\n"
                'SOURCE = "int main() { return strlen(s); }"\n'
            ),
        })
        assert flagged == ["never_called"]

    def test_aliased_register_in_a_system_module(self, tmp_path):
        # storage_a's idiom: the decorator imported under another name.
        flagged = self._flagged(tmp_path, {
            "src/repro/systems/vendor.py": (
                "from repro.runtime.builtins import register as _reg\n"
                "@_reg(\"vendor_call\")\n"
                "def _vendor_call(interp, args, loc):\n"
                "    return 0\n"
                "@_reg(\"vendor_unused\")\n"
                "def _vendor_unused(interp, args, loc):\n"
                "    return 0\n"
                'SOURCE = "strlen(s); never_called(); vendor_call(1);"\n'
            ),
        })
        assert flagged == ["vendor_unused"]

    def test_repo_system_builtins_are_seen(self):
        # The real registry: the rule finds storage_a's vendor builtins
        # (test_repo_is_clean then shows its MiniC calls them).
        import ast

        from lint import _registered_builtins

        storage = REPO_ROOT / "src" / "repro" / "systems" / "storage_a.py"
        tree = ast.parse(storage.read_text(encoding="utf-8"))
        names = {
            name
            for name, _ in _registered_builtins(
                storage, tree, REPO_ROOT / "src" / "repro"
            )
        }
        assert names == {
            "wafl_reserve", "ontap_schedule_scrub", "netapp_register_port",
        }


class TestExistingDetectors:
    def test_dead_branch_same_return(self):
        source = (
            "def f(x):\n"
            "    if x:\n"
            "        return x + 1\n"
            "    return x + 1\n"
        )
        assert _codes(source) == ["dead-branch"]

    def test_live_branch_different_return(self):
        source = (
            "def f(x):\n"
            "    if x:\n"
            "        return x + 1\n"
            "    return x - 1\n"
        )
        assert _codes(source) == []

    def test_self_compare(self):
        assert _codes("y = 1\nok = y == y\n") == ["self-compare"]

    def test_assert_tuple(self):
        assert _codes("assert (1, 'msg')\n") == ["assert-tuple"]

    def test_repo_is_clean(self):
        # The gate `make lint` enforces: every linted file is free of
        # every per-file detector's findings, and the whole-repo rules
        # report nothing.
        from lint import (
            DEFAULT_PATHS,
            iter_python_files,
            run_builtin,
            run_repo_rules,
        )

        files = iter_python_files(
            [str(REPO_ROOT / name) for name in DEFAULT_PATHS]
        )
        assert files
        assert run_builtin(files) == 0
        assert run_repo_rules(REPO_ROOT) == 0
