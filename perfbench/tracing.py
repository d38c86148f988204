"""In-memory spans around the public entry points of each layer.

The traced run installs wrappers on the names the program itself looks
up (module globals and class attributes), so its own call sequence runs
unchanged and every call through a wrapped name becomes one span.
Spans stay in memory until the run ends; nothing is written while
measuring.

A span records its name, start, end, parent and request id.  Parents
follow `contextvars`, so concurrent asyncio tasks keep separate span
stacks; a span opened with no parent starts a new request id, which
its children inherit.  A span's self time is its duration minus the
time its direct children cover.

Process-pool workers inherit the wrappers through fork, but their
spans die with them: worker-side layers are out of scope here.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import statistics
import threading
import time

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """Append-only span store plus exact counters."""

    def __init__(self) -> None:
        # [name, start, end, parent index, request id, attrs]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._requests = itertools.count(1)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name: str, attrs: dict | None = None):
        parent = _CURRENT.get()
        if parent is None:
            request = next(self._requests)
            parent_index = None
        else:
            parent_index, request = parent
        record = [name, time.perf_counter(), None, parent_index, request, attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        token = _CURRENT.set((index, request))
        return record, token

    def close(self, record: list, token) -> None:
        record[2] = time.perf_counter()
        _CURRENT.reset(token)

    def self_times(self) -> list[float]:
        """Per-span self time, aligned with `spans`."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        return [
            (end - start) - child_time[i] if end is not None else 0.0
            for i, (_, start, end, _, _, _) in enumerate(self.spans)
        ]

    def summary(self) -> dict:
        """Per span name (plus its key, if any): count, inclusive and
        self seconds, and the median inclusive duration."""
        out: dict[str, dict] = {}
        durations: dict[str, list[float]] = {}
        for record, self_time in zip(self.spans, self.self_times()):
            name, start, end, _, _, attrs = record
            if end is None:
                continue
            if attrs and "key" in attrs:
                name = f"{name}.{attrs['key']}"
            entry = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            entry["n"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_time
            durations.setdefault(name, []).append(end - start)
        for name, values in durations.items():
            out[name]["p50_s"] = statistics.median(values)
        return out


def _wrap_callable(recorder: Recorder, original, name: str, key=None, post=None):
    """`original` wrapped in a span; `key(args)` adds a span sub-key,
    `post(result, args)` feeds exact counters from the return value."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        attrs = {"key": key(args)} if key is not None else None
        record, token = recorder.open(name, attrs)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(record, token)
        if post is not None:
            post(result, args)
        return result

    return wrapper


def _wrap_coroutine(recorder: Recorder, original, name: str):
    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        record, token = recorder.open(name)
        try:
            return await original(*args, **kwargs)
        finally:
            recorder.close(record, token)

    return wrapper


def _wrap_generator(recorder: Recorder, original, name: str):
    """Times each step of a generator, so lazily produced items are
    charged to the generator rather than to whoever consumes them."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        while True:
            record, token = recorder.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.close(record, token)
            yield item

    return wrapper


def patch(recorder: Recorder, owner, attr: str, name: str, kind="call", **extra):
    """Replace `owner.attr` with a span-recording wrapper."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        wrapped = classmethod(
            _wrap_callable(recorder, raw.__func__, name, **extra)
        )
    elif kind == "coroutine":
        wrapped = _wrap_coroutine(recorder, raw, name)
    elif kind == "generator":
        wrapped = _wrap_generator(recorder, raw, name)
    else:
        wrapped = _wrap_callable(recorder, raw, name, **extra)
    setattr(owner, attr, wrapped)


def install_program_layers(recorder: Recorder) -> None:
    """Wrap the in-process entry points of every layer below serve."""
    import repro.checker.compile as checker_compile
    import repro.checker.fleet as checker_fleet
    import repro.core.engine as core_engine
    import repro.inject.harness as harness
    import repro.runtime.snapshot as snapshot
    from repro.analysis import TaintEngine
    from repro.inject.campaign import Campaign
    from repro.inject.generators import GeneratorRegistry
    from repro.inject.harness import InjectionHarness
    from repro.lang.program import Program
    from repro.pipeline.executor import (
        ProcessExecutor,
        SerialExecutor,
        ThreadExecutor,
    )

    patch(recorder, Program, "from_sources", "lang.parse",
          post=lambda program, args: recorder.count(
              "lang.source_lines",
              sum(text.count("\n") + 1 for text in _source_texts(args)),
          ))
    patch(recorder, core_engine, "build_ir", "ir.build",
          post=lambda module, args: recorder.count(
              "ir.instructions",
              sum(
                  sum(len(block.instructions) for block in fn.blocks.values())
                  for fn in module.functions.values()
              ),
          ))
    patch(recorder, core_engine, "extract_mappings", "core.mapping",
          post=lambda mapping, args: recorder.count(
              "core.seeds", len(mapping.seeds)
          ))
    patch(recorder, TaintEngine, "run", "analysis.taint",
          post=lambda analysis, args: recorder.count(
              "analysis.functions", len(analysis.module.functions)
          ))
    for attr, label in (
        ("infer_basic_types", "basic"),
        ("infer_semantic_types", "semantic"),
        ("infer_numeric_ranges", "numeric_range"),
        ("infer_enum_ranges", "enum_range"),
        ("infer_control_deps", "ctrl_dep"),
        ("infer_value_relationships", "value_rel"),
        ("infer_access_controls", "access"),
    ):
        patch(recorder, core_engine, attr, f"core.infer.{label}")
    patch(recorder, Campaign, "run_spex", "core.spex",
          post=lambda report, args: [
              recorder.count(f"core.constraints.{kind}", n)
              for kind, n in report.constraint_counts().items()
          ])
    patch(recorder, Campaign, "run", "inject.campaign")
    patch(recorder, GeneratorRegistry, "generate", "inject.generate")
    patch(recorder, InjectionHarness, "test_batch", "inject.classify")
    patch(recorder, InjectionHarness, "launch", "inject.launch",
          key=lambda args: args[0].system.name)
    # Launch-plan lowering and boots, under the names the snapshot
    # engine and the harness look them up by.
    patch(recorder, snapshot, "plan_for", "runtime.lower")
    patch(recorder, snapshot, "codegen_plan_for", "runtime.lower")
    patch(recorder, harness, "boot_launch", "runtime.launch",
          key=lambda args: (
              "resume" if args[4].snapshot is not None else "boot"
          ))
    for cls in (SerialExecutor, ThreadExecutor, ProcessExecutor):
        patch(recorder, cls, "map", "pipeline.executor.map",
              post=lambda result, args: recorder.count(
                  "pipeline.executor.tasks", len(result)
              ))
        patch(recorder, cls, "map_resilient", "pipeline.executor.map",
              post=lambda result, args: recorder.count(
                  "pipeline.executor.tasks", len(result.results)
              ))
    patch(recorder, checker_compile, "compile_checker", "checker.compile")
    patch(recorder, checker_fleet, "corpus_pool", "checker.corpus")
    patch(recorder, checker_fleet, "iter_corpus", "checker.corpus",
          kind="generator")
    install_validate(recorder, checker_fleet)


def install_validate(recorder: Recorder, module) -> None:
    """Wrap `validate_config` as `module` sees it."""

    def tally(report, args):
        recorder.count("checker.validations")
        recorder.count("checker.diagnostics", len(report.diagnostics))
        if report.flagged:
            recorder.count("checker.flagged")

    patch(recorder, module, "validate_config", "checker.validate", post=tally)


def install_serve_layers(recorder: Recorder) -> None:
    """Wrap the server-side serve entry points (inside the server)."""
    import repro.serve.service as service
    from repro.serve.service import ValidationService

    patch(recorder, ValidationService, "check", "serve.check",
          kind="coroutine")
    install_validate(recorder, service)


def _source_texts(args) -> list[str]:
    sources = args[1] if len(args) > 1 else {}
    if isinstance(sources, dict):
        return list(sources.values())
    return [text for _, text in sources]
