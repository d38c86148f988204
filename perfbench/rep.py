"""One repetition of one benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/rep.py --workload audit --seed 1 \
        --rep 0 --trace 0

Protocol on stdout: one ``{"ready": ...}`` line once set-up is done,
then one result line (JSON) with this repetition's samples, exact
counts, reference checks and, when traced, its per-layer metrics.
`run.py` spawns repetitions and aggregates them.
"""

from __future__ import annotations

import argparse
import asyncio
import difflib
import gc
import hashlib
import json
import os
import queue
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Work per repetition: sized so one repetition takes a few seconds and
# a run holds several repetitions.
FLEET_CALLS = 4
# Configs per system per run_fleet call: one full fleet chunk, so the
# program's chunk-time histogram sees equal-sized chunks.
FLEET_SIZE = 256
SERVE_SECONDS = 3.0
SERVE_CONFIGS_PER_SYSTEM = 24
SERVE_IDS_PER_CLIENT = 4  # bounded config_id set: most checks revise
SERVE_READS_EVERY = 5  # 4 checks, then 1 read
# The fixed-seed fleet whose per-system outcome digest is pinned in
# reference.json (independent of the workload seed).
FLEET_GOLDEN_SEED = 0
FLEET_GOLDEN_SIZE = 16
SERVER_TIMEOUT = 60.0


def nproc() -> int:
    return os.cpu_count() or 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def histogram_quantile(hist: dict | None, q: float) -> float:
    """Quantile of a fixed-bucket registry histogram, interpolated
    linearly inside the bucket that holds it."""
    if not hist or not hist["count"]:
        return 0.0
    target = q * hist["count"]
    edges = [0.0] + list(hist["buckets"])
    seen = 0
    for i, n in enumerate(hist["counts"]):
        if n and seen + n >= target:
            low = edges[i] if i < len(edges) else edges[-1]
            high = edges[i + 1] if i + 1 < len(edges) else low
            return low + (high - low) * (target - seen) / n
        seen += n
    return edges[-1]


# Latency buckets: geometric, 2% apart, 10 us to 100 s, so quantiles
# interpolated inside a bucket are within 1% of the exact value.
OP_BUCKETS = tuple(1e-5 * 1.02 ** i for i in range(815))
INFER = "perfbench.infer_seconds"
OP = "perfbench.op_seconds"


def observe(name: str, seconds: float) -> None:
    from repro.obs import get_registry

    get_registry().observe(name, seconds, buckets=OP_BUCKETS)


def install_timer(owner, attr: str, name: str) -> None:
    """Time every call of `owner.attr` into the program's own metrics
    registry: one clock pair per call, no span.  Calls made in forked
    pool workers come home in the registry deltas the pipeline already
    ships, so the process workloads are timed too."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        begun = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            observe(name, time.perf_counter() - begun)

    setattr(owner, attr, timed)


def install_infer_timer() -> None:
    """Cold inference is `Campaign.run_spex`, whoever calls it."""
    from repro.inject.campaign import Campaign

    install_timer(Campaign, "run_spex", INFER)


def histogram(name: str) -> dict | None:
    from repro.obs import get_registry

    return get_registry().snapshot()["histograms"].get(name)


def infer_seconds() -> float:
    hist = histogram(INFER)
    return hist["sum"] if hist else 0.0


def ready(**extra) -> None:
    print(json.dumps({"ready": True, **extra}), flush=True)


def calibrate(slices: int = 5) -> list[float]:
    """Seconds per slice of a fixed pure-Python workload (difflib from
    the standard library, nothing from the program under test), with
    the collector off so the size of the repetition's heap does not
    count.  The shared machine's speed drifts by half or more over
    minutes; `run.py` divides it out (see its docstring)."""
    rng = random.Random(0)
    a = "".join(rng.choice("abcdefgh") for _ in range(1500))
    b = "".join(rng.choice("abcdefgh") for _ in range(1500))
    out = []
    gc.disable()
    try:
        for _ in range(slices):
            begun = time.perf_counter()
            difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
            out.append(time.perf_counter() - begun)
    finally:
        gc.enable()
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def hit_ratio(stats: dict) -> float:
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


# -- audit ------------------------------------------------------------------


def vulnerability_digest(vulnerabilities) -> str:
    digest = hashlib.sha256()
    for line in sorted(repr(v) for v in vulnerabilities):
        digest.update(line.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def audit_outputs(report) -> dict:
    """Per-system outputs the reference pins."""
    return {
        run.name: {
            "misconfigurations": run.report.misconfigurations_tested,
            "vulnerabilities": vulnerability_digest(
                run.report.vulnerabilities
            ),
            "categories": {
                str(category): n
                for category, n in sorted(
                    run.report.counts_by_category().items(),
                    key=lambda item: str(item[0]),
                )
            },
        }
        for run in report.runs
    }


def run_audit(args, recorder) -> dict:
    from repro.inject.harness import InjectionHarness
    from repro.obs import get_registry
    from repro.pipeline import CampaignPipeline
    from repro.systems.registry import load_all

    install_infer_timer()
    # One op: all injections of one parameter through the harness.
    install_timer(InjectionHarness, "test_batch", OP)
    load_all()
    ready()
    calibration = calibrate()
    process = args.workload == "audit-process"
    pipeline = CampaignPipeline(
        executor="process" if process else "serial",
        max_workers=nproc() if process else None,
        engine=args.engine,
    )
    report = pipeline.run()
    calibration += calibrate()
    outputs = audit_outputs(report)
    registry = get_registry().snapshot()
    counters = registry["counters"]
    stats = report.cache_stats
    misconfigs = report.total_misconfigurations()
    constraints: dict[str, int] = {}
    for run in report.runs:
        for kind, n in run.report.spex_report.constraint_counts().items():
            constraints[kind] = constraints.get(kind, 0) + n

    errors = []
    if args.make_reference:
        return {"outputs": outputs}
    expected = load_reference()["audit"]
    if outputs != expected:
        for name in sorted(set(expected) | set(outputs)):
            if expected.get(name) != outputs.get(name):
                errors.append(f"audit output of {name} differs from reference")
    if report.failed_shards:
        errors.append(f"{len(report.failed_shards)} campaigns quarantined")
    # Bypass self-checks: the audit compiles and validates no checker,
    # and only audit-process starts a process pool.
    checker_lookups = stats["checkers"]["hits"] + stats["checkers"]["misses"]
    if checker_lookups:
        errors.append(f"audit made {checker_lookups} checker lookups")
    if not process and children_cpu_s() > 0:
        errors.append("serial audit ran child processes")

    counts = {
        "misconfigurations": misconfigs,
        "vulnerabilities": report.total_vulnerabilities(),
        "launches": counters.get("launch.requests", 0),
        "boots": stats["snapshots"]["boots"],
        "captures": stats["snapshots"]["captures"],
        "resumes": stats["snapshots"]["resumes"],
        "constraints": constraints,
    }
    result = {
        "calibration_s": statistics.median(calibration),
        "throughput_per_s": misconfigs / report.wall_time,
        "infer_s": infer_seconds(),
        "op_hist": histogram(OP),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": misconfigs,
        "failed": len(report.failed_shards),
        "errors": errors,
        "counts": counts,
    }
    if recorder is not None:
        result["layers"] = layer_metrics(
            recorder.summary(),
            recorder.counts,
            registry,
            stats,
            misconfigs=misconfigs,
            vulnerabilities=report.total_vulnerabilities(),
        )
    return result


# -- fleet ------------------------------------------------------------------


def fleet_digest(report) -> dict:
    return {
        result.name: {
            "configs": result.corpus_size,
            "planted": result.planted,
            "flagged": result.flagged,
            "errors": result.errors,
            "warnings": result.warnings,
            "by_kind": dict(sorted(result.by_kind.items())),
            "true_positives": result.scores.true_positives,
            "false_positives": result.scores.false_positives,
            "false_negatives": result.scores.false_negatives,
        }
        for result in report.results
    }


def recompute_fleet(systems, caches, size: int, seed: int) -> dict:
    """The fleet's per-system outcome tallies, recomputed config by
    config from the corpus and the validator directly (no chunking,
    folding or executor)."""
    from repro.checker.compile import checker_for_system
    from repro.checker.corpus import corpus_pool, iter_corpus
    from repro.checker.validate import validate_config

    out = {}
    for system in systems:
        checker = checker_for_system(system, caches=caches)
        spex = caches.inference.peek(caches.inference.key_for(system))
        pool = corpus_pool(spex, system)
        tally = {
            "configs": 0, "planted": 0, "flagged": 0, "errors": 0,
            "warnings": 0, "by_kind": {}, "true_positives": 0,
            "false_positives": 0, "false_negatives": 0,
        }
        for config in iter_corpus(system, pool, size, seed=seed):
            report = validate_config(checker, config.text)
            tally["configs"] += 1
            tally["errors"] += len(report.errors())
            tally["warnings"] += len(report.warnings())
            for kind in report.kinds_flagged():
                tally["by_kind"][kind] = tally["by_kind"].get(kind, 0) + 1
            planted = config.is_mistaken
            tally["planted"] += planted
            tally["flagged"] += report.flagged
            tally["true_positives"] += planted and report.flagged
            tally["false_positives"] += report.flagged and not planted
            tally["false_negatives"] += planted and not report.flagged
        tally["by_kind"] = dict(sorted(tally["by_kind"].items()))
        out[system.name] = tally
    return out


def run_fleet_workload(args, recorder) -> dict:
    import repro.checker.fleet as checker_fleet
    from repro.checker import run_fleet
    from repro.checker.compile import checker_for_system
    from repro.obs import get_registry
    from repro.pipeline.cache import PipelineCaches
    from repro.systems.registry import iter_systems

    install_infer_timer()
    # One op: one config validation inside the fleet.
    install_timer(checker_fleet, "validate_config", OP)
    caches = PipelineCaches()
    systems = list(iter_systems())
    for system in systems:
        checker_for_system(system, caches=caches)
    infer_s = infer_seconds()
    ready()
    calibration = calibrate()
    if args.make_reference:
        return {"outputs": fleet_digest(
            run_fleet(size=FLEET_GOLDEN_SIZE, seed=FLEET_GOLDEN_SEED, caches=caches)
        )}

    errors = []
    wall = 0.0
    configs = 0
    failed = 0
    for call in range(FLEET_CALLS):
        seed = args.seed * 1000 + args.rep * FLEET_CALLS + call
        report = run_fleet(size=FLEET_SIZE, seed=seed, caches=caches)
        wall += report.wall_time
        configs += report.total_configs
        failed += len(report.failed_shards)
        if call == 0:
            measured = fleet_digest(report)
            if measured != recompute_fleet(systems, caches, FLEET_SIZE, seed):
                errors.append(
                    f"fleet outcomes for seed {seed} differ from the "
                    "direct recomputation"
                )
            scores = report.scores()
            if scores.precision <= 0 or scores.recall <= 0.5:
                errors.append(
                    f"fleet precision/recall out of range: "
                    f"{scores.precision:.3f}/{scores.recall:.3f}"
                )
    op_hist = histogram(OP)
    calibration += calibrate()
    golden = fleet_digest(
        run_fleet(size=FLEET_GOLDEN_SIZE, seed=FLEET_GOLDEN_SEED, caches=caches)
    )
    if golden != load_reference()["fleet"]:
        errors.append("fixed-seed fleet digest differs from reference")
    registry = get_registry().snapshot()
    counters = registry["counters"]
    launches = counters.get("launch.requests", 0)
    if launches:
        errors.append(f"fleet drove {launches} interpreter launches")
    if children_cpu_s() > 0:
        errors.append("fleet ran child processes")
    if failed:
        errors.append(f"{failed} fleet chunks quarantined")
    stats = caches.stats()
    result = {
        "calibration_s": statistics.median(calibration),
        "throughput_per_s": configs / wall,
        "infer_s": infer_s,
        "op_hist": op_hist,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": configs,
        "failed": failed,
        "errors": errors,
        "counts": {"golden": golden, "launches": launches},
    }
    if recorder is not None:
        result["layers"] = layer_metrics(
            recorder.summary(), recorder.counts, registry, stats
        )
    return result


# -- serve ------------------------------------------------------------------


class _Counting:
    """Byte-counting proxy for an asyncio stream reader or writer."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.bytes = 0

    def write(self, data: bytes) -> None:
        self.bytes += len(data)
        self.inner.write(data)

    async def readline(self) -> bytes:
        line = await self.inner.readline()
        self.bytes += len(line)
        return line

    def __getattr__(self, name):
        return getattr(self.inner, name)


class LineReader:
    """Lines of a child's stdout, read on a thread, with timeouts."""

    def __init__(self, stream) -> None:
        self._lines: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._pump, args=(stream,), daemon=True
        )
        self._thread.start()

    def _pump(self, stream) -> None:
        for line in stream:
            self._lines.put(line)
        self._lines.put(None)

    def next(self, timeout: float):
        """Next line, None at end of stream; raises queue.Empty."""
        return self._lines.get(timeout=timeout)

    def rest(self, timeout: float) -> list[str]:
        lines = []
        deadline = time.monotonic() + timeout
        while True:
            line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            if line is None:
                return lines
            lines.append(line)


def start_server(traced: bool):
    """Start the server the way `cli serve --json --port 0` does (the
    traced run goes through the benchmark's launcher, which installs
    the serve-side wrappers first).  Returns (process, lines, port,
    seconds until the ready line)."""
    if traced:
        argv = [sys.executable, str(HERE / "serve_launcher.py")]
    else:
        argv = [sys.executable, "-m", "repro.reporting.cli"]
    argv += ["serve", "--json", "--port", "0"]
    begun = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    lines = LineReader(proc.stdout)
    try:
        line = lines.next(SERVER_TIMEOUT)
    except queue.Empty:
        line = None
    if not line:
        proc.kill()
        proc.wait()
        raise RuntimeError("server did not print its ready line")
    setup_s = time.perf_counter() - begun
    return proc, lines, json.loads(line)["port"], setup_s


def serve_inputs(systems, caches, seed: int) -> list[tuple]:
    """(system, config text, reference outcome) for corpus configs of
    every system, drawn from the seed."""
    from repro.checker.compile import checker_for_system
    from repro.checker.corpus import corpus_pool, iter_corpus
    from repro.checker.validate import validate_config

    inputs = []
    for system in systems:
        checker = checker_for_system(system, caches=caches)
        spex = caches.inference.peek(caches.inference.key_for(system))
        pool = corpus_pool(spex, system)
        for config in iter_corpus(
            system, pool, SERVE_CONFIGS_PER_SYSTEM, seed=seed
        ):
            report = validate_config(checker, config.text)
            inputs.append(
                (
                    system.name,
                    config.text,
                    (
                        report.flagged,
                        len(report.errors()),
                        len(report.warnings()),
                        len(report.diagnostics),
                    ),
                )
            )
    return inputs


async def drive_clients(port: int, inputs, seed: int, recorder) -> dict:
    """Closed loop: `nproc` clients, each waiting for its reply before
    sending the next op, for SERVE_SECONDS."""
    from repro.serve import ServeClient, ServeError
    from repro.serve.server import MAX_LINE_BYTES

    deadline = time.perf_counter() + SERVE_SECONDS
    stats = {
        "checks": [], "reads": [], "failed": 0, "errors": [],
        "request_bytes": 0, "response_bytes": 0,
    }

    def timed(op: str):
        return recorder.open(f"serve.client.{op}") if recorder else None

    async def one_client(index: int) -> None:
        rng = random.Random(f"serve|{seed}|{index}")
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=MAX_LINE_BYTES
        )
        reader, writer = _Counting(reader), _Counting(writer)
        client = ServeClient(reader, writer)
        revisions: dict[tuple[str, str], int] = {}
        last_key = None
        cursor = None  # (cursor, reference total diagnostics)
        read_page = False
        op = 0
        try:
            while time.perf_counter() < deadline:
                op += 1
                is_read = op % SERVE_READS_EVERY == 0 and last_key
                span = timed("read" if is_read else "check")
                begun = time.perf_counter()
                try:
                    if is_read:
                        if read_page and cursor is not None:
                            page = await client.page(cursor[0])
                            if (page.total, page.matched, page.offset) != (
                                cursor[1], cursor[1], 1
                            ):
                                stats["errors"].append("page mismatch")
                            cursor = None
                        else:
                            history = await client.history(*last_key)
                            if history.revision != revisions[last_key]:
                                stats["errors"].append("history revision")
                        read_page = not read_page
                        stats["reads"].append(time.perf_counter() - begun)
                        continue
                    system, text, expected = rng.choice(inputs)
                    config_id = f"c{index}-{rng.randrange(SERVE_IDS_PER_CLIENT)}"
                    response = await client.check(
                        system, text, config_id=config_id, page_size=1
                    )
                    stats["checks"].append(time.perf_counter() - begun)
                    observe(OP, stats["checks"][-1])
                    key = (system, config_id)
                    outcome = (
                        response.flagged,
                        response.errors,
                        response.warnings,
                        response.page.total,
                    )
                    if outcome != expected:
                        stats["errors"].append(
                            f"check of {system} differs from validate_config"
                        )
                    if response.revision != revisions.get(key, 0) + 1:
                        stats["errors"].append(f"revision skip on {key}")
                    revisions[key] = response.revision
                    last_key = key
                    if response.page.cursor is not None:
                        cursor = (response.page.cursor, expected[3])
                except ServeError as exc:
                    stats["failed"] += 1
                    stats["errors"].append(f"serve refused: {exc}")
                    # A failed op misses every latency limit.
                    (stats["reads"] if is_read else stats["checks"]).append(
                        float("inf")
                    )
                    if not is_read:
                        observe(OP, float("inf"))
                finally:
                    if span is not None:
                        recorder.close(*span)
        finally:
            stats["request_bytes"] += writer.bytes
            stats["response_bytes"] += reader.bytes
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(one_client(i) for i in range(nproc())))
    stats["elapsed"] = time.perf_counter() - started
    return stats


async def server_metrics(port: int):
    from repro.serve import ServeClient

    client = await ServeClient.connect("127.0.0.1", port)
    try:
        return await client.metrics()
    finally:
        await client.close()


async def server_shutdown(port: int) -> None:
    from repro.serve import ServeClient

    client = await ServeClient.connect("127.0.0.1", port)
    try:
        await client.shutdown()
    finally:
        await client.close()


def run_serve(args, recorder) -> dict:
    from repro.obs import get_registry
    from repro.pipeline.cache import PipelineCaches
    from repro.systems.registry import iter_systems

    install_infer_timer()
    # Calibrate next to the generator's inference, which is timed here.
    calibration = calibrate()
    caches = PipelineCaches()
    systems = list(iter_systems())
    inputs = serve_inputs(systems, caches, args.seed * 1000 + args.rep)
    infer_s = infer_seconds()
    proc, lines, port, setup_s = start_server(traced=recorder is not None)
    try:
        ready(setup_s=setup_s)
        stats = asyncio.run(
            drive_clients(port, inputs, args.seed * 1000 + args.rep, recorder)
        )
        calibration += calibrate()
        metrics = asyncio.run(server_metrics(port))
        asyncio.run(server_shutdown(port))
        trailer = lines.rest(SERVER_TIMEOUT)
        proc.wait(timeout=SERVER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # The server is this process's only child: its peak RSS.
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    errors = list(dict.fromkeys(stats["errors"]))
    checks, reads = stats["checks"], stats["reads"]
    served = metrics.counters.get("serve.requests", 0)
    if served != len(checks):
        errors.append(
            f"server counted {served} checks, clients sent {len(checks)}"
        )
    launches = get_registry().snapshot()["counters"].get("launch.requests", 0)
    server = json.loads(trailer[-1]) if recorder is not None else None
    if server is not None:
        launches += server["launches"]
    if launches:
        errors.append(f"serve drove {launches} interpreter launches")
    if proc.returncode != 0:
        errors.append(f"server exited with code {proc.returncode}")
    ops = len(checks) + len(reads)
    result = {
        "setup_s": setup_s,
        "calibration_s": statistics.median(calibration),
        "throughput_per_s": (ops - stats["failed"]) / stats["elapsed"],
        "infer_s": infer_s,
        "op_hist": histogram(OP),
        "peak_rss_mb": rss,
        "attempted": ops,
        "failed": stats["failed"],
        "errors": errors,
        "counts": {"launches": launches},
    }
    if recorder is not None:
        summary = recorder.summary()
        summary.update(server["summary"])
        counts = dict(recorder.counts)
        for name, value in server["counts"].items():
            counts[name] = counts.get(name, 0) + value
        layers = layer_metrics(
            summary, counts, server["registry"], server["cache_stats"]
        )
        service_ms = layers["serve.service_ms_p50"]
        layers.update(
            {
                "serve.hop_ms_p50": service_ms - layers["serve.validate_ms_p50"],
                "serve.transport_ms_p50": (
                    statistics.median(checks) * 1000.0 - service_ms
                ),
                "serve.read_p50_ms": statistics.median(reads) * 1000.0,
                "serve.request_bytes": stats["request_bytes"] / ops,
                "serve.response_bytes": stats["response_bytes"] / ops,
                "serve.refusals": stats["failed"],
                "obs.spans": len(recorder.spans) + server["spans"],
            }
        )
        result["layers"] = layers
    return result


# -- per-layer metrics ------------------------------------------------------


def layer_metrics(
    summary: dict,
    counts: dict,
    registry: dict,
    cache_stats: dict,
    misconfigs: int = 0,
    vulnerabilities: int = 0,
) -> dict:
    """Every per-layer metric from one traced repetition: self times
    from the spans, counts from the program's own outputs."""
    from repro.systems.registry import system_names

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def p50_ms(name: str) -> float:
        return summary.get(name, {}).get("p50_s", 0.0) * 1000.0

    counters = registry["counters"]
    histograms = registry["histograms"]
    launches = counters.get("launch.requests", 0)
    snapshots = cache_stats["snapshots"]
    validations = counts.get("checker.validations", 0)
    out = {
        "lang.parse_s": self_s("lang.parse"),
        "lang.source_lines": counts.get("lang.source_lines", 0),
        "ir.build_s": self_s("ir.build"),
        "ir.instructions": counts.get("ir.instructions", 0),
        "core.mapping_s": self_s("core.mapping"),
        "core.seeds": counts.get("core.seeds", 0),
        "analysis.taint_s": self_s("analysis.taint"),
        "analysis.functions": counts.get("analysis.functions", 0),
    }
    for label in (
        "basic", "semantic", "numeric_range", "enum_range",
        "ctrl_dep", "value_rel", "access",
    ):
        out[f"core.infer.{label}_s"] = self_s(f"core.infer.{label}")
    for kind in (
        "basic", "semantic", "range", "ctrl_dep", "value_rel",
        "access_control",
    ):
        out[f"core.constraints.{kind}"] = counts.get(
            f"core.constraints.{kind}", 0
        )
    launch_self = sum(
        entry["self_s"]
        for name, entry in summary.items()
        if name.startswith("inject.launch.")
    )
    out.update(
        {
            "inject.generate_s": self_s("inject.generate"),
            "inject.campaign_s": self_s("inject.campaign"),
            "inject.classify_s": self_s("inject.classify"),
            "inject.launch_self_s": launch_self,
            "inject.misconfigs": misconfigs,
            "inject.launches": launches,
            "inject.launches_per_misconf": (
                launches / misconfigs if misconfigs else 0.0
            ),
            "inject.vulnerabilities": vulnerabilities,
        }
    )
    for system in system_names():
        out[f"inject.launch_s.{system}"] = summary.get(
            f"inject.launch.{system}", {}
        ).get("total_s", 0.0)
    out.update(
        {
            "runtime.lower_s": self_s("runtime.lower"),
            "runtime.launch_s": self_s("runtime.launch.boot")
            + self_s("runtime.launch.resume"),
            "runtime.boots": snapshots["boots"],
            "runtime.captures": snapshots["captures"],
            "runtime.resumes": snapshots["resumes"],
            "runtime.capture_ratio": (
                snapshots["captures"] / snapshots["boots"]
                if snapshots["boots"] else 0.0
            ),
            "runtime.boot_ms_p50": p50_ms("runtime.launch.boot"),
            "runtime.resume_ms_p50": p50_ms("runtime.launch.resume"),
            "runtime.replay_ms_p50": histogram_quantile(
                histograms.get("launch.replay_seconds"), 0.5
            ) * 1000.0,
        }
    )
    for layer in ("inference", "launches", "checkers"):
        out[f"pipeline.cache.{layer}.hit_ratio"] = hit_ratio(cache_stats[layer])
    out.update(
        {
            "pipeline.executor.map_s": self_s("pipeline.executor.map"),
            "pipeline.executor.tasks": counts.get("pipeline.executor.tasks", 0),
            "pipeline.executor.retries": counters.get("resilience.retries", 0),
            "pipeline.executor.worker_crashes": counters.get(
                "resilience.worker_crashes", 0
            ),
            "checker.compile_s": self_s("checker.compile"),
            "checker.corpus_s": self_s("checker.corpus"),
            "checker.validate_s": self_s("checker.validate"),
            "checker.validations": validations,
            "checker.diagnostics": counts.get("checker.diagnostics", 0),
            "checker.flagged_fraction": (
                counts.get("checker.flagged", 0) / validations
                if validations else 0.0
            ),
            "checker.fleet_chunk_ms_p50": histogram_quantile(
                histograms.get("fleet.chunk_seconds"), 0.5
            ) * 1000.0,
            "serve.service_ms_p50": p50_ms("serve.check"),
            "serve.validate_ms_p50": p50_ms("checker.validate")
            if "serve.check" in summary else 0.0,
            "serve.hop_ms_p50": 0.0,
            "serve.transport_ms_p50": 0.0,
            "serve.read_p50_ms": 0.0,
            "serve.request_bytes": 0.0,
            "serve.response_bytes": 0.0,
            "serve.refusals": 0,
            "obs.spans": sum(entry["n"] for entry in summary.values()),
        }
    )
    return out


# -- entry point ------------------------------------------------------------


WORKLOADS = {
    "audit": run_audit,
    "audit-process": run_audit,
    "fleet": run_fleet_workload,
    "serve": run_serve,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--engine", default=None, help=argparse.SUPPRESS)
    parser.add_argument(
        "--make-reference", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args()
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        if args.workload != "serve":
            # The serve generator's own reference checkers are not the
            # system under test; its server installs these itself.
            tracing.install_program_layers(recorder)
    result = WORKLOADS[args.workload](args, recorder)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
