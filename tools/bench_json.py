#!/usr/bin/env python
"""Write BENCH_launch.json: the repo's performance trajectory baseline.

Run via ``make bench-json``.  Captures, for every registered system:

* ``tree_launches_per_s``  - the seed's engine (tree-walking
  interpreter, no warm-boot snapshots), the historical baseline;
* ``engines.<name>.cold_launches_per_s`` - that launch engine meeting
  each config for the first time (probe/capture boots included);
* ``engines.<name>.warm_launches_per_s`` - that engine replaying from
  warm-boot snapshots (the steady state of functional-test driving);

one row per fast engine (``codegen``), plus the cold 8-system
campaign wall-clock under tree and codegen, the speedup, and the
run's cache/boot counters.  Future PRs append their
own runs by regenerating the file and comparing against the committed
numbers.

``make bench-check`` (``--check``) re-measures warm throughput and
compares it against the committed file: any system/engine row more
than ``REGRESSION_TOLERANCE`` below the committed number is reported,
and - opt-in via ``BENCH_GUARD=1``, because absolute numbers are
machine-dependent - fails the run, so perf wins stop silently eroding.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.inject.campaign import Campaign  # noqa: E402
from repro.inject.harness import InjectionHarness  # noqa: E402
from repro.pipeline.cache import PipelineCaches, SnapshotCache  # noqa: E402
from repro.runtime.interpreter import InterpreterOptions  # noqa: E402
from repro.systems.registry import iter_systems  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_launch.json"
CHAOS_OUTPUT = REPO_ROOT / "BENCH_chaos.json"

#: chaos-check: a faulted-and-recovered fleet run may cost this much
#: more wall clock than its fault-free twin before the (advisory,
#: BENCH_GUARD-gated) check reports a regression.
CHAOS_OVERHEAD_LIMIT = 0.15

TREE_BASELINE = InterpreterOptions(
    max_steps=400_000,
    max_virtual_seconds=120.0,
    engine="tree",
    warm_boot=False,
)
LAUNCH_OPTIONS = InterpreterOptions(
    max_steps=400_000, max_virtual_seconds=120.0
)

#: Launch engines benchmarked per system (tree is the separate
#: historical baseline row).
ENGINES = ("codegen",)

LAUNCH_REPS = 3

#: bench-check: a warm row may sit this far below the committed number
#: before it counts as a regression (20%).
REGRESSION_TOLERANCE = 0.20


def dump_payload(payload: dict) -> str:
    """Canonical serialisation for every BENCH_*.json artifact: sorted
    keys, two-space indent, trailing newline.  Key order never depends
    on insertion order, so two dumps of equal payloads are
    byte-identical and regenerated files diff cleanly."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_payload(path: Path, payload: dict) -> None:
    path.write_text(dump_payload(payload), encoding="utf-8")


def _launch_pass(harness, system) -> int:
    """One startup launch plus every functional test; returns the
    number of launches driven."""
    harness.launch(system.default_config)
    for test in system.tests:
        harness.launch(system.default_config, test.requests)
    return 1 + len(system.tests)


def _bench_engine(system, engine: str) -> dict:
    out: dict[str, float] = {}

    # Cold: the engine meeting each config for the first time - fresh
    # boot records every pass.
    started = time.perf_counter()
    launches = 0
    for _ in range(LAUNCH_REPS):
        launches += _launch_pass(
            InjectionHarness(system, options=LAUNCH_OPTIONS, engine=engine),
            system,
        )
    out["cold_launches_per_s"] = launches / (time.perf_counter() - started)

    # Warm: one harness keeps its boot records, so repeated passes
    # replay from snapshots (no launch cache - every launch computes).
    harness = InjectionHarness(system, options=LAUNCH_OPTIONS, engine=engine)
    _launch_pass(harness, system)  # warm the records
    started = time.perf_counter()
    launches = sum(_launch_pass(harness, system) for _ in range(LAUNCH_REPS))
    out["warm_launches_per_s"] = launches / (time.perf_counter() - started)
    return {key: round(value, 2) for key, value in out.items()}


def bench_system_launches(system) -> dict:
    # Tree baseline: the seed's per-launch cost.
    harness = InjectionHarness(system, options=TREE_BASELINE)
    started = time.perf_counter()
    launches = sum(_launch_pass(harness, system) for _ in range(LAUNCH_REPS))
    tree = launches / (time.perf_counter() - started)

    return {
        "tree_launches_per_s": round(tree, 2),
        "launches_per_pass": 1 + len(system.tests),
        "engines": {
            engine: _bench_engine(system, engine) for engine in ENGINES
        },
    }


def bench_warm_only(system) -> dict:
    """bench-check's fast path: warm rows only, per engine."""
    out = {}
    for engine in ENGINES:
        harness = InjectionHarness(
            system, options=LAUNCH_OPTIONS, engine=engine
        )
        _launch_pass(harness, system)
        _launch_pass(harness, system)  # records warm after two passes
        started = time.perf_counter()
        launches = sum(
            _launch_pass(harness, system) for _ in range(LAUNCH_REPS)
        )
        out[engine] = round(launches / (time.perf_counter() - started), 2)
    return out


def bench_campaigns() -> dict:
    caches = PipelineCaches()
    for system in iter_systems(None):
        Campaign(system, inference_cache=caches.inference).run_spex()

    def sweep(harness_options, snapshot_cache):
        duration = 0.0
        misconfigurations = 0
        for system in iter_systems(None):
            campaign = Campaign(
                system,
                inference_cache=caches.inference,
                harness_options=harness_options,
                snapshot_cache=snapshot_cache,
            )
            started = time.perf_counter()
            report = campaign.run()
            duration += time.perf_counter() - started
            misconfigurations += report.misconfigurations_tested
        return duration, misconfigurations

    tree_time, misconfigs = sweep(TREE_BASELINE, None)
    snapshot_cache = SnapshotCache()
    new_time, _ = sweep(None, snapshot_cache)
    return {
        "misconfigurations": misconfigs,
        "tree_wall_time_s": round(tree_time, 3),
        "wall_time_s": round(new_time, 3),
        "tree_throughput_misconfigs_per_s": round(misconfigs / tree_time, 2),
        "throughput_misconfigs_per_s": round(misconfigs / new_time, 2),
        "speedup": round(tree_time / new_time, 2),
        "boot_stats": snapshot_cache.boot_stats.snapshot(),
    }


# -- chaos: recovery overhead ------------------------------------------------


def _fleet_parity_view(summary: dict) -> dict:
    """A fleet summary with every timing-derived field dropped: what
    must be bit-identical between a fault-free run and a
    faulted-and-recovered one."""
    view = json.loads(json.dumps(summary))
    for key in ("wall_time", "throughput", "cache_stats"):
        view.pop(key, None)
    for system in view.get("systems", []):
        system.pop("duration", None)
        system.pop("checker_from_cache", None)
    return view


def bench_chaos() -> dict:
    """Measure what recovery costs: the same fleet run fault-free and
    under an injected-fault schedule with retries, wall clock and
    report parity compared."""
    from repro.chaos import ChaosSchedule
    from repro.checker.fleet import run_fleet
    from repro.obs import get_registry
    from repro.resilience import RetryPolicy

    systems = ["mysql", "postgresql"]
    size, seed, chunk_size = 384, 3, 32
    caches = PipelineCaches()
    # Warm inference + checker compilation once, outside both timed
    # runs, so the comparison measures validation, not compilation.
    run_fleet(
        systems=systems, size=8, seed=seed, executor="serial",
        chunk_size=chunk_size, caches=caches,
    )

    started = time.perf_counter()
    baseline = run_fleet(
        systems=systems, size=size, seed=seed, executor="serial",
        chunk_size=chunk_size, caches=caches,
    )
    fault_free_s = time.perf_counter() - started

    # seed 3 at 5% fires exactly two first-attempt faults over the 24
    # chunks (deterministic - the schedule is a pure hash), so the run
    # provably exercises recovery while staying under the limit.
    chaos = ChaosSchedule(seed=3, error_rate=0.05, stall_rate=0.05,
                          stall_seconds=0.002)
    policy = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01)
    before = get_registry().snapshot()["counters"]
    started = time.perf_counter()
    chaotic = run_fleet(
        systems=systems, size=size, seed=seed, executor="serial",
        chunk_size=chunk_size, caches=caches,
        chaos=chaos, retry_policy=policy,
    )
    chaos_s = time.perf_counter() - started
    after = get_registry().snapshot()["counters"]

    parity = _fleet_parity_view(
        baseline.summary_dict()
    ) == _fleet_parity_view(chaotic.summary_dict())
    overhead = (chaos_s - fault_free_s) / fault_free_s
    return {
        "fleet": {
            "systems": systems,
            "size": size,
            "chunks": (size // chunk_size) * len(systems),
            "fault_free_s": round(fault_free_s, 3),
            "chaos_s": round(chaos_s, 3),
            "overhead_fraction": round(overhead, 4),
            "parity": parity,
            "retries": after.get("resilience.retries", 0)
            - before.get("resilience.retries", 0),
            "failed_shards": len(chaotic.failed_shards),
            "chaos_schedule": {
                "seed": chaos.seed,
                "error_rate": chaos.error_rate,
                "stall_rate": chaos.stall_rate,
                "stall_seconds": chaos.stall_seconds,
            },
        },
        "overhead_limit": CHAOS_OVERHEAD_LIMIT,
    }


def check_chaos() -> int:
    """chaos --check: fresh recovery overhead vs the committed limit.

    Parity failures always fail (determinism is not machine-
    dependent); overhead beyond `CHAOS_OVERHEAD_LIMIT` fails only
    under `BENCH_GUARD=1`, like bench-check."""
    fresh = bench_chaos()["fleet"]
    print(
        f"chaos-check: fault-free {fresh['fault_free_s']}s vs chaotic "
        f"{fresh['chaos_s']}s (+{fresh['overhead_fraction']:.1%}, "
        f"{fresh['retries']} retries, parity={fresh['parity']})"
    )
    if not fresh["parity"]:
        print("chaos-check: FAILED - recovered run diverged from baseline")
        return 1
    if fresh["overhead_fraction"] > CHAOS_OVERHEAD_LIMIT:
        print(
            f"chaos-check: recovery overhead {fresh['overhead_fraction']:.1%}"
            f" exceeds the {CHAOS_OVERHEAD_LIMIT:.0%} limit"
        )
        if os.environ.get("BENCH_GUARD") == "1":
            return 1
        print("(advisory only; set BENCH_GUARD=1 to fail on overhead)")
    else:
        print("chaos-check: recovery overhead within limit")
    return 0


def _committed_warm_rows(row: dict) -> dict[str, float]:
    """Warm throughput per engine from one system's committed row."""
    return {
        engine: stats["warm_launches_per_s"]
        for engine, stats in row.get("engines", {}).items()
        if "warm_launches_per_s" in stats
    }


def check_regressions() -> int:
    """bench-check: fresh warm throughput vs the committed file.

    Always prints the comparison; only a `BENCH_GUARD=1` environment
    turns regressions beyond `REGRESSION_TOLERANCE` into a non-zero
    exit (the numbers are machine-dependent, so the guard is opt-in).
    """
    if not OUTPUT.exists():
        print(f"no committed {OUTPUT.name}; run `make bench-json` first")
        return 1
    committed = json.loads(OUTPUT.read_text(encoding="utf-8"))
    regressions = []
    for system in iter_systems(None):
        committed_row = committed.get("systems", {}).get(system.name)
        if committed_row is None:
            continue
        fresh = bench_warm_only(system)
        for engine, old_warm in _committed_warm_rows(committed_row).items():
            new_warm = fresh.get(engine)
            if new_warm is None:
                continue
            floor = old_warm * (1.0 - REGRESSION_TOLERANCE)
            verdict = "OK" if new_warm >= floor else "REGRESSED"
            print(
                f"{system.name}/{engine}: warm {old_warm:.1f} -> "
                f"{new_warm:.1f} launches/s [{verdict}]"
            )
            if new_warm < floor:
                regressions.append(
                    f"{system.name}/{engine}: {old_warm:.1f} -> "
                    f"{new_warm:.1f} launches/s "
                    f"(> {REGRESSION_TOLERANCE:.0%} below committed)"
                )
    if not regressions:
        print("bench-check: no warm-throughput regressions")
        return 0
    print(f"bench-check: {len(regressions)} warm-throughput regression(s):")
    for line in regressions:
        print(f"  {line}")
    if os.environ.get("BENCH_GUARD") == "1":
        return 1
    print("(advisory only; set BENCH_GUARD=1 to fail on regressions)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "--chaos" in args:
        if "--check" in args:
            return check_chaos()
        payload = {
            "generated_unix": int(time.time()),
            "description": (
                "recovery overhead: the same fleet run fault-free vs "
                "under an injected-fault schedule with retries"
            ),
        }
        payload.update(bench_chaos())
        write_payload(CHAOS_OUTPUT, payload)
        print(f"chaos: {payload['fleet']}")
        print(f"wrote {CHAOS_OUTPUT}")
        return 0
    if "--check" in args:
        return check_regressions()
    payload = {
        "generated_unix": int(time.time()),
        "engines": {
            "baseline": "tree-walking interpreter, no warm-boot snapshots",
            "codegen": (
                "source-generated Python module + zero-copy snapshot restore"
            ),
        },
        "systems": {},
    }
    for system in iter_systems(None):
        payload["systems"][system.name] = bench_system_launches(system)
        print(f"{system.name}: {payload['systems'][system.name]}")
    payload["campaign"] = bench_campaigns()
    print(f"campaign: {payload['campaign']}")
    write_payload(OUTPUT, payload)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
