"""Launch-engine benchmark: source codegen + warm-boot snapshots.

The acceptance bar for the codegen-and-replay engine: a *cold*
(launch-cache-empty) 8-system campaign must run at >= 3x the launch
throughput of the tree-walking baseline (the seed's engine: tree
dispatch, no snapshots), while producing bit-identical verdicts and
`Vulnerability` sets.  Inference is pre-warmed and shared so both
sweeps time the injection loop, not SPEX.
"""

import pickle
import time
from dataclasses import dataclass

import pytest

from conftest import emit

from repro.inject.campaign import Campaign
from repro.inject.harness import InjectionHarness
from repro.pipeline.cache import PipelineCaches, SnapshotCache
from repro.runtime.interpreter import InterpreterOptions
from repro.runtime.snapshot import BootSnapshot
from repro.systems.registry import get_system, iter_systems

# The harness's default budgets, pinned so both engines run identical
# interpreter options apart from the engine/warm-boot knobs.
TREE_BASELINE = InterpreterOptions(
    max_steps=400_000,
    max_virtual_seconds=120.0,
    engine="tree",
    warm_boot=False,
)

SPEEDUP_FLOOR = 3.0

# The codegen engine + zero-copy restore must at least double the
# tree engine's seed-era warm throughput on the slowest system.
WARM_SPEEDUP_FLOOR = 2.0


@pytest.fixture(scope="module")
def inference():
    caches = PipelineCaches()
    for system in iter_systems(None):
        Campaign(system, inference_cache=caches.inference).run_spex()
    return caches.inference


def _sweep(inference, harness_options=None, snapshot_cache=None):
    """One cold 8-system campaign sweep; launch caches stay empty so
    every single launch is really executed."""
    duration = 0.0
    verdict_streams = {}
    vulnerability_sets = {}
    misconfigurations = 0
    for system in iter_systems(None):
        campaign = Campaign(
            system,
            inference_cache=inference,
            harness_options=harness_options,
            snapshot_cache=snapshot_cache,
        )
        started = time.perf_counter()
        report = campaign.run()
        duration += time.perf_counter() - started
        misconfigurations += report.misconfigurations_tested
        vulnerability_sets[system.name] = frozenset(report.vulnerabilities)
        verdict_streams[system.name] = [
            (
                verdict.misconfiguration.settings,
                verdict.misconfiguration.rule,
                verdict.reaction.category,
                verdict.reaction.pinpointed,
                verdict.reaction.detail,
                verdict.tests_run,
                verdict.failed_tests,
            )
            for verdict in report.verdicts
        ]
    return duration, misconfigurations, vulnerability_sets, verdict_streams


def test_cold_campaign_3x_throughput_with_identical_results(inference):
    tree_time, tree_mis, tree_vulns, tree_verdicts = _sweep(
        inference, harness_options=TREE_BASELINE
    )
    snapshot_cache = SnapshotCache()
    new_time, new_mis, new_vulns, new_verdicts = _sweep(
        inference, snapshot_cache=snapshot_cache
    )

    assert new_mis == tree_mis
    # Bit-identical outcomes: every verdict (reaction category,
    # pinpointing, detail, test counts, failure roster) and therefore
    # every Vulnerability set matches the tree-walking baseline.
    assert new_verdicts == tree_verdicts
    assert new_vulns == tree_vulns

    tree_throughput = tree_mis / tree_time
    new_throughput = new_mis / new_time
    speedup = new_throughput / tree_throughput
    stats = snapshot_cache.boot_stats
    emit(
        "Launch engine, cold 8-system campaign "
        f"({tree_mis} misconfigurations):\n"
        f"  tree baseline      {tree_time:6.2f}s  "
        f"{tree_throughput:7.1f} misconfigs/s\n"
        f"  codegen+snapshots  {new_time:6.2f}s  "
        f"{new_throughput:7.1f} misconfigs/s\n"
        f"  speedup {speedup:.2f}x (floor {SPEEDUP_FLOOR}x); "
        f"boots {stats.boots}, captures {stats.captures}, "
        f"resumes {stats.resumes}"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"codegen launch engine is only {speedup:.2f}x the tree "
        f"baseline (floor {SPEEDUP_FLOOR}x)"
    )


@dataclass
class _LegacySnapshot(BootSnapshot):
    """The seed's resume path, replicated byte-for-byte: one full
    `pickle.loads` of the boot blob per resume, `global_types` rebuilt
    from the program.  PR 9 replaced this with the fixup-scanned
    copy-on-write restore; this subclass keeps the old cost measurable
    so the warm-floor comparison stays honest on any machine."""

    blob: bytes = b""

    def materialize(self, program):
        state = pickle.loads(self.blob)
        state["global_types"] = {
            name: decl.type for name, decl in program.globals.items()
        }
        return state


def _launch_pass(harness, system):
    """One startup launch plus every functional test."""
    harness.launch(system.default_config)
    for test in system.tests:
        harness.launch(system.default_config, test.requests)
    return 1 + len(system.tests)


def _warm_throughput(system, engine, legacy_restore=False, passes=25):
    harness = InjectionHarness(system, engine=engine)
    _launch_pass(harness, system)  # probe: learns the boot boundary
    _launch_pass(harness, system)  # capture: takes the snapshot
    if legacy_restore:
        argv = [system.name, system.config_path]
        record, _, _ = harness._boot_record(system.default_config, argv)
        record.snapshot = _LegacySnapshot(
            boundary=record.snapshot.boundary,
            blob=pickle.dumps(
                record.snapshot.slim_state, pickle.HIGHEST_PROTOCOL
            ),
        )
    launches = 0
    started = time.perf_counter()
    for _ in range(passes):
        launches += _launch_pass(harness, system)
    return launches / (time.perf_counter() - started)


def test_codegen_doubles_the_warm_launch_floor():
    """storage_a is the fleet's warm-throughput floor (its boot bundle
    is array-heavy, so the seed's per-resume `pickle.loads` dominated
    every warm launch).  The codegen engine riding the zero-copy
    restore must clear 2x the tree engine's seed-era warm throughput
    on it (tree walking plus the seed's pickle restore), measured
    head-to-head in this process."""
    system = get_system("storage_a")
    legacy = _warm_throughput(system, "tree", legacy_restore=True)
    codegen = _warm_throughput(system, "codegen")
    speedup = codegen / legacy
    emit(
        "Warm launch floor (storage_a):\n"
        f"  tree + pickle restore (seed)     {legacy:7.1f} launches/s\n"
        f"  codegen + zero-copy restore      {codegen:7.1f} launches/s\n"
        f"  speedup {speedup:.2f}x (floor {WARM_SPEEDUP_FLOOR}x)"
    )
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"codegen warm launches are only {speedup:.2f}x the tree "
        f"engine's seed-era throughput (floor {WARM_SPEEDUP_FLOOR}x)"
    )


def test_warm_snapshots_amortize_boots(inference):
    """Across a campaign, full boots stay bounded by the unique-config
    count (speculative capture merges probe+capture for most configs)
    while every extra launch of a booting config is a resume."""
    snapshot_cache = SnapshotCache()
    for system in iter_systems(None):
        Campaign(
            system, inference_cache=inference, snapshot_cache=snapshot_cache
        ).run()
    stats = snapshot_cache.boot_stats
    emit(
        f"Snapshot amortization: {stats.boots} boots, "
        f"{stats.captures} captures, {stats.resumes} resumes"
    )
    assert stats.resumes > stats.boots
    assert stats.captures > 0
