"""The names and stats sections `perfbench/` reads from the program.

perfbench's traced mode wraps entry points by name (module globals and
class attributes) and reads `PipelineCaches.stats()` sections by key.
A rename or a dropped section in `src/` breaks it only when someone
runs it; this test installs every wrapper and computes every per-layer
metric in a fresh interpreter, from the cache stats of a real pipeline
run, so such a break fails tier-1 instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SCRIPT = """
import json
import sys

sys.path[:0] = [{perfbench!r}, {src!r}]

import rep
import tracing
from repro.inject.harness import InjectionHarness
from repro.obs import get_registry
from repro.pipeline import CampaignPipeline
from repro.systems.registry import get_system

program = tracing.Recorder()
tracing.install_program_layers(program)
tracing.install_serve_layers(tracing.Recorder())

# The boot wrapper keys each span by the record (5th positional
# argument of `boot_launch`): one cold boot, then a capture and a
# resume of the same config.
system = get_system("openldap")
harness = InjectionHarness(system)
for requests in (None, None, None):
    harness.launch(system.default_config, requests)

report = CampaignPipeline(systems=["openldap"]).run()
layers = rep.layer_metrics(
    {{}}, {{}}, get_registry().snapshot(), report.cache_stats
)
print(json.dumps({{"layers": sorted(layers), "spans": sorted(program.summary())}}))
"""


def test_perfbench_wrappers_and_layer_metrics_resolve():
    script = SCRIPT.format(
        perfbench=str(REPO_ROOT / "perfbench"), src=str(REPO_ROOT / "src")
    )
    # No bytecode caches: the run must leave the benchmark's directory
    # exactly as committed.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for metric in (
        "pipeline.cache.inference.hit_ratio",
        "pipeline.cache.launches.hit_ratio",
        "pipeline.cache.checkers.hit_ratio",
        "runtime.boots",
        "runtime.resumes",
    ):
        assert metric in result["layers"]
    assert {"inject.launch.openldap", "runtime.launch.boot"} <= set(
        result["spans"]
    )
    assert "runtime.launch.resume" in result["spans"]
