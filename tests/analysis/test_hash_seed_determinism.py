"""Campaign outputs depend neither on the interpreter's hash seed nor on
which systems ran before in the same process.

Constraint inference once iterated hash-ordered containers
(pointer-target sets in the taint engine, transitive control
dependences), so two differently seeded processes could drift by ~1 in
their inferred constraint counts.  Those sites now iterate sorted.  The
first test proves the whole campaign is seed-independent: it runs
vsftpd's inference and injection campaign in subprocesses under two
*different* hash seeds and asserts identical inference (the cache key
`spex_fingerprint` and a canonical digest of everything inferred) and
identical campaign outputs (every verdict and the `Vulnerability` set).

The second test proves a campaign does not depend on what ran before
it: vsftpd run alone in a fresh interpreter gives the same outputs as
vsftpd run last in a sweep of all eight systems.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

# Runs in a fresh interpreter: one pipeline sweep over the systems named
# on the command line, in order, printing per system the spex cache key
# plus canonical digests of everything inference and the injection
# campaign produced.
_PROBE = """
import hashlib, json, sys
from repro.pipeline import CampaignPipeline
from repro.pipeline.cache import spex_fingerprint
from repro.systems.registry import get_system


def digest(items):
    out = hashlib.sha256()
    for line in sorted(repr(item) for item in items):
        out.update(line.encode("utf-8"))
        out.update(b"\\x00")
    return out.hexdigest()


payload = {}
for run in CampaignPipeline(systems=sys.argv[1:]).run().runs:
    campaign = run.report
    report = campaign.spex_report
    system = get_system(run.name)
    payload[run.name] = {
        "fingerprint": spex_fingerprint(system.sources, system.annotations),
        "constraints": digest(report.constraints),
        "counts": report.constraint_counts(),
        "parameters": sorted(report.parameters),
        "case_sensitivity": dict(sorted(report.case_sensitivity.items())),
        "events": len(report.analysis.events),
        "misconfigurations": campaign.misconfigurations_tested,
        "verdicts": digest(
            (
                v.misconfiguration.settings,
                v.misconfiguration.rule,
                v.reaction.category,
                v.reaction.pinpointed,
                v.failed_tests,
            )
            for v in campaign.verdicts
        ),
        "vulnerabilities": digest(campaign.vulnerabilities),
    }
json.dump(payload, sys.stdout, sort_keys=True)
"""


def _sweep(systems: list[str], seed: str = "0") -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *systems],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout)


def test_inference_is_identical_across_hash_seeds():
    baseline = _sweep(["vsftpd"], seed="0")
    reseeded = _sweep(["vsftpd"], seed="424242")
    assert baseline["vsftpd"]["misconfigurations"] > 0
    assert reseeded == baseline


def test_campaign_alone_matches_campaign_after_the_others():
    from repro.systems import system_names

    order = [name for name in system_names() if name != "vsftpd"]
    order.append("vsftpd")
    assert len(order) == 8
    after_the_others = _sweep(order)
    alone = _sweep(["vsftpd"])
    assert list(after_the_others) == order
    assert alone["vsftpd"] == after_the_others["vsftpd"]
