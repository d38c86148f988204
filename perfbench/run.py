"""The repository's benchmark: one command, four workloads, two levels.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0

Run it from the root of a repository checkout.  Each repetition of the
workload runs in a fresh interpreter (`rep.py`), so nothing - no parsed
program, launch plan or cache - carries from one repetition into the
next.  Repetitions continue until the next one would overrun
``--seconds`` (at least two run), and every metric is the median over
repetitions.

Times and rates are reported in reference-speed seconds.  The shared
machine this benchmark was built on changes speed by half or more over
minutes, for every workload at once (cold inference time and sweep
throughput kept a constant product within a few percent while both
moved by 1.6x).  Each repetition therefore also
times a fixed pure-Python calibration workload from the standard
library (`rep.calibrate`), and its times are scaled by
CALIBRATION_REFERENCE_S / calibration time (rates by the inverse).  The
calibration uses no program code, so a change to the program moves the
metrics and not the scale.  `obs.calibration_ms` reports the raw
calibration time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with no
spans recorded.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics: self times from the
spans the benchmark records around each layer's entry points
(`tracing.py`), counts from the program's own outputs, and the tracing
overhead from the two kinds of repetition.

Every repetition checks its outputs against `reference.json` or an
independent recomputation (see `rep.py`); any mismatch, and any exact
count that differs between repetitions, makes the run fail with exit
code 1.  The last line of stdout is the JSON result.

    python3 perfbench/run.py --make-reference

regenerates `reference.json` (the audit with the tree engine, the
reference semantics, plus the fixed-seed fleet digest).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import time
from pathlib import Path

from rep import LineReader, histogram_quantile

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_REPS = 2
# One calibration slice on the reference machine (2 shared cores,
# Python 3.11.7); the constant only sets the unit.
CALIBRATION_REFERENCE_S = 0.12
REP_TIMEOUT = 150.0
# Inference iterates hash-seeded containers; pinning the seed makes the
# exact counts repeat between repetitions and runs.
HASH_SEED = "0"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONHASHSEED": HASH_SEED,
    }


def run_rep(workload: str, seed: int, rep: int, traced: bool, *extra) -> dict:
    """One repetition; its set-up time is spawn to ready line unless
    the repetition reports its own (the serve workload's server)."""
    argv = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed),
        "--rep", str(rep), "--trace", str(int(traced)), *extra,
    ]
    begun = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
    )
    try:
        lines = LineReader(proc.stdout)
        first = lines.next(REP_TIMEOUT)
        setup_s = time.perf_counter() - begun
        rest = lines.rest(REP_TIMEOUT)
        proc.wait(timeout=REP_TIMEOUT)
    except (queue.Empty, subprocess.TimeoutExpired):
        raise SystemExit(f"{workload} repetition {rep} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not first or not rest:
        raise SystemExit(
            f"{workload} repetition {rep} failed (exit {proc.returncode})"
        )
    ready = json.loads(first)
    result = json.loads(rest[-1])
    result.setdefault("setup_s", ready.get("setup_s", setup_s))
    result["traced"] = traced
    result["wall_s"] = time.perf_counter() - begun
    return result


def scale(rep: dict) -> float:
    """Reference-speed seconds per measured second in this repetition."""
    return CALIBRATION_REFERENCE_S / rep["calibration_s"]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Per-repetition values at reference speed, then medians."""

    def median(value):
        return statistics.median(value(rep) for rep in reps)

    return {
        "setup_s": median(lambda rep: rep["setup_s"] * scale(rep)),
        "throughput_per_s": median(
            lambda rep: rep["throughput_per_s"] / scale(rep)
        ),
        "infer_s": median(lambda rep: rep["infer_s"] * scale(rep)),
        "latency_p50_ms": median(
            lambda rep: histogram_quantile(rep["op_hist"], 0.5)
            * scale(rep) * 1000.0
        ),
        "latency_p90_ms": median(
            lambda rep: histogram_quantile(rep["op_hist"], 0.9)
            * scale(rep) * 1000.0
        ),
        "peak_rss_mb": median(lambda rep: rep["peak_rss_mb"]),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced repetitions, as measured; the tracing
    overhead compares reference-speed throughputs."""
    names = traced[0]["layers"]
    out = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in names
    }

    def throughput(reps):
        return statistics.median(
            rep["throughput_per_s"] / scale(rep) for rep in reps
        )

    out["obs.trace_overhead_fraction"] = (
        throughput(untraced) / throughput(traced) - 1.0
    )
    out["obs.calibration_ms"] = 1000.0 * statistics.median(
        rep["calibration_s"] for rep in traced
    )
    return out


def make_reference() -> int:
    audit = run_rep(
        "audit", 0, 0, False, "--engine", "tree", "--make-reference"
    )
    fleet = run_rep("fleet", 0, 0, False, "--make-reference")
    reference = {
        "audit": audit["outputs"],
        "fleet": fleet["outputs"],
        "environment": environment(),
    }
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see BENCHMARK.json)."
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(
            "perfbench: run from the root of a repository checkout "
            "(src/repro not found)",
            file=sys.stderr,
        )
        return 2
    if args.make_reference:
        return make_reference()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")

    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        reps.append(run_rep(args.workload, args.seed, len(reps), traced))
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed + reps[-1]["wall_s"] > args.seconds:
            break

    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    errors = [error for rep in reps for error in rep["errors"]]
    if any(rep["counts"] != reps[0]["counts"] for rep in reps):
        errors.append("exact counts differ between repetitions")
    if args.trace:
        values = per_layer(untraced, traced)
        metrics = spec["per_layer"]
    else:
        values = end_to_end(untraced)
        metrics = spec["end_to_end"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        errors.append(f"metrics not measured: {', '.join(missing)}")

    for error in dict.fromkeys(errors):
        print(f"MISMATCH {error}")
    print(f"{args.workload}: {len(reps)} repetitions, medians")
    for metric in metrics:
        name = metric["name"]
        print(f"  {name:40s} {values.get(name, float('nan')):>14.6g} {metric['unit']}")
    print(json.dumps({"environment": environment(), "counts": reps[0]["counts"]}))
    correct = not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(rep["attempted"] for rep in reps),
                "failed": sum(rep["failed"] for rep in reps),
                "metrics": {
                    m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
