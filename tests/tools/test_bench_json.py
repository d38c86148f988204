"""Determinism contract for the BENCH_*.json writers
(`tools/bench_json.py`): equal payloads serialise byte-identically,
whatever order their keys were inserted in."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from bench_json import (  # noqa: E402
    _committed_warm_rows,
    dump_payload,
    write_payload,
)


def _scrambled_payloads():
    """Two payloads equal as values but built in opposite key order."""
    forward = {
        "generated_unix": 0,
        "systems": {"mysql": {"warm": 2.0, "cold": 1.0}},
        "campaign": {"speedup": 3.5, "boot_stats": {"boots": 7}},
    }
    backward = {
        "campaign": {"boot_stats": {"boots": 7}, "speedup": 3.5},
        "systems": {"mysql": {"cold": 1.0, "warm": 2.0}},
        "generated_unix": 0,
    }
    return forward, backward


class TestDumpDeterminism:
    def test_key_insertion_order_is_erased(self):
        forward, backward = _scrambled_payloads()
        assert dump_payload(forward) == dump_payload(backward)

    def test_two_consecutive_dumps_minus_timestamp_are_identical(self):
        forward, _ = _scrambled_payloads()
        first = dict(forward, generated_unix=111)
        second = dict(forward, generated_unix=222)
        strip = "\n".join(
            line
            for line in dump_payload(first).splitlines()
            if "generated_unix" not in line
        )
        strip_second = "\n".join(
            line
            for line in dump_payload(second).splitlines()
            if "generated_unix" not in line
        )
        assert strip == strip_second

    def test_dump_is_canonical_and_round_trips(self):
        forward, _ = _scrambled_payloads()
        text = dump_payload(forward)
        assert text.endswith("\n")
        assert json.loads(text) == forward
        assert text == json.dumps(forward, indent=2, sort_keys=True) + "\n"


class TestWritePayload:
    def test_write_then_rewrite_is_byte_stable(self, tmp_path):
        forward, backward = _scrambled_payloads()
        path = tmp_path / "BENCH_x.json"
        write_payload(path, forward)
        first = path.read_bytes()
        write_payload(path, backward)
        assert path.read_bytes() == first

    def test_committed_bench_artifacts_are_canonical(self):
        for artifact in sorted(REPO_ROOT.glob("BENCH_*.json")):
            decoded = json.loads(artifact.read_text(encoding="utf-8"))
            assert artifact.read_text(encoding="utf-8") == dump_payload(
                decoded
            ), f"{artifact.name} was not written via bench_json helpers"


class TestBenchCheckSchema:
    """`make bench-check` reads the committed warm rows per engine."""

    def test_engine_matrix_rows(self):
        row = {
            "tree_launches_per_s": 100.0,
            "engines": {
                "codegen": {"cold_launches_per_s": 2.0,
                            "warm_launches_per_s": 1100.0},
            },
        }
        assert _committed_warm_rows(row) == {"codegen": 1100.0}

    def test_row_without_warm_numbers_is_empty(self):
        assert _committed_warm_rows({"tree_launches_per_s": 9.0}) == {}

    def test_committed_launch_file_yields_rows_for_every_system(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_launch.json").read_text(encoding="utf-8")
        )
        for name, row in committed["systems"].items():
            rows = _committed_warm_rows(row)
            assert set(rows) == {"codegen"}, name
            assert all(v > 0 for v in rows.values()), name
