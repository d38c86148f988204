"""Store semantics: hits, misses, the counter fold a worker's delta
takes home, and key sensitivity to every component of the content
fingerprint (sources, annotations and the boundary between them)."""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

import repro

from repro.core import SpexOptions
from repro.inject.campaign import Campaign
from repro.pipeline import InferenceCache, PipelineCaches, spex_fingerprint
from repro.pipeline.cache import WORKER_LAYERS
from repro.store import content_key
from repro.systems import get_system

SOURCES = {"a.c": "int main() { return 0; }\n"}
ANNOTATIONS = "{ @STRUCT = options }"


class TestSpexFingerprint:
    def test_stable(self):
        assert spex_fingerprint(SOURCES, ANNOTATIONS) == spex_fingerprint(
            dict(SOURCES), ANNOTATIONS
        )

    def test_source_order_irrelevant(self):
        two = {"a.c": "int x;", "b.c": "int y;"}
        reordered = dict(reversed(list(two.items())))
        assert spex_fingerprint(two, "") == spex_fingerprint(reordered, "")

    def test_changed_source_changes_key(self):
        other = {"a.c": "int main() { return 1; }\n"}
        assert spex_fingerprint(SOURCES, ANNOTATIONS) != spex_fingerprint(
            other, ANNOTATIONS
        )

    def test_changed_annotations_change_key(self):
        assert spex_fingerprint(SOURCES, ANNOTATIONS) != spex_fingerprint(
            SOURCES, ANNOTATIONS + " "
        )

    def test_source_and_annotation_boundary_is_part_of_the_key(self):
        assert spex_fingerprint({"a.c": "xy"}, "") != spex_fingerprint(
            {"a.c": "x"}, "y"
        )


class TestContentKey:
    def test_parts_are_length_prefixed(self):
        assert content_key("ab", "c") != content_key("a", "bc")
        assert content_key("a") != content_key("a", "")
        assert content_key() != content_key("")

    def test_stable_hex(self):
        key = content_key("a", "b")
        assert key == content_key("a", "b")
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestInferenceCache:
    def test_miss_then_hit(self):
        cache = InferenceCache()
        system = get_system("apache")
        campaign = Campaign(system, inference_cache=cache)
        first = campaign.run_spex()
        second = campaign.run_spex()
        assert second is first  # served from cache, not re-inferred
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

class TestReportSerialization:
    def test_summary_dict_is_json_able(self):
        system = get_system("apache")
        report = Campaign(system).run_spex()
        summary = report.summary_dict()
        decoded = json.loads(json.dumps(summary))
        assert decoded["system"] == "apache"
        assert decoded["parameters"] == sorted(report.parameters)
        assert decoded["constraint_counts"] == report.constraint_counts()
        assert len(decoded["constraints"]) == len(report.constraints)


class TestSnapshotCache:
    def test_fingerprint_covers_system_config_and_options(self):
        from repro.runtime.snapshot import snapshot_fingerprint

        base = snapshot_fingerprint("vsftpd", "listen=YES\n", "opts-a")
        assert base == snapshot_fingerprint("vsftpd", "listen=YES\n", "opts-a")
        assert base != snapshot_fingerprint("apache", "listen=YES\n", "opts-a")
        assert base != snapshot_fingerprint("vsftpd", "listen=NO\n", "opts-a")
        assert base != snapshot_fingerprint("vsftpd", "listen=YES\n", "opts-b")
        assert base != snapshot_fingerprint(
            "vsftpd", "listen=YES\n", "opts-a", argv=("vsftpd", "/etc/alt")
        )

    def test_record_for_returns_one_record_per_key(self):
        from repro.runtime.snapshot import SnapshotCache

        cache = SnapshotCache()
        record = cache.record_for("k1")
        assert cache.record_for("k1") is record
        assert cache.record_for("k2") is not record
        assert not record.probed

    def test_record_for_counts_hits_and_misses(self):
        caches = PipelineCaches()
        cache = caches.snapshots
        for key in ("k1", "k1", "k2", "k1", "k2"):
            cache.record_for(key)
        assert (cache.stats.hits, cache.stats.misses) == (3, 2)
        assert len(cache) == 2
        # The pipeline reports record lookups as its "launches" layer.
        assert caches.stats()["launches"]["hits"] == 3
        assert caches.stats()["launches"]["misses"] == 2

    def test_hints_shared_per_system_and_options(self):
        from repro.runtime.snapshot import SnapshotCache

        cache = SnapshotCache()
        hint = cache.hint_for("vsftpd", "fp")
        assert cache.hint_for("vsftpd", "fp") is hint
        assert cache.hint_for("vsftpd", "other-fp") is not hint
        assert hint.index is None

    def test_boot_stats_absorb(self):
        caches = PipelineCaches()
        caches.absorb(
            {
                "launches": {"hits": 4, "misses": 1},
                "snapshots": {"resumes": 3, "boots": 2, "captures": 1},
            }
        )
        assert caches.snapshots.stats.snapshot() == {"hits": 4, "misses": 1}
        assert caches.snapshots.boot_stats.snapshot() == {
            "resumes": 3,
            "boots": 2,
            "captures": 1,
        }


class TestPipelineCaches:
    def test_stats_shape(self):
        caches = PipelineCaches()
        stats = caches.stats()
        assert set(stats) == {
            "inference",
            "launches",
            "checkers",
            "snapshots",
        }
        assert stats["inference"] == {"hits": 0, "misses": 0}
        assert stats["snapshots"] == {
            "resumes": 0,
            "boots": 0,
            "captures": 0,
        }

    def test_delta_then_absorb_reproduces_every_section(self):
        """A worker's `delta` folded into a fresh parent by `absorb`
        gives the parent exactly the worker's counts, section by
        section."""
        worker = PipelineCaches()
        worker.checkers.get_or_compute("pre-existing", object)
        before = worker.snapshot()
        for key in ("k1", "k1", "k2"):
            worker.checkers.get_or_compute(key, object)
            worker.snapshots.record_for(key)
        worker.checkers.get_or_compute("absent", object)
        boots = worker.snapshots.boot_stats
        boots.boots, boots.captures, boots.resumes = 2, 1, 5
        delta = worker.delta(before)
        assert set(delta) == set(WORKER_LAYERS)
        parent = PipelineCaches()
        parent.absorb(delta)
        after = worker.snapshot()
        for layer in WORKER_LAYERS:
            expected = {
                name: value - before[layer][name]
                for name, value in after[layer].items()
            }
            assert parent.snapshot()[layer] == expected
        assert parent.snapshot()["checkers"] == {"hits": 1, "misses": 3}
        assert parent.snapshot()["inference"] == {"hits": 0, "misses": 0}

    def test_options_are_frozen(self):
        options = SpexOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.maybelief_threshold = 0.5


def _runtime_imports(path: Path) -> set[str]:
    """Modules `path` imports when it runs (``if TYPE_CHECKING:``
    blocks excluded)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    typing_only = {
        id(child)
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
        for stmt in node.body
        for child in ast.walk(stmt)
    }
    found = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


class TestStoreLayering:
    ROOT = Path(repro.__file__).parent

    def test_runtime_and_inject_never_import_the_pipeline(self):
        offenders = [
            (str(path.relative_to(self.ROOT)), module)
            for package in ("runtime", "inject")
            for path in sorted((self.ROOT / package).rglob("*.py"))
            for module in _runtime_imports(path)
            if module == "repro.pipeline"
            or module.startswith("repro.pipeline.")
        ]
        assert offenders == []

    def test_store_is_a_leaf(self):
        imports = _runtime_imports(self.ROOT / "store.py")
        assert not any(module.startswith("repro") for module in imports)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
