"""Unit tests for `repro.resilience.checkpoint`: atomic writes,
digest-verified reads, content addressing."""

import os
import threading

from repro.resilience import CheckpointStore


class TestRoundtrip:
    def test_save_then_load(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", "shard-1", b"payload bytes")
        assert store.load("run", "shard-1") == b"payload bytes"

    def test_missing_shard_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("run", "never-saved") is None

    def test_empty_payload_roundtrips(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", "empty", b"")
        assert store.load("run", "empty") == b""

    def test_overwrite_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", "s", b"first")
        store.save("run", "s", b"second")
        assert store.load("run", "s") == b"second"

    def test_two_store_instances_share_the_directory(self, tmp_path):
        CheckpointStore(tmp_path).save("run", "s", b"x")
        assert CheckpointStore(tmp_path).load("run", "s") == b"x"


class TestContentAddressing:
    def test_run_keys_isolate(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run-spec-v1", "shard", b"old")
        # Any change to the run spec changes the run key, so the new
        # run can never resurrect the old shard.
        assert store.load("run-spec-v2", "shard") is None

    def test_shard_keys_isolate(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", "mysql:0:32", b"a")
        assert store.load("run", "mysql:32:32") is None


class TestCorruptionReadsAsMissing:
    def _shard_file(self, tmp_path, store):
        run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        return next(p for p in run_dir.iterdir() if p.suffix == ".ckpt")

    def test_truncated_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", "s", b"payload")
        path = self._shard_file(tmp_path, store)
        body = path.read_bytes()
        path.write_bytes(body[: len(body) // 2])
        assert store.load("run", "s") is None

    def test_flipped_payload_byte(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", "s", b"payload")
        path = self._shard_file(tmp_path, store)
        body = bytearray(path.read_bytes())
        body[-1] ^= 0xFF
        path.write_bytes(bytes(body))
        assert store.load("run", "s") is None

    def test_wrong_magic(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", "s", b"payload")
        path = self._shard_file(tmp_path, store)
        path.write_bytes(b"NOTCKPT\n" + path.read_bytes()[8:])
        assert store.load("run", "s") is None

    def test_garbage_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", "s", b"payload")
        path = self._shard_file(tmp_path, store)
        path.write_bytes(b"\x00" * 16)
        assert store.load("run", "s") is None


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(5):
            store.save("run", f"s{i}", b"x" * 100)
        leftovers = [
            p
            for p in tmp_path.rglob("*")
            if p.is_file() and p.suffix != ".ckpt"
        ]
        assert leftovers == []

    def test_thread_writers_of_one_shard_both_succeed(
        self, tmp_path, monkeypatch
    ):
        # A timed-out thread shard and its retry save the same key from
        # one process.  Both finish writing before either renames: each
        # rename must publish a complete temp file of its own.
        store = CheckpointStore(tmp_path)
        barrier = threading.Barrier(2, timeout=10)
        real_replace = os.replace

        def replace_after_both_wrote(src, dst):
            barrier.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_both_wrote)
        payloads = [b"first" * 50, b"second" * 50]
        errors = []

        def save(payload):
            try:
                store.save("run", "s", payload)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=save, args=(p,)) for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.load("run", "s") in payloads
        assert [p.suffix for p in tmp_path.rglob("*") if p.is_file()] == [
            ".ckpt"
        ]


class TestClear:
    def test_clear_drops_only_that_run(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run-a", "s", b"1")
        store.save("run-b", "s", b"2")
        store.clear("run-a")
        assert store.load("run-a", "s") is None
        assert store.load("run-b", "s") == b"2"

    def test_clear_is_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.clear("never-saved")
        store.save("run", "s", b"1")
        store.clear("run")
        store.clear("run")
        assert not list(tmp_path.rglob("*.ckpt"))
