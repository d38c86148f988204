"""Content-addressed progress checkpoints for resumable runs.

A checkpoint is one completed shard's folded payload, filed under
``<root>/<run digest>/<shard digest>.ckpt``.  Both digests are
sha256 of the caller-supplied *keys*: the run key fingerprints the
whole run spec (systems, sizes, seeds, option fingerprints, pool
digests), the shard key one unit of work within it.  Content
addressing is the safety property — a run with any different spec
computes a different run key and can never resurrect a stale shard.

Writes are atomic (temp file + ``os.replace``) and every payload is
framed with its own sha256, verified on load: a torn or corrupted
file reads as *missing*, so the worst a crashed writer can do is cost
a recompute.

Usage::

    from repro.resilience import CheckpointStore

    store = CheckpointStore("/tmp/ckpt")
    store.save("run-spec", "shard-3", b"folded payload")
    store.load("run-spec", "shard-3")     # b"folded payload"
    store.load("run-spec", "shard-4")     # None: not checkpointed
    store.clear("run-spec")               # the run completed
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

_MAGIC = b"RPCKPT1\n"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CheckpointStore:
    """Atomic, digest-verified shard checkpoints under one directory.

    Concurrent writers - threads or processes, of one shard or of many
    - may assume that every ``save`` succeeds and that a ``load`` sees
    some writer's complete payload or none, never a mix: each call
    writes its own temp file, and the last ``os.replace`` wins.  Two
    writers of one shard run the same shard (a timed-out thread shard
    and its retry), so either payload is the shard's result.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _run_dir(self, run_key: str) -> Path:
        return self.root / _digest(run_key.encode("utf-8"))[:16]

    def _shard_path(self, run_key: str, shard_key: str) -> Path:
        name = _digest(shard_key.encode("utf-8"))[:24]
        return self._run_dir(run_key) / f"{name}.ckpt"

    def save(self, run_key: str, shard_key: str, payload: bytes) -> None:
        """Persist one shard's payload atomically."""
        path = self._shard_path(run_key, shard_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = _MAGIC + _digest(payload).encode("ascii") + b"\n" + payload
        # A temp name unique per call (threads share a pid), published
        # by os.replace, which is atomic on POSIX.
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(body)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load(self, run_key: str, shard_key: str) -> bytes | None:
        """The shard's payload, or None when missing/torn/corrupted."""
        path = self._shard_path(run_key, shard_key)
        try:
            body = path.read_bytes()
        except OSError:
            return None
        if not body.startswith(_MAGIC):
            return None
        rest = body[len(_MAGIC):]
        newline = rest.find(b"\n")
        if newline != 64:  # sha256 hex is exactly 64 bytes
            return None
        recorded = rest[:newline].decode("ascii", errors="replace")
        payload = rest[newline + 1:]
        if _digest(payload) != recorded:
            return None
        return payload

    def clear(self, run_key: str) -> None:
        """Drop every checkpoint of one run (idempotent)."""
        run_dir = self._run_dir(run_key)
        if not run_dir.is_dir():
            return
        for path in run_dir.iterdir():
            try:
                path.unlink()
            except OSError:
                pass
        try:
            run_dir.rmdir()
        except OSError:
            pass


__all__ = ["CheckpointStore"]
