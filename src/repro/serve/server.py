"""Newline-delimited-JSON socket transport for the validation service.

One request per line, one response per line.  Requests are
``{"op": ..., ...payload}``; responses are
``{"ok": true, "schema_version": N, "data": {...}}`` on success and
``{"ok": false, "schema_version": N, "error": {"code", "message"}}``
on refusal.  Ops: ``check``, ``page``, ``history``, ``status``,
``metrics``, ``ping``, ``shutdown``.

The stream reader's line limit doubles as the transport-level DoS
guard: a request line longer than ``MAX_LINE_BYTES`` is answered with
a ``limit-exceeded`` error and the connection is closed, before any
JSON parsing happens.  Everything above the line protocol - page-size
ceilings, filter caps, config-size limits - is enforced by the typed
models, so the transport stays a dumb pipe.

`BackgroundServer` runs a warmed service plus this transport on a
private event-loop thread - what the benchmark suite, the test tier
and embedding applications use to stand a serving instance up inside
an otherwise synchronous process.

Usage (foreground, what the ``serve`` CLI command does)::

    import asyncio
    from repro.serve import ValidationService, ValidationServer

    async def main():
        service = ValidationService(systems=["mysql"])
        await service.start()
        server = ValidationServer(service, host="127.0.0.1", port=7878)
        await server.start()
        await server.wait_closed()

    asyncio.run(main())
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.serve.models import (
    SCHEMA_VERSION,
    CheckRequest,
    ServeError,
)
from repro.serve.service import ValidationService

# One request line may carry a full config file (MAX_CONFIG_BYTES)
# plus JSON escaping overhead; anything bigger is refused unread.
MAX_LINE_BYTES = 4 * 1024 * 1024


def _ok(data: dict) -> bytes:
    return (
        json.dumps(
            {"ok": True, "schema_version": SCHEMA_VERSION, "data": data}
        )
        + "\n"
    ).encode("utf-8")


def _err(error: ServeError) -> bytes:
    return (
        json.dumps(
            {
                "ok": False,
                "schema_version": SCHEMA_VERSION,
                "error": error.summary_dict(),
            }
        )
        + "\n"
    ).encode("utf-8")


class ValidationServer:
    """Serve one `ValidationService` over a local TCP socket."""

    def __init__(
        self,
        service: ValidationService,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; updated on start()
        # How long one response write may sit in a full socket buffer
        # before the client is declared too slow and dropped (None =
        # wait forever).  A reader that stops consuming must not pin a
        # handler - and its buffered responses - indefinitely.
        self.drain_timeout = drain_timeout
        self._server: asyncio.AbstractServer | None = None
        self._closing = asyncio.Event()
        self._connections: set[asyncio.Task] = set()

    async def start(self) -> None:
        if not self.service.started:
            await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        """Block until `stop()` (or a shutdown op) is called."""
        await self._closing.wait()
        await self.stop()

    async def stop(self) -> None:
        self._closing.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle connections block on readline forever; cancel them
        # deterministically instead of leaving the loop teardown to do
        # it mid-write.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        await self.service.close()

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while not self._closing.is_set():
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # line exceeded the stream limit
                    writer.write(
                        _err(
                            ServeError(
                                "limit-exceeded",
                                f"request line exceeds {MAX_LINE_BYTES} "
                                "bytes",
                            )
                        )
                    )
                    await self._drain(writer)
                    break
                if not line:
                    break
                response = await self._dispatch(line)
                writer.write(response)
                if not await self._drain(writer):
                    break  # too slow to keep serving; drop the client
        except ConnectionResetError:
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            # No `await wait_closed()` here: the handler may be mid-
            # cancellation (see `stop`), and the transport finishes
            # closing on the loop without being awaited.
            writer.close()

    async def _drain(self, writer) -> bool:
        """Flush the write buffer, bounded by `drain_timeout`.  False
        means the client read too slowly and must be dropped."""
        if self.drain_timeout is None:
            await writer.drain()
            return True
        try:
            await asyncio.wait_for(writer.drain(), self.drain_timeout)
            return True
        except asyncio.TimeoutError:
            self.service.registry.inc("serve.slow_client_drops")
            return False

    async def _dispatch(self, line: bytes) -> bytes:
        try:
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return _err(
                ServeError("bad-request", "request line is not valid JSON")
            )
        if not isinstance(payload, dict):
            return _err(
                ServeError("bad-request", "request must be a JSON object")
            )
        op = payload.get("op")
        try:
            if op == "check":
                request = CheckRequest.from_dict(payload)
                response = await self.service.check(request)
                return _ok(response.summary_dict())
            if op == "page":
                cursor = payload.get("cursor")
                if not isinstance(cursor, str):
                    raise ServeError("bad-request", "page needs a cursor")
                page = self.service.page(cursor, payload.get("limit"))
                return _ok(page.summary_dict())
            if op == "history":
                history = self.service.history(
                    payload.get("system", ""), payload.get("config_id", "")
                )
                return _ok(history.summary_dict())
            if op == "status":
                return _ok(self.service.status().summary_dict())
            if op == "metrics":
                metrics = self.service.metrics(payload.get("limit"))
                return _ok(metrics.summary_dict())
            if op == "ping":
                return _ok({"pong": True})
            if op == "shutdown":
                self._closing.set()
                return _ok({"stopping": True})
            raise ServeError("bad-op", f"unknown op {op!r}")
        except ServeError as exc:
            return _err(exc)


class BackgroundServer:
    """A warmed service + socket server on a private loop thread.

    Synchronous to drive - `start()` blocks until the service is warm
    and the socket is listening, `stop()` until everything is torn
    down - which is exactly what tests, benchmarks and the CLI's
    subprocess-free consumers need.
    """

    def __init__(
        self,
        systems: list[str] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        caches=None,
        max_workers: int | None = None,
        max_pending: int | None = None,
        drain_timeout: float | None = None,
    ) -> None:
        self._service_args = (systems, caches, max_workers, max_pending)
        self._drain_timeout = drain_timeout
        self._host = host
        self._port = port
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: ValidationServer | None = None
        self._startup_error: BaseException | None = None
        self.host: str = host
        self.port: int = 0

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        systems, caches, max_workers, max_pending = self._service_args
        try:
            service = ValidationService(
                systems=systems,
                caches=caches,
                max_workers=max_workers,
                max_pending=max_pending,
            )
            await service.start()
            self._server = ValidationServer(
                service,
                host=self._host,
                port=self._port,
                drain_timeout=self._drain_timeout,
            )
            await self._server.start()
        except BaseException as exc:  # surface on the caller's thread
            self._startup_error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self.port = self._server.port
        self._ready.set()
        await self._server.wait_closed()

    def stop(self) -> None:
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server._closing.set)
            except RuntimeError:
                # The loop already closed - a wire-initiated `shutdown`
                # op races this call; joining the thread is all that is
                # left to do.
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self._loop = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
