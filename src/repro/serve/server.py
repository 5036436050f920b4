"""Asyncio socket front-end for :class:`~repro.serve.service.CompileService`.

One server process owns one service (and therefore one artifact store
and one worker pool).  Each client connection is an asyncio task that
reads length-prefixed JSON frames (:mod:`repro.serve.protocol`) in a
loop and awaits the service's answer on the same event loop.  A cold
compile runs in a worker process, so while it grinds the loop keeps
serving other connections their cache hits, pings and stats.

Failure handling at the connection level:

* oversized frame — the declared length is rejected before the payload
  is buffered; an error response is sent and the connection closed
  (the stream offset is unrecoverable);
* malformed JSON / non-object payload — error response, connection
  closed (framing stays valid but the client is clearly broken);
* invalid request shape — error response, connection *kept open*
  (framing and JSON are fine; the client can retry);
* ``{"op": "shutdown"}`` — acknowledged, then the server stops
  accepting connections and drains: in-flight requests complete and
  their responses are delivered before the loop exits.

:class:`ServerThread` runs the whole event loop in a daemon thread —
the serve tests use it to host a server in-process on an ephemeral
port.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Optional, Set

from repro.serve.protocol import (
    MAX_PAYLOAD_BYTES,
    FrameError,
    error_response,
    read_frame_async,
    write_frame_async,
)
from repro.serve.service import CompileService


class CompileServer:
    """Serve a :class:`CompileService` over a TCP socket.

    ``port=0`` binds an ephemeral port; the bound port is available as
    :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        service: CompileService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_payload: int = MAX_PAYLOAD_BYTES,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_payload = max_payload
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        self._shutdown: Optional[asyncio.Task] = None
        self._draining = False
        self._active_requests = 0
        self._stopped = asyncio.Event()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        """Block until a shutdown request (or :meth:`stop`) drains us."""
        assert self._server is not None, "call start() first"
        await self._stopped.wait()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting connections; optionally drain in-flight work.

        Draining waits for requests that are already being served, not
        for clients to hang up: an idle keep-alive connection would
        otherwise block shutdown forever.  Once the request count hits
        zero the remaining (idle) sessions are cancelled, which closes
        their sockets.  Without draining, compiles still running are not
        awaited and their artifacts are not cached.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            while self._active_requests > 0:
                await asyncio.sleep(0.01)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.service.stop(drain=drain)
        self._stopped.set()

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._session(reader, writer)
        except asyncio.CancelledError:
            # stop() cancels idle sessions; end quietly so asyncio's
            # stream machinery doesn't log the cancellation as an error
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_frame_async(reader, self.max_payload)
            except FrameError as exc:
                # framing is broken: answer once, then hang up — the
                # byte stream cannot be resynchronized
                try:
                    await write_frame_async(
                        writer, error_response(exc.code, exc.message)
                    )
                except (ConnectionError, OSError):
                    pass
                return
            except (ConnectionError, OSError):
                return
            if request is None:  # clean EOF
                return

            if request.get("op") == "shutdown":
                await write_frame_async(
                    writer, {"ok": True, "op": "shutdown", "draining": True}
                )
                # drain in a fresh task: this connection must finish
                # (and leave self._connections) for the drain to settle
                if self._shutdown is None:
                    self._shutdown = asyncio.create_task(self.stop())
                return

            if self._draining and request.get("op") == "compile":
                response = error_response(
                    "shutting-down", "server is draining; compile rejected"
                )
            else:
                # counted so stop(drain=True) can wait for the response
                # to be computed *and delivered* before tearing down
                self._active_requests += 1
                try:
                    response = await self.service.handle(request)
                    await write_frame_async(writer, response)
                except (ConnectionError, OSError):
                    return
                finally:
                    self._active_requests -= 1
                continue
            try:
                await write_frame_async(writer, response)
            except (ConnectionError, OSError):
                return


async def _run_server_async(server: CompileServer) -> None:
    await server.start()
    print(f"repro serve: listening on {server.host}:{server.port}")
    await server.serve_until_stopped()


def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    memory_capacity: int = 256,
    max_payload: int = MAX_PAYLOAD_BYTES,
) -> int:
    """Blocking entry point for ``repro serve``.

    Runs until a client sends ``{"op": "shutdown"}`` (or the process is
    interrupted: compiles still running then go uncached); returns a
    process exit code.
    """
    service = CompileService(
        workers=workers, cache_dir=cache_dir, memory_capacity=memory_capacity
    )
    server = CompileServer(
        service, host=host, port=port, max_payload=max_payload
    )
    try:
        asyncio.run(_run_server_async(server))
    except KeyboardInterrupt:
        service.close(drain=False)
    return 0


class ServerThread:
    """Host a :class:`CompileServer` on a daemon thread.

    ``start()`` returns once the socket is bound (so ``.port`` is
    valid); ``stop()`` drains from any thread.  Context-manager form::

        with ServerThread(workers=2, cache_dir=tmp) as handle:
            client = CompileClient("127.0.0.1", handle.port)
    """

    def __init__(
        self,
        service: Optional[CompileService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_payload: int = MAX_PAYLOAD_BYTES,
        **service_kwargs: Any,
    ) -> None:
        self.service = service or CompileService(**service_kwargs)
        self.server = CompileServer(
            self.service, host=host, port=port, max_payload=max_payload
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._finished = threading.Event()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread failed to start")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
            self._ready.set()
            loop.run_until_complete(self.server.serve_until_stopped())
        finally:
            self._ready.set()  # unblock start() even on bind failure
            loop.close()
            self._finished.set()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain=drain), loop
        )
        try:
            future.result(timeout)
        except Exception:  # noqa: LR004 — best-effort stop: the loop may
            pass  # already be closing; _finished/join below still bound exit
        self._finished.wait(timeout)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
