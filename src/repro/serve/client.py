"""Blocking client for the compile server's socket protocol.

One :class:`CompileClient` owns one TCP connection and issues one
request at a time (the protocol is strictly request/response per
connection; open one client per thread for concurrency).

Transient-failure policy: compiles are deterministic and the server
memoizes them by content hash, so every op except ``shutdown`` is
idempotent — a retried request returns the same answer.  The client
therefore retries connection failures, dropped connections and read
timeouts with capped exponential backoff (``retries`` / ``backoff`` /
``backoff_cap`` knobs), reconnecting between attempts.  ``shutdown``
is the one non-idempotent op (a retry could kill a freshly restarted
server) and is never retried.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Dict, Optional

from repro.serve.protocol import (
    MAX_PAYLOAD_BYTES,
    recv_frame,
    send_frame,
)


class ServerClosedError(ConnectionError):
    """The server closed the connection instead of responding."""


class CompileClient:
    """Synchronous request/response client with bounded retries.

    ::

        with CompileClient("127.0.0.1", 7711) as client:
            response = client.compile(benchmark="QFT", qubits=16)
            assert response["ok"]

    Args:
        timeout: per-response read timeout in seconds (None blocks
            forever); a request that times out counts as one failed
            attempt and is retried on a fresh connection.
        connect_timeout: TCP connect timeout per attempt (defaults to
            ``timeout``).
        retries: extra attempts after the first failure, for idempotent
            ops only (0 disables retrying entirely).
        backoff: base sleep before the first retry; doubles per retry.
        backoff_cap: upper bound on one backoff sleep.
        sleep: injectable sleep (tests pass a recorder to assert the
            backoff schedule without waiting it out).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7711,
        timeout: Optional[float] = 120.0,
        max_payload: int = MAX_PAYLOAD_BYTES,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        connect_timeout: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries cannot be negative, got {retries}")
        if backoff < 0.0:
            raise ValueError(f"backoff cannot be negative, got {backoff}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_payload = max_payload
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.connect_timeout = (
            timeout if connect_timeout is None else connect_timeout
        )
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None
        self._connect()

    # -- connection management -----------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    def _drop(self) -> None:
        """Close the socket so the next attempt reconnects."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _backoff_delay(self, retry_index: int) -> float:
        return min(self.backoff_cap, self.backoff * (2.0 ** retry_index))

    # -- raw request/response ------------------------------------------
    def _attempt(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        sock = self._sock if self._sock is not None else self._connect()
        send_frame(sock, payload)
        response = recv_frame(sock, self.max_payload)
        if response is None:
            raise ServerClosedError(
                "server closed the connection without responding"
            )
        return response

    def request(
        self, payload: Dict[str, Any], idempotent: bool = True
    ) -> Dict[str, Any]:
        """Send one frame, block for one response frame.

        Idempotent requests retry ``retries`` times on connection
        errors, closed connections and timeouts, reconnecting with
        capped exponential backoff between attempts; the last failure
        is re-raised when every attempt is exhausted.  Non-idempotent
        requests (``idempotent=False``) get exactly one attempt.
        """
        attempts = self.retries + 1 if idempotent else 1
        for attempt in range(attempts):
            if attempt:
                self._sleep(self._backoff_delay(attempt - 1))
            try:
                return self._attempt(payload)
            except OSError:
                # ServerClosedError, ConnectionError, socket.timeout
                # are all OSError; drop the socket so the next attempt
                # starts on a fresh connection
                self._drop()
                if attempt + 1 >= attempts:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    # -- convenience ops -----------------------------------------------
    def compile(self, **fields: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"op": "compile"}
        payload.update(fields)
        return self.request(payload)

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("ok"))

    def stats(self) -> Dict[str, Any]:
        response = self.request({"op": "stats"})
        stats = response.get("stats", {})
        return dict(stats) if isinstance(stats, dict) else {}

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and exit.

        Never retried: a shutdown that raises after the frame was sent
        may well have been honoured, and re-sending it could kill a
        server restarted in the meantime.
        """
        return self.request({"op": "shutdown"}, idempotent=False)

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "CompileClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
