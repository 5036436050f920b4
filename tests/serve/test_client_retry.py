"""CompileClient retry/backoff against a programmable flaky stub server.

The stub accepts real TCP connections and consumes one scripted
behavior per connection: drop it before or after reading a frame, or
serve responses normally.  Tests assert the retry count, the backoff
schedule (via an injected sleep recorder), and that the non-idempotent
``shutdown`` op is never retried.
"""

import socket
import threading

import pytest

from repro.serve.client import CompileClient, ServerClosedError
from repro.serve.protocol import recv_frame, send_frame


class FlakyStub:
    """One scripted behavior per accepted connection.

    Behaviors: ``"drop"`` closes immediately on accept,
    ``"drop-after-read"`` reads one frame then closes (the client sees
    a clean close mid-request), ``"ok"`` answers every frame on the
    connection with ``{"ok": True, "echo": <payload>}``.
    """

    def __init__(self, behaviors):
        self.behaviors = list(behaviors)
        self.connections = 0
        self.frames = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn:
                self.connections += 1
                behavior = (
                    self.behaviors.pop(0) if self.behaviors else "ok"
                )
                if behavior == "drop":
                    continue
                frame = recv_frame(conn)
                if frame is not None:
                    self.frames.append(frame)
                if behavior == "drop-after-read" or frame is None:
                    continue
                send_frame(conn, {"ok": True, "echo": frame})
                while True:
                    frame = recv_frame(conn)
                    if frame is None:
                        break
                    self.frames.append(frame)
                    send_frame(conn, {"ok": True, "echo": frame})

    def close(self):
        self._stop.set()
        try:
            # close() alone does not wake a thread blocked in accept();
            # shutting the listener down does (accept raises OSError)
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive(), "stub server thread hung"


@pytest.fixture()
def make_stub():
    stubs = []

    def factory(behaviors):
        stub = FlakyStub(behaviors)
        stubs.append(stub)
        return stub

    yield factory
    for stub in stubs:
        stub.close()


def test_stub_teardown_is_prompt():
    """close() must wake the accept() loop rather than wait out the
    join timeout."""
    import time

    stub = FlakyStub([])
    t0 = time.perf_counter()
    stub.close()
    assert time.perf_counter() - t0 < 1.0


def make_client(stub, **kwargs):
    sleeps = []
    kwargs.setdefault("timeout", 5.0)
    kwargs.setdefault("sleep", sleeps.append)
    client = CompileClient(stub.host, stub.port, **kwargs)
    return client, sleeps


class TestRetries:
    def test_clean_server_needs_no_retries(self, make_stub):
        stub = make_stub(["ok"])
        client, sleeps = make_client(stub)
        with client:
            assert client.ping() is True
        assert sleeps == []
        assert stub.connections == 1

    def test_retries_through_dropped_connections(self, make_stub):
        stub = make_stub(["drop-after-read", "drop-after-read", "ok"])
        client, sleeps = make_client(stub, retries=2, backoff=0.05)
        with client:
            assert client.ping() is True
        # two failures -> two backoff sleeps, exponentially doubled
        assert sleeps == [0.05, 0.1]
        assert stub.connections == 3

    def test_exhausted_retries_reraise_the_last_failure(self, make_stub):
        stub = make_stub(["drop-after-read"] * 3)
        client, sleeps = make_client(stub, retries=2)
        with client:
            with pytest.raises(ServerClosedError):
                client.ping()
        assert len(sleeps) == 2
        assert stub.connections == 3

    def test_retries_zero_means_single_attempt(self, make_stub):
        stub = make_stub(["drop-after-read", "ok"])
        client, sleeps = make_client(stub, retries=0)
        with client:
            with pytest.raises(ServerClosedError):
                client.ping()
        assert sleeps == []
        assert stub.connections == 1

    def test_backoff_schedule_is_capped(self, make_stub):
        stub = make_stub(["drop-after-read"] * 3 + ["ok"])
        client, sleeps = make_client(
            stub, retries=3, backoff=0.2, backoff_cap=0.5
        )
        with client:
            assert client.ping() is True
        assert sleeps == [0.2, 0.4, 0.5]

    def test_reconnects_after_drop_on_accept(self, make_stub):
        # the first retry hits a connection the stub kills on accept:
        # the client must reconnect again rather than give up
        stub = make_stub(["drop-after-read", "drop", "ok"])
        client, sleeps = make_client(stub, retries=2)
        with client:
            assert client.ping() is True
        assert stub.connections == 3


class TestShutdownIsNotRetried:
    def test_shutdown_single_attempt(self, make_stub):
        stub = make_stub(["drop-after-read", "ok"])
        client, sleeps = make_client(stub, retries=3)
        with client:
            with pytest.raises(ServerClosedError):
                client.shutdown()
        assert sleeps == []
        assert stub.connections == 1
        # the scripted "ok" connection was never consumed
        assert stub.behaviors == ["ok"]

    def test_shutdown_success_path(self, make_stub):
        stub = make_stub(["ok"])
        client, _ = make_client(stub, retries=3)
        with client:
            response = client.shutdown()
        assert response["ok"] is True
        assert stub.frames == [{"op": "shutdown"}]


class TestKnobValidation:
    def test_negative_retries_rejected(self, make_stub):
        stub = make_stub(["ok"])
        with pytest.raises(ValueError, match="retries"):
            CompileClient(stub.host, stub.port, retries=-1)

    def test_negative_backoff_rejected(self, make_stub):
        stub = make_stub(["ok"])
        with pytest.raises(ValueError, match="backoff"):
            CompileClient(stub.host, stub.port, backoff=-0.1)
