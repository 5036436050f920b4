"""End-to-end socket tests for the compile server.

Covered: ephemeral-port server, QFT-16 submitted twice (second response
a bit-identical cache hit), malformed-request and oversized-payload
rejection, two closed-loop clients mixing hot, cold and invalid
requests, pings and cache hits answered during a cold compile, graceful
shutdown (in-flight jobs complete, queue drains).
"""

import socket
import threading
import time

import pytest

from repro.serve.client import CompileClient, ServerClosedError
from repro.serve.protocol import HEADER, recv_frame, send_frame
from repro.serve.server import CompileServer, ServerThread
from repro.serve.service import CompileService


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = ServerThread(
        workers=2, cache_dir=tmp_path_factory.mktemp("server-cache")
    ).start()
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with CompileClient(server.host, server.port) as c:
        yield c


class TestEndToEnd:
    def test_ping(self, client):
        assert client.ping() is True

    def test_qft16_twice_second_is_bit_identical_cache_hit(self, client):
        first = client.compile(benchmark="QFT", qubits=16)
        assert first["ok"], first
        assert first["artifact"]["depth"] >= 1
        assert first["artifact"]["num_fusions"] >= 1
        second = client.compile(benchmark="QFT", qubits=16)
        assert second["ok"]
        assert second["cache_tier"] in ("memory", "disk")
        assert second["artifact"] == first["artifact"]
        assert second["key"] == first["key"]
        # the cached response is an order of magnitude faster
        assert second["seconds"] < first["seconds"]

    def test_two_connections_share_the_store(self, server):
        with CompileClient(server.host, server.port) as a:
            first = a.compile(benchmark="BV", qubits=10)
        with CompileClient(server.host, server.port) as b:
            second = b.compile(benchmark="BV", qubits=10)
        assert second["cache_tier"] in ("memory", "disk")
        assert second["artifact"] == first["artifact"]

    def test_stats_over_the_wire(self, client):
        client.compile(benchmark="BV", qubits=8)
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["store"]["lookups"] >= 1

    def test_invalid_request_keeps_connection_usable(self, client):
        response = client.compile(benchmark="WARP")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        # framing stayed healthy: the same connection still serves
        assert client.ping() is True

    def test_malformed_json_rejected_then_closed(self, server):
        sock = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        try:
            body = b"{broken json"
            sock.sendall(HEADER.pack(len(body)) + body)
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-json"
            # the server hangs up after a framing-level violation
            assert recv_frame(sock) is None
        finally:
            sock.close()

    def test_oversized_payload_rejected(self, tmp_path):
        handle = ServerThread(
            workers=1, cache_dir=tmp_path, max_payload=1024
        ).start()
        try:
            sock = socket.create_connection(
                (handle.host, handle.port), timeout=10
            )
            try:
                send_frame(sock, {"op": "compile", "qasm": "x" * 10_000})
                response = recv_frame(sock)
                assert response["ok"] is False
                assert response["error"]["code"] == "too-large"
            finally:
                sock.close()
            # an in-cap request on a fresh connection still works
            with CompileClient(handle.host, handle.port) as c:
                assert c.ping() is True
        finally:
            handle.stop()

    def test_oversized_header_never_buffers(self, server):
        """A hostile length prefix is refused without reading a body."""
        sock = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        try:
            sock.sendall(HEADER.pack(2**31))  # 2 GiB declared, no body
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "too-large"
        finally:
            sock.close()

    def test_client_raises_when_server_closes_mid_request(self, tmp_path):
        handle = ServerThread(workers=1, cache_dir=tmp_path).start()
        client = CompileClient(handle.host, handle.port, timeout=5)
        assert client.ping() is True  # the session is live ...
        handle.stop()                 # ... then the server goes away
        with pytest.raises((ServerClosedError, OSError)):
            client.request({"op": "ping"})
        client.close()


class TestClosedLoop:
    def test_two_clients_mixed_hot_cold_and_bad(self, tmp_path):
        """Two clients each send hot, cold and bad requests back to back
        against one server: every reply is right and no job is wasted."""
        rounds = 3
        handle = ServerThread(workers=2, cache_dir=tmp_path).start()
        try:
            with CompileClient(handle.host, handle.port) as c:
                warm = c.compile(benchmark="QFT", qubits=16)
                assert warm["ok"], warm
                jobs_before = c.stats()["jobs_completed"]

            start = threading.Barrier(2)
            replies = {0: [], 1: []}
            errors = []

            def client_loop(slot):
                try:
                    with CompileClient(handle.host, handle.port) as c:
                        start.wait(10)
                        for step in range(rounds):
                            seed = 1000 + rounds * slot + step
                            for kind, fields in (
                                ("hot", {"benchmark": "QFT", "qubits": 16}),
                                ("cold", {"benchmark": "BV", "qubits": 8,
                                          "seed": seed}),
                                ("bad", {"benchmark": "NOPE", "qubits": 8}),
                            ):
                                replies[slot].append(
                                    (kind, seed, c.compile(**fields))
                                )
                        # the last reply was a bad request: the
                        # connection must still serve
                        assert c.ping() is True
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_loop, args=(slot,))
                for slot in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
            assert errors == []

            everything = replies[0] + replies[1]
            assert len(everything) == 2 * rounds * 3
            by_kind = {"hot": [], "cold": [], "bad": []}
            for kind, seed, reply in everything:
                by_kind[kind].append((seed, reply))
            for _, reply in by_kind["bad"]:
                assert reply["ok"] is False
                assert reply["error"]["code"] == "bad-request"
            for _, reply in by_kind["hot"]:
                assert reply["ok"], reply
                assert reply["cache_tier"] in ("memory", "disk", "inflight")
                assert reply["artifact"] == warm["artifact"]
            for _, reply in by_kind["cold"]:
                assert reply["ok"], reply
                assert reply["artifact"]["depth"] >= 1
            cold_specs = {seed for seed, _ in by_kind["cold"]}
            assert len(cold_specs) == 2 * rounds

            with CompileClient(handle.host, handle.port) as c:
                stats = c.stats()
            assert stats["jobs_completed"] - jobs_before == len(cold_specs)
            assert stats["jobs_failed"] == 0
        finally:
            handle.stop()

    def test_ping_and_memory_hit_answer_during_a_cold_compile(
        self, tmp_path
    ):
        """A cold compile runs in a worker process: while it is in
        flight the event loop still answers pings and cache hits."""
        handle = ServerThread(workers=1, cache_dir=tmp_path).start()
        try:
            with CompileClient(handle.host, handle.port) as c:
                warm = c.compile(benchmark="BV", qubits=6)
                assert warm["ok"], warm
            cold = {}

            def compile_cold():
                with CompileClient(handle.host, handle.port) as c:
                    cold["reply"] = c.compile(benchmark="QFT", qubits=48)

            thread = threading.Thread(target=compile_cold)
            thread.start()
            with CompileClient(handle.host, handle.port) as c:
                deadline = time.time() + 10
                while c.stats()["inflight"] == 0:
                    assert time.time() < deadline, "cold compile never began"
                    time.sleep(0.01)
                assert c.ping() is True
                hit = c.compile(benchmark="BV", qubits=6)
                assert hit["cache_tier"] == "memory"
                assert hit["artifact"] == warm["artifact"]
                # both answers came back before the compile finished
                assert c.stats()["inflight"] == 1
            thread.join(120)
            assert not thread.is_alive()
            assert cold["reply"]["ok"], cold["reply"]
            assert cold["reply"]["cache_tier"] is None
        finally:
            handle.stop()


class TestGracefulShutdown:
    def test_inflight_jobs_complete_and_port_closes(self, tmp_path):
        handle = ServerThread(workers=2, cache_dir=tmp_path).start()
        responses = {}
        errors = []

        def compile_request(slot, qubits):
            try:
                with CompileClient(handle.host, handle.port) as c:
                    responses[slot] = c.compile(
                        benchmark="QFT", qubits=qubits
                    )
            except Exception as exc:
                errors.append(exc)

        # distinct circuits: every request is a real in-flight compile
        threads = [
            threading.Thread(target=compile_request, args=(slot, 13 + slot))
            for slot in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let the compiles reach the worker pool
        with CompileClient(handle.host, handle.port) as c:
            ack = c.shutdown()
        assert ack["ok"] is True and ack["draining"] is True

        for thread in threads:
            thread.join(60)
        assert errors == []
        # every in-flight job completed and delivered a real artifact
        assert sorted(responses) == [0, 1, 2]
        for slot, response in responses.items():
            assert response["ok"], response
            assert response["artifact"]["depth"] >= 1

        # the listener drains away: new connections are refused
        deadline = time.time() + 10
        refused = False
        while time.time() < deadline:
            try:
                probe = socket.create_connection(
                    (handle.host, handle.port), timeout=1
                )
                probe.close()
                time.sleep(0.05)
            except OSError:
                refused = True
                break
        assert refused, "port still accepting after shutdown drain"
        handle.stop()

    def test_server_thread_stop_is_idempotent(self, tmp_path):
        handle = ServerThread(workers=1, cache_dir=tmp_path).start()
        handle.stop()
        handle.stop()  # second stop is a no-op, not an error

    def test_shutdown_request_keeps_its_stop_task(self, tmp_path):
        """The drain started by ``{"op": "shutdown"}`` is held by the
        server until it finishes, and it finishes cleanly."""
        handle = ServerThread(workers=1, cache_dir=tmp_path).start()
        with CompileClient(handle.host, handle.port) as c:
            assert c.shutdown()["ok"] is True
        assert handle._finished.wait(30), "server never drained"
        task = handle.server._shutdown
        assert task is not None and task.done()
        assert not task.cancelled() and task.exception() is None
        handle.stop()

    def test_client_hanging_up_mid_compile_strands_nothing(self, tmp_path):
        """A requester that disconnects while its compile runs leaves
        the job to finish and publish: the next request for the same
        circuit never compiles it again."""
        handle = ServerThread(workers=1, cache_dir=tmp_path).start()
        try:
            raw = socket.create_connection((handle.host, handle.port))
            send_frame(
                raw, {"op": "compile", "benchmark": "QFT", "qubits": 14}
            )
            with CompileClient(handle.host, handle.port) as c:
                deadline = time.time() + 10
                while c.stats()["inflight"] == 0:
                    assert time.time() < deadline, "compile never began"
                    time.sleep(0.01)
                raw.close()
                again = c.compile(benchmark="QFT", qubits=14)
                assert again["ok"], again
                assert again["cache_tier"] in ("inflight", "memory")
                stats = c.stats()
            assert (stats["jobs_completed"], stats["inflight"]) == (1, 0)
        finally:
            handle.stop()


class TestServerConfig:
    def test_session_pool_knob_is_gone(self, tmp_path):
        """Requests run on the event loop; there is no session pool to
        size, so the old knob fails loudly instead of being ignored."""
        service = CompileService(workers=1, cache_dir=tmp_path)
        with pytest.raises(TypeError, match="max_sessions"):
            CompileServer(service, max_sessions=4)
        with pytest.raises(TypeError, match="max_sessions"):
            ServerThread(workers=1, cache_dir=tmp_path, max_sessions=4)
