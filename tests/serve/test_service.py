"""Tests for the in-process CompileService and request normalization."""

import threading
from concurrent.futures import Future
from dataclasses import asdict

import pytest

from repro.eval.batch import BatchRunner, RunSpec
from repro.serve.service import (
    CompileService,
    RequestError,
    normalize_request,
)


class TestNormalizeRequest:
    def test_benchmark_defaults_applied(self):
        spec = normalize_request({"op": "compile", "benchmark": "QFT"})
        assert spec == RunSpec(
            benchmark="QFT",
            num_qubits=16,
            seed=7,
            resource_state="3-line",
            include_baseline=False,
            verify=False,
            shots=0,
        )

    def test_equivalent_requests_share_a_key(self):
        explicit = normalize_request(
            {"op": "compile", "benchmark": "QFT", "qubits": 16, "seed": 7}
        )
        defaulted = normalize_request({"op": "compile", "benchmark": "QFT"})
        assert explicit == defaulted
        assert explicit.key() == defaulted.key()

    def test_key_sensitive_to_every_axis(self):
        base = normalize_request({"op": "compile", "benchmark": "QFT"})
        for override in (
            {"qubits": 17},
            {"seed": 8},
            {"resource_state": "4-star"},
            {"shots": 100},
            {"noise": {"cycle_loss": 0.01}},
            {"verify": True},
            {"include_baseline": True},
        ):
            other = normalize_request(
                {"op": "compile", "benchmark": "QFT", **override}
            )
            assert other.key() != base.key(), override

    def test_qasm_form(self):
        spec = normalize_request(
            {"op": "compile", "qasm": "OPENQASM 2.0;", "name": "mine"}
        )
        assert spec == RunSpec(
            "mine", 0, qasm="OPENQASM 2.0;", include_baseline=False
        )
        unnamed = normalize_request({"op": "compile", "qasm": "OPENQASM 2.0;"})
        assert unnamed.benchmark == "qasm-circuit"

    @pytest.mark.parametrize(
        "request_payload",
        [
            {},  # neither qasm nor benchmark
            {"benchmark": "QFT", "qasm": "x"},  # both
            {"benchmark": "NOPE"},
            {"benchmark": "QFT", "qubits": 0},
            {"benchmark": "QFT", "qubits": 300},
            {"benchmark": "QFT", "qubits": "16"},
            {"benchmark": "QFT", "qubits": True},
            {"benchmark": "QFT", "seed": 1.5},
            {"benchmark": "QFT", "resource_state": "5-blob"},
            {"benchmark": "QFT", "shots": -1},
            {"benchmark": "QFT", "noise": [1, 2]},
            {"benchmark": "QFT", "noise": {"cycle_loss": "high"}},
            {"benchmark": "QFT", "noise": {"cycle_los": 0.01}},  # typo
            {"benchmark": "QFT", "noise": {"cycle_loss": 2.0}},
            {"benchmark": "QFT", "noise": {"fusion_success": -0.5}},
            {"benchmark": "QFT", "verify": "yes"},
            {"benchmark": "QFT", "mc_engine": "frame"},  # removed field
            {"benchmark": "QFT", "typo_field": 1},
            {"qasm": ""},
            {"qasm": "   "},
        ],
    )
    def test_invalid_requests_rejected(self, request_payload):
        with pytest.raises(RequestError):
            normalize_request({"op": "compile", **request_payload})

    def test_qasm_text_is_not_parsed(self):
        """Normalization only shape-checks QASM text: even an oversize
        register passes here (the worker enforces the width bound), so
        the cache-hit path never pays for a parse."""
        qasm = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[100000];\n'
        spec = normalize_request({"op": "compile", "qasm": qasm})
        assert spec.qasm == qasm
        assert spec.num_qubits == 0

    def test_noise_is_canonicalized(self):
        a = normalize_request(
            {"op": "compile", "benchmark": "BV",
             "noise": {"cycle_loss": 0.01, "fusion_success": 0.5}}
        )
        b = normalize_request(
            {"op": "compile", "benchmark": "BV",
             "noise": {"fusion_success": 0.5, "cycle_loss": 0.01}}
        )
        assert a.noise == (("cycle_loss", 0.01), ("fusion_success", 0.5))
        assert a.key() == b.key()
        # integer JSON values key like their floats
        integral = normalize_request(
            {"op": "compile", "benchmark": "BV", "noise": {"fusion_error": 0}}
        )
        assert integral.noise == (("fusion_error", 0.0),)
        assert integral.key() == normalize_request(
            {"op": "compile", "benchmark": "BV",
             "noise": {"fusion_error": 0.0}}
        ).key()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with CompileService(
        workers=2, cache_dir=tmp_path_factory.mktemp("serve-cache")
    ) as svc:
        yield svc


class TestCompileService:
    def test_miss_then_memory_hit_bit_identical(self, service):
        request = {"op": "compile", "benchmark": "BV", "qubits": 8}
        first = service.handle(request)
        assert first["ok"], first
        assert first["cache_tier"] is None
        second = service.handle(request)
        assert second["ok"]
        assert second["cache_tier"] == "memory"
        assert second["cache_age_seconds"] >= 0.0
        assert second["artifact"] == first["artifact"]
        assert first["artifact"]["depth"] >= 1

    def test_disk_tier_survives_memory_clear(self, service):
        request = {"op": "compile", "benchmark": "BV", "qubits": 6}
        first = service.handle(request)
        service.store.clear_memory()
        second = service.handle(request)
        assert second["cache_tier"] == "disk"
        assert second["artifact"] == first["artifact"]

    def test_qasm_request_compiles_and_caches(self, service, monkeypatch):
        import repro.circuit.qasm
        from repro.circuit import get_benchmark
        from repro.circuit.qasm import to_qasm

        qasm = to_qasm(get_benchmark("BV", 6, seed=7))
        request = {"op": "compile", "qasm": qasm, "name": "bv6"}
        first = service.handle(request)
        assert first["ok"], first
        assert first["artifact"]["benchmark"] == "bv6"
        assert first["artifact"]["num_qubits"] == 6
        assert first["artifact"]["depth"] >= 1

        def no_parse(text):
            raise AssertionError("QASM parsed on the cache-hit path")

        monkeypatch.setattr(repro.circuit.qasm, "from_qasm", no_parse)
        second = service.handle(request)
        assert second["cache_tier"] == "memory"
        assert second["artifact"] == first["artifact"]

    def test_qasm_artifact_is_the_execute_spec_record(self, service):
        """Both request kinds run one pipeline: a QASM artifact is the
        run record of the equivalent QASM spec, timings aside."""
        from repro.circuit import get_benchmark
        from repro.circuit.qasm import to_qasm
        from repro.eval.batch import execute_spec

        qasm = to_qasm(get_benchmark("BV", 8, seed=7))
        response = service.handle(
            {"op": "compile", "qasm": qasm, "name": "bv8", "verify": True,
             "shots": 200}
        )
        assert response["ok"], response
        artifact = response["artifact"]
        record = asdict(execute_spec(RunSpec(
            "bv8", 0, qasm=qasm, include_baseline=False, verify=True,
            shots=200,
        )))
        for field in ("cached", "cache_tier", "cache_age_seconds"):
            record.pop(field)
        untimed = sorted(
            key for key in record
            if not key.endswith("seconds") and key != "shots_per_second"
        )
        assert sorted(artifact) == sorted(record)
        assert {k: artifact[k] for k in untimed} == {
            k: record[k] for k in untimed
        }
        assert artifact["verified"] is True
        assert artifact["num_qubits"] == 8

    def test_qasm_request_honours_include_baseline(self, service):
        from repro.circuit import get_benchmark
        from repro.circuit.qasm import to_qasm

        qasm = to_qasm(get_benchmark("BV", 6, seed=7))
        plain = service.handle({"op": "compile", "qasm": qasm})
        assert plain["ok"], plain
        assert plain["artifact"]["baseline_depth"] is None
        response = service.handle(
            {"op": "compile", "qasm": qasm, "include_baseline": True}
        )
        assert response["ok"], response
        assert response["key"] != plain["key"]
        assert response["artifact"]["baseline_depth"] >= 1
        assert response["artifact"]["depth_improvement"] > 0.0

    def test_oversize_qasm_rejected_before_compiling(self, service):
        qasm = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[100000];\n'
        for _ in range(2):  # a rejection is never cached
            response = service.handle({"op": "compile", "qasm": qasm})
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-request"
            assert "100000 qubits" in response["error"]["message"]
            assert "256" in response["error"]["message"]
        assert service.store.get(response["key"]) is None

    def test_qasm_one_past_the_width_bound_rejected(self, service):
        from repro.serve.service import MAX_QUBITS

        width = MAX_QUBITS + 1
        qasm = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\n'
        response = service.handle({"op": "compile", "qasm": qasm})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert f"{width} qubits" in response["error"]["message"]

    def test_removed_engine_field_is_a_bad_request(self, service):
        response = service.handle(
            {"op": "compile", "benchmark": "BV", "qubits": 6,
             "mc_engine": "frame"}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "unknown request field(s): mc_engine" in (
            response["error"]["message"]
        )

    def test_yield_estimate_in_artifact(self, service):
        response = service.handle(
            {"op": "compile", "benchmark": "BV", "qubits": 6, "shots": 200}
        )
        assert response["ok"]
        artifact = response["artifact"]
        assert artifact["shots"] == 200
        assert 0.0 <= artifact["yield_mc"] <= 1.0
        assert 0.0 < artifact["yield_analytic"] < 1.0

    def test_ping_and_stats_ops(self, service):
        assert service.handle({"op": "ping"})["ok"] is True
        response = service.handle({"op": "stats"})
        assert response["ok"] is True
        stats = response["stats"]
        assert stats["workers"] == 2
        assert stats["jobs_completed"] >= 1
        assert stats["store"]["puts"] >= 1
        assert 0.0 <= stats["store"]["hit_rate"] <= 1.0

    def test_unknown_op_rejected(self, service):
        response = service.handle({"op": "teleport"})
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown-op"

    def test_bad_request_rejected(self, service):
        response = service.handle({"op": "compile", "benchmark": "NOPE"})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "benchmark" in response["error"]["message"]

    def test_worker_exception_reported_not_raised(self, service):
        response = service.handle(
            {"op": "compile", "qasm": "this is not qasm", "name": "bad"}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "compile-error"

    def test_bad_noise_overrides_rejected_before_dispatch(self, tmp_path):
        """A misspelt or out-of-range noise override is a bad request at
        normalization, with or without shots: nothing is compiled."""
        with CompileService(workers=1, cache_dir=tmp_path) as svc:
            for extra, noise in (
                ({}, {"cycle_los": 0.01}),
                ({"shots": 100}, {"cycle_los": 0.01}),
                ({"shots": 100}, {"cycle_loss": 2.0}),
            ):
                response = svc.handle(
                    {"op": "compile", "benchmark": "BV", "qubits": 6,
                     "noise": noise, **extra}
                )
                assert response["ok"] is False
                assert response["error"]["code"] == "bad-request", response
            stats = svc.stats()
            assert stats["jobs_completed"] == stats["jobs_failed"] == 0
            assert svc._executor is None

    def test_failed_joiner_leaves_the_entry_to_its_owner(self, tmp_path):
        """A request joining a failed in-flight compile reports the
        error, but the failure and the entry belong to the owner: the
        joiner neither counts it nor retires the entry."""
        request = {"op": "compile", "benchmark": "BV", "qubits": 6}
        key = normalize_request(request).key()
        failed: Future = Future()
        failed.set_exception(RuntimeError("worker died"))
        with CompileService(workers=1, cache_dir=tmp_path) as svc:
            svc._inflight[key] = failed
            response = svc.handle(request)
            assert response["ok"] is False
            assert response["error"]["code"] == "compile-error"
            assert svc.jobs_failed == 0
            assert svc._inflight[key] is failed

    def test_single_flight_joins_inflight_compile(self, tmp_path):
        """Concurrent identical requests trigger exactly one compile."""
        with CompileService(workers=2, cache_dir=tmp_path) as svc:
            request = {"op": "compile", "benchmark": "QFT", "qubits": 12}
            responses = [None] * 4

            def issue(slot):
                responses[slot] = svc.handle(request)

            threads = [
                threading.Thread(target=issue, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(r["ok"] for r in responses)
            artifacts = [r["artifact"] for r in responses]
            assert all(a == artifacts[0] for a in artifacts)
            # exactly one request actually compiled; the rest joined the
            # in-flight future or hit the store it populated
            fresh = [r for r in responses if r["cache_tier"] is None]
            assert len(fresh) == 1
            assert svc.jobs_completed == 1

    def test_single_flight_under_sanitizer(self, tmp_path, lock_sanitizer):
        """Single-flight + torn-stat guarantees hold under TrackedLock.

        Seeded hammer: many threads issue a mix of identical and
        distinct compile requests with the lock-order sanitizer active.
        Afterwards the dynamic witness must be acyclic and consistent
        with the static acquisition graph, both service locks must have
        actually recorded acquisitions, exactly one fresh compile per
        distinct key must have happened, and the jobs_completed counter
        must not be torn.
        """
        import pathlib
        import random

        from repro.analysis.concurrency import ConcurrencyAnalyzer
        from repro.utils import sync

        registry = lock_sanitizer
        with CompileService(workers=2, cache_dir=tmp_path) as svc:
            assert isinstance(svc._lock, sync.TrackedLock)
            requests = [
                {"op": "compile", "benchmark": "BV", "qubits": q}
                for q in (6, 7)
            ]
            responses = []
            responses_lock = threading.Lock()

            def issue(worker_id):
                rng = random.Random(2000 + worker_id)
                for _ in range(3):
                    response = svc.handle(rng.choice(requests))
                    with responses_lock:
                        responses.append(response)

            threads = [
                threading.Thread(target=issue, args=(i,))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert all(r["ok"] for r in responses)
            fresh = [r for r in responses if r["cache_tier"] is None]
            served_keys = {r["key"] for r in responses}
            # exactly one fresh compile per distinct key, and the
            # completion counter agrees (no torn increments)
            assert len(fresh) == len({r["key"] for r in fresh})
            assert svc.stats()["jobs_completed"] == len(fresh)
            assert len(served_keys) <= len(requests)

        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        analyzer = ConcurrencyAnalyzer()
        analyzer.add_paths([src / "serve", src / "utils"])
        sync.check_witness_against(
            analyzer.lock_order_edges(),
            registry,
            require_locks=[
                "CompileService._lock",
                "MemoryLRU._lock",
                "ArtifactStore._lock",
            ],
        )

    def test_close_rejects_new_compiles(self, tmp_path):
        svc = CompileService(workers=1, cache_dir=tmp_path)
        warm = {"op": "compile", "benchmark": "BV", "qubits": 6}
        assert svc.handle(warm)["ok"]
        svc.close()
        # cached artifacts still serve after close ...
        assert svc.handle(warm)["cache_tier"] == "memory"
        # ... but new compiles are refused
        response = svc.handle({"op": "compile", "benchmark": "BV", "qubits": 7})
        assert response["ok"] is False
        assert response["error"]["code"] == "shutting-down"


def _without_provenance(record):
    artifact = asdict(record)
    for name in ("cached", "cache_tier", "cache_age_seconds"):
        del artifact[name]
    return artifact


class TestSharedCache:
    """``repro bench --cache D`` and ``repro serve --cache D`` share one
    cache: same key, same envelope version, same artifact."""

    REQUEST = {"op": "compile", "benchmark": "BV", "qubits": 6}
    SPEC = RunSpec("BV", 6, include_baseline=False)

    def test_batch_cache_serves_the_service(self, tmp_path):
        (record,) = BatchRunner(jobs=1, cache_dir=tmp_path).run([self.SPEC])
        with CompileService(workers=1, cache_dir=tmp_path) as svc:
            response = svc.handle(self.REQUEST)
            assert svc._executor is None  # served without compiling
        assert response["ok"], response
        assert response["cache_tier"] == "disk"
        assert response["key"] == self.SPEC.key()
        assert response["artifact"] == _without_provenance(record)

    def test_service_cache_serves_the_batch_runner(self, tmp_path):
        with CompileService(workers=1, cache_dir=tmp_path) as svc:
            served = svc.handle(self.REQUEST)
        assert served["ok"], served
        assert served["cache_tier"] is None
        (record,) = BatchRunner(jobs=1, cache_dir=tmp_path).run([self.SPEC])
        assert record.cached is True
        assert record.cache_tier == "disk"
        assert record.key == served["key"]
        assert _without_provenance(record) == served["artifact"]
