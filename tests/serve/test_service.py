"""Tests for the in-process CompileService and request normalization."""

import asyncio
from dataclasses import asdict

import pytest

from repro.eval.batch import BatchRunner, RunSpec
from repro.serve.service import (
    CompileService,
    RequestError,
    normalize_request,
)


def _serve(svc, request):
    """One request on a fresh event loop."""
    return asyncio.run(svc.handle(request))


def _gather(svc, requests):
    """*requests* issued concurrently on one event loop, in order."""
    async def issue():
        return await asyncio.gather(*(svc.handle(r) for r in requests))
    return asyncio.run(issue())


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
        first = _serve(service, request)
        assert first["ok"], first
        assert first["cache_tier"] is None
        second = _serve(service, request)
        assert second["ok"]
        assert second["cache_tier"] == "memory"
        assert second["cache_age_seconds"] >= 0.0
        assert second["artifact"] == first["artifact"]
        assert first["artifact"]["depth"] >= 1

    def test_disk_tier_survives_memory_clear(self, service):
        request = {"op": "compile", "benchmark": "BV", "qubits": 6}
        first = _serve(service, request)
        service.store.clear_memory()
        second = _serve(service, request)
        assert second["cache_tier"] == "disk"
        assert second["artifact"] == first["artifact"]

    def test_qasm_request_compiles_and_caches(self, service, monkeypatch):
        import repro.circuit.qasm
        from repro.circuit import get_benchmark
        from repro.circuit.qasm import to_qasm

        qasm = to_qasm(get_benchmark("BV", 6, seed=7))
        request = {"op": "compile", "qasm": qasm, "name": "bv6"}
        first = _serve(service, request)
        assert first["ok"], first
        assert first["artifact"]["benchmark"] == "bv6"
        assert first["artifact"]["num_qubits"] == 6
        assert first["artifact"]["depth"] >= 1

        def no_parse(text):
            raise AssertionError("QASM parsed on the cache-hit path")

        monkeypatch.setattr(repro.circuit.qasm, "from_qasm", no_parse)
        second = _serve(service, request)
        assert second["cache_tier"] == "memory"
        assert second["artifact"] == first["artifact"]

    def test_qasm_artifact_is_the_execute_spec_record(self, service):
        """Both request kinds run one pipeline: a QASM artifact is the
        run record of the equivalent QASM spec, timings aside."""
        from repro.circuit import get_benchmark
        from repro.circuit.qasm import to_qasm
        from repro.eval.batch import execute_spec

        qasm = to_qasm(get_benchmark("BV", 8, seed=7))
        response = _serve(service,
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
        plain = _serve(service, {"op": "compile", "qasm": qasm})
        assert plain["ok"], plain
        assert plain["artifact"]["baseline_depth"] is None
        response = _serve(service,
            {"op": "compile", "qasm": qasm, "include_baseline": True}
        )
        assert response["ok"], response
        assert response["key"] != plain["key"]
        assert response["artifact"]["baseline_depth"] >= 1
        assert response["artifact"]["depth_improvement"] > 0.0

    def test_oversize_qasm_rejected_before_compiling(self, service):
        qasm = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[100000];\n'
        for _ in range(2):  # a rejection is never cached
            response = _serve(service, {"op": "compile", "qasm": qasm})
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-request"
            assert "100000 qubits" in response["error"]["message"]
            assert "256" in response["error"]["message"]
        assert service.store.get(response["key"]) is None

    def test_qasm_one_past_the_width_bound_rejected(self, service):
        from repro.serve.service import MAX_QUBITS

        width = MAX_QUBITS + 1
        qasm = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\n'
        response = _serve(service, {"op": "compile", "qasm": qasm})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert f"{width} qubits" in response["error"]["message"]

    def test_removed_engine_field_is_a_bad_request(self, service):
        response = _serve(service,
            {"op": "compile", "benchmark": "BV", "qubits": 6,
             "mc_engine": "frame"}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "unknown request field(s): mc_engine" in (
            response["error"]["message"]
        )

    def test_yield_estimate_in_artifact(self, service):
        response = _serve(service,
            {"op": "compile", "benchmark": "BV", "qubits": 6, "shots": 200}
        )
        assert response["ok"]
        artifact = response["artifact"]
        assert artifact["shots"] == 200
        assert 0.0 <= artifact["yield_mc"] <= 1.0
        assert 0.0 < artifact["yield_analytic"] < 1.0

    def test_ping_and_stats_ops(self, service):
        assert _serve(service, {"op": "ping"})["ok"] is True
        response = _serve(service, {"op": "stats"})
        assert response["ok"] is True
        stats = response["stats"]
        assert stats["workers"] == 2
        assert stats["jobs_completed"] >= 1
        assert stats["store"]["puts"] >= 1
        assert 0.0 <= stats["store"]["hit_rate"] <= 1.0

    def test_unknown_op_rejected(self, service):
        response = _serve(service, {"op": "teleport"})
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown-op"

    def test_bad_request_rejected(self, service):
        response = _serve(service, {"op": "compile", "benchmark": "NOPE"})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "benchmark" in response["error"]["message"]

    def test_worker_exception_reported_not_raised(self, service):
        response = _serve(service,
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
                response = _serve(svc,
                    {"op": "compile", "benchmark": "BV", "qubits": 6,
                     "noise": noise, **extra}
                )
                assert response["ok"] is False
                assert response["error"]["code"] == "bad-request", response
            stats = svc.stats()
            assert stats["jobs_completed"] == stats["jobs_failed"] == 0
            assert svc._executor is None

    def test_single_flight_joins_inflight_compile(self, tmp_path):
        """Concurrent requests compile once per key: the first request
        for a key owns the job, the rest join it, and a request after
        the publish is a memory hit, never a second compile."""
        same = {"op": "compile", "benchmark": "QFT", "qubits": 12}
        requests = [same] * 4 + [
            {"op": "compile", "benchmark": "BV", "qubits": q} for q in (6, 7)
        ]
        with CompileService(workers=2, cache_dir=tmp_path) as svc:
            responses = _gather(svc, requests)
            assert all(r["ok"] for r in responses), responses
            assert [r["cache_tier"] for r in responses] == [
                None, "inflight", "inflight", "inflight", None, None,
            ]
            assert all(
                r["artifact"] == responses[0]["artifact"]
                for r in responses[:4]
            )
            stats = svc.stats()
            assert (stats["jobs_completed"], stats["inflight"]) == (3, 0)
            assert stats["store"]["puts"] == 3
            assert _serve(svc, same)["cache_tier"] == "memory"
            assert svc.stats()["jobs_completed"] == 3

    def test_cancelled_owner_still_publishes(self, tmp_path):
        """A requester that goes away does not strand its job: the
        compile finishes, publishes and retires its in-flight entry."""
        request = {"op": "compile", "benchmark": "BV", "qubits": 6}
        key = normalize_request(request).key()
        svc = CompileService(workers=1, cache_dir=tmp_path)

        async def scenario():
            owner = asyncio.create_task(svc.handle(request))
            await asyncio.sleep(0)  # the owner submits, then awaits
            assert list(svc._inflight) == [key]
            owner.cancel()
            with pytest.raises(asyncio.CancelledError):
                await owner
            await svc.stop(drain=True)  # awaits the job, then the pool

        asyncio.run(scenario())
        assert svc._inflight == {}
        assert svc.jobs_completed == 1
        hit = svc.store.get(key)
        assert hit is not None and hit.artifact["depth"] >= 1

    def test_failed_compile_is_never_cached(self, tmp_path):
        """A failed job is counted once, by its callback, however many
        requests joined it; every requester gets the error, the entry
        is retired and the next request compiles again."""
        request = {"op": "compile", "qasm": "not qasm", "name": "bad"}
        key = normalize_request(request).key()
        with CompileService(workers=1, cache_dir=tmp_path) as svc:
            for attempt in (1, 2):
                responses = _gather(svc, [request] * 3)
                assert [r["error"]["code"] for r in responses] == [
                    "compile-error"
                ] * 3
                stats = svc.stats()
                assert (stats["jobs_failed"], stats["inflight"]) == (attempt, 0)
            assert stats["jobs_completed"] == stats["store"]["puts"] == 0
            assert svc.store.get(key) is None

    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_repeat_requests_hit_the_only_tier(self, tmp_path, tier):
        request = {"op": "compile", "benchmark": "BV", "qubits": 6}
        with CompileService(
            workers=1, cache_dir=tmp_path if tier == "disk" else None,
            memory_capacity=0 if tier == "disk" else 256,
        ) as svc:
            responses = [_serve(svc, request) for _ in range(3)]
            stats = svc.stats()
        assert [r["cache_tier"] for r in responses] == [None, tier, tier]
        assert all(r["artifact"] == responses[0]["artifact"] for r in responses)
        assert stats["jobs_completed"] == stats["store"]["misses"] == 1
        assert stats["store"][f"{tier}_hits"] == 2

    @pytest.mark.parametrize("request_payload", [
        {"op": "compile"},
        {"op": "compile", "benchmark": "BV", "qasm": "OPENQASM 2.0;"},
        {"op": "compile", "benchmark": "BV", "qubits": 0},
        {"op": "compile", "benchmark": "BV", "colour": "red"},
    ])
    def test_bad_request_touches_neither_store_nor_pool(
        self, tmp_path, request_payload
    ):
        with CompileService(workers=1, cache_dir=tmp_path) as svc:
            response = _serve(svc, request_payload)
            assert response["error"]["code"] == "bad-request"
            assert svc.stats()["store"]["lookups"] == 0
            assert svc._executor is None

    def test_workers_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            CompileService(workers=0, cache_dir=tmp_path)

    def test_close_rejects_new_compiles(self, tmp_path):
        svc = CompileService(workers=1, cache_dir=tmp_path)
        warm = {"op": "compile", "benchmark": "BV", "qubits": 6}
        assert _serve(svc, warm)["ok"]
        svc.close()
        # cached artifacts still serve after close ...
        assert _serve(svc, warm)["cache_tier"] == "memory"
        # ... but new compiles are refused
        response = _serve(
            svc, {"op": "compile", "benchmark": "BV", "qubits": 7}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "shutting-down"

    @pytest.mark.parametrize(
        "request_payload, ok",
        [
            ({"op": "ping"}, True),
            ({"op": "stats"}, True),
            ({"op": "teleport"}, False),
            ({"op": "compile", "benchmark": "NOPE"}, False),
            ({"op": "compile", "benchmark": "BV", "qubits": 6}, True),
        ],
        ids=["ping", "stats", "unknown-op", "bad-request", "memory-hit"],
    )
    def test_answered_without_suspending(self, service, request_payload, ok):
        """Pings, stats, rejections and cache hits are answered inline:
        the coroutine returns on its first step, never yielding the
        loop to other requests."""
        if "qubits" in request_payload:
            assert _serve(service, request_payload)["ok"]  # warm the cache
        coroutine = service.handle(request_payload)
        with pytest.raises(StopIteration) as answered:
            coroutine.send(None)
        assert answered.value.value["ok"] is ok

    def test_ping_and_stats_answer_while_a_compile_is_in_flight(
        self, tmp_path
    ):
        """A compile waits on its worker process, not on the loop: the
        other requests on the loop are served in the meantime."""
        cold = {"op": "compile", "benchmark": "QFT", "qubits": 12}
        with CompileService(workers=1, cache_dir=tmp_path) as svc:

            async def scenario():
                compiling = asyncio.create_task(svc.handle(cold))
                await asyncio.sleep(0)  # the compile submits, then awaits
                assert (await svc.handle({"op": "ping"}))["ok"] is True
                stats = (await svc.handle({"op": "stats"}))["stats"]
                assert stats["inflight"] == 1
                assert not compiling.done()
                return await compiling

            response = asyncio.run(scenario())
        assert response["ok"], response
        assert response["cache_tier"] is None

    def test_publish_precedes_the_response(self, tmp_path):
        """The done-callback runs before any requester resumes: by the
        time a compile's response is built, the artifact is in memory
        and the in-flight entry is retired."""
        request = {"op": "compile", "benchmark": "BV", "qubits": 6}
        key = normalize_request(request).key()
        with CompileService(workers=1, cache_dir=tmp_path) as svc:

            async def scenario():
                response = await svc.handle(request)
                return response, dict(svc._inflight), svc.store.get(key)

            response, inflight, hit = asyncio.run(scenario())
        assert response["cache_tier"] is None
        assert inflight == {}
        assert hit is not None and hit.tier == "memory"
        assert hit.artifact == response["artifact"]

    def test_cancelled_joiner_leaves_the_owner_its_compile(self, tmp_path):
        """Cancelling a request that joined an in-flight compile cancels
        neither the job nor its owner's wait."""
        request = {"op": "compile", "benchmark": "BV", "qubits": 6}
        with CompileService(workers=1, cache_dir=tmp_path) as svc:

            async def scenario():
                owner = asyncio.create_task(svc.handle(request))
                joiner = asyncio.create_task(svc.handle(request))
                await asyncio.sleep(0)  # owner submits, joiner joins
                assert len(svc._inflight) == 1
                joiner.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await joiner
                return await owner

            response = asyncio.run(scenario())
            stats = svc.stats()
        assert response["ok"], response
        assert response["cache_tier"] is None
        assert (
            stats["jobs_completed"], stats["jobs_failed"], stats["inflight"]
        ) == (1, 0, 0)

    def test_cancelled_owner_of_a_failing_compile_counts_it_once(
        self, tmp_path
    ):
        """A failure nobody awaits any more is still counted, once, and
        its entry retired; nothing is cached."""
        request = {"op": "compile", "qasm": "not qasm", "name": "bad"}
        svc = CompileService(workers=1, cache_dir=tmp_path)

        async def scenario():
            owner = asyncio.create_task(svc.handle(request))
            await asyncio.sleep(0)
            owner.cancel()
            with pytest.raises(asyncio.CancelledError):
                await owner
            await svc.stop(drain=True)

        asyncio.run(scenario())
        stats = svc.stats()
        assert (
            stats["jobs_failed"], stats["jobs_completed"], stats["inflight"]
        ) == (1, 0, 0)
        assert stats["store"]["puts"] == 0

    def test_stop_drains_every_inflight_job(self, tmp_path):
        """``stop(drain=True)`` awaits the in-flight jobs before the
        pool goes: each publishes and answers its requester, and a
        compile asked for afterwards is refused."""
        requests = [
            {"op": "compile", "benchmark": "BV", "qubits": q} for q in (6, 7)
        ]
        svc = CompileService(workers=2, cache_dir=tmp_path)

        async def scenario():
            tasks = [asyncio.create_task(svc.handle(r)) for r in requests]
            await asyncio.sleep(0)
            assert len(svc._inflight) == 2
            await svc.stop(drain=True)
            assert svc._inflight == {}
            late = await svc.handle(
                {"op": "compile", "benchmark": "BV", "qubits": 8}
            )
            return await asyncio.gather(*tasks), late

        responses, late = asyncio.run(scenario())
        assert [r["cache_tier"] for r in responses] == [None, None]
        assert all(r["ok"] for r in responses), responses
        assert late["error"]["code"] == "shutting-down"
        stats = svc.stats()
        assert (stats["jobs_completed"], stats["store"]["puts"]) == (2, 2)


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
            response = _serve(svc, self.REQUEST)
            assert svc._executor is None  # served without compiling
        assert response["ok"], response
        assert response["cache_tier"] == "disk"
        assert response["key"] == self.SPEC.key()
        assert response["artifact"] == _without_provenance(record)

    def test_service_cache_serves_the_batch_runner(self, tmp_path):
        with CompileService(workers=1, cache_dir=tmp_path) as svc:
            served = _serve(svc, self.REQUEST)
        assert served["ok"], served
        assert served["cache_tier"] is None
        (record,) = BatchRunner(jobs=1, cache_dir=tmp_path).run([self.SPEC])
        assert record.cached is True
        assert record.cache_tier == "disk"
        assert record.key == served["key"]
        assert _without_provenance(record) == served["artifact"]
