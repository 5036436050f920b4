"""In-process compilation service: request -> cached artifact.

:class:`CompileService` is the serving layer's core, independent of any
transport: the socket server wraps it, tests and the in-process API
call it directly.  A request names a circuit — a library benchmark spec
(``benchmark``/``qubits``) or raw QASM text — plus optional hardware /
noise / verification knobs; the response carries the compiled artifact
(the :class:`repro.eval.batch.RunRecord` row of the request's
:class:`~repro.eval.batch.RunSpec`: depth, fusion tally, pattern size,
stage timings, optional verification and yield) and its cache
provenance.

Request lifecycle:

1. **normalize** — :func:`normalize_request` validates shape and types
   and produces the request's canonical ``RunSpec`` (unknown fields are
   rejected so typos fail loudly instead of silently compiling the
   default);
2. **store lookup** — the spec's content hash (``RunSpec.key()``) is
   checked against the two-tier :class:`~repro.serve.store.ArtifactStore`;
   a hit returns immediately with ``cache_tier`` set.  Key, store
   envelope and artifact are the batch runner's, so a cache directory
   written by ``repro bench`` serves equal specs here and vice versa;
3. **single-flight dispatch** — on a miss the job runs on a worker
   process pool; concurrent requests for the *same* key join the
   in-flight future (``cache_tier="inflight"``) instead of compiling
   twice.  Lookup and join-or-submit run with no ``await`` between
   them, so a miss can never predate the publish it missed;
4. **publish** — the job's done-callback puts the finished artifact in
   both store tiers (so the next request is a memory hit) and retires
   the in-flight entry, whether or not any requester is still waiting.

Everything above runs on the server's event loop; only the compiles
leave it, for the worker processes.

Compiles are deterministic, so a cache hit is exact: the artifact is
bit-identical to what a fresh compile would produce.
"""

from __future__ import annotations

import asyncio
import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.hardware.noise import NoiseModel
from repro.serve.protocol import error_response
from repro.serve.store import ArtifactStore

if TYPE_CHECKING:
    from repro.eval.batch import RunSpec

_NOISE_FIELDS = tuple(f.name for f in fields(NoiseModel))
_VALID_RESOURCE_STATES = ("3-line", "4-line", "4-star", "4-ring")
_VALID_BENCHMARKS = ("QFT", "QAOA", "RCA", "BV")
#: circuit width bound for both request kinds: checked on the request
#: for benchmarks, on the parsed circuit (in the worker) for QASM text
MAX_QUBITS = 256

#: compile-request fields and their validators/defaults; everything
#: else in a request is a hard error (``bad-request``)
_REQUEST_FIELDS = (
    "op",
    "benchmark",
    "qubits",
    "qasm",
    "name",
    "seed",
    "resource_state",
    "shots",
    "noise",
    "verify",
    "include_baseline",
)


class RequestError(Exception):
    """A structurally invalid compile request."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def normalize_request(request: Dict[str, Any]) -> "RunSpec":
    """Validate *request* and return its canonical :class:`RunSpec`.

    The spec is the compile's full identity: every field that can
    change the artifact is set with its default applied, so its content
    hash (``RunSpec.key()``) is stable across equivalent requests.  A
    QASM request becomes ``RunSpec(name, 0, qasm=text)``; the text is
    shape-checked here and only parsed in the worker.
    """
    from repro.eval.batch import RunSpec

    _require(isinstance(request, dict), "request must be a JSON object")
    unknown = sorted(set(request) - set(_REQUEST_FIELDS))
    _require(not unknown, f"unknown request field(s): {', '.join(unknown)}")

    qasm = request.get("qasm")
    benchmark = request.get("benchmark")
    _require(
        (qasm is None) != (benchmark is None),
        "request must carry exactly one of 'qasm' or 'benchmark'",
    )

    if qasm is not None:
        _require(
            isinstance(qasm, str) and qasm.strip() != "",
            "'qasm' must be a non-empty string",
        )
        benchmark = request.get("name", "qasm-circuit")
        _require(
            isinstance(benchmark, str) and benchmark != "",
            "'name' must be a string",
        )
        qubits = 0
    else:
        _require(
            benchmark in _VALID_BENCHMARKS,
            f"'benchmark' must be one of {', '.join(_VALID_BENCHMARKS)}",
        )
        qubits = request.get("qubits", 16)
        _require(
            isinstance(qubits, int) and not isinstance(qubits, bool)
            and 1 <= qubits <= MAX_QUBITS,
            f"'qubits' must be an integer in [1, {MAX_QUBITS}]",
        )

    seed = request.get("seed", 7)
    _require(
        isinstance(seed, int) and not isinstance(seed, bool),
        "'seed' must be an integer",
    )

    resource_state = request.get("resource_state", "3-line")
    _require(
        resource_state in _VALID_RESOURCE_STATES,
        f"'resource_state' must be one of {', '.join(_VALID_RESOURCE_STATES)}",
    )

    shots = request.get("shots", 0)
    _require(
        isinstance(shots, int) and not isinstance(shots, bool) and shots >= 0,
        "'shots' must be a non-negative integer",
    )

    noise = request.get("noise", {})
    _require(isinstance(noise, dict), "'noise' must be an object")
    for key, value in noise.items():
        _require(
            isinstance(key, str) and isinstance(value, (int, float))
            and not isinstance(value, bool),
            f"noise override {key!r} must map a string to a number",
        )
    unknown = sorted(set(noise) - set(_NOISE_FIELDS))
    _require(
        not unknown,
        f"unknown noise override(s): {', '.join(unknown)} "
        f"(use {', '.join(_NOISE_FIELDS)})",
    )
    try:
        NoiseModel(**noise)
    except ValueError as exc:
        raise RequestError(f"noise override {exc}") from None

    verify = request.get("verify", False)
    _require(isinstance(verify, bool), "'verify' must be a boolean")
    include_baseline = request.get("include_baseline", False)
    _require(
        isinstance(include_baseline, bool),
        "'include_baseline' must be a boolean",
    )
    return RunSpec(
        benchmark=benchmark,
        num_qubits=qubits,
        qasm=qasm,
        seed=seed,
        resource_state=resource_state,
        include_baseline=include_baseline,
        verify=verify,
        shots=shots,
        noise=tuple(sorted((k, float(v)) for k, v in noise.items())),
    )


def compile_job(spec: "RunSpec") -> Dict[str, Any]:
    """Execute one normalized spec (runs inside a worker process).

    Both request kinds run the batch pipeline
    (:func:`repro.eval.batch.execute_spec`) and return the batch
    runner's stored artifact of the record.  QASM text is parsed here,
    never on the cache-hit path; a parsed circuit wider than
    ``MAX_QUBITS`` raises :class:`RequestError` before anything
    compiles.
    """
    from repro.eval.batch import execute_spec, record_artifact

    if spec.qasm is not None:
        from repro.circuit.qasm import from_qasm

        width = from_qasm(spec.qasm).num_qubits
        _require(
            1 <= width <= MAX_QUBITS,
            f"QASM circuit has {width} qubits; the bound is "
            f"[1, {MAX_QUBITS}]",
        )
    return record_artifact(execute_spec(spec))


class CompileService:
    """Cache-first compile dispatcher over a worker process pool.

    Runs on one event loop: the socket server awaits :meth:`handle` for
    every request, so the store, the in-flight map and the counters
    are only ever touched from that loop and need no lock.  ``workers``
    bounds the process pool (default: ``min(4, cpu_count)``); the pool
    starts lazily on the first miss, so a service that only ever hits
    cache never forks.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[Any] = None,
        memory_capacity: int = 256,
    ) -> None:
        from repro.eval.batch import SCHEMA_VERSION

        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.store = ArtifactStore(
            cache_dir=cache_dir,
            memory_capacity=memory_capacity,
            schema_version=SCHEMA_VERSION,
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._closed = False
        self.jobs_completed = 0
        self.jobs_failed = 0
        self._started_at = time.time()

    # -- dispatch ------------------------------------------------------
    async def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request dict; never raises, always returns a dict."""
        op = request.get("op", "compile")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.stats()}
        if op == "compile":
            return await self._handle_compile(request)
        return error_response("unknown-op", f"unknown op {op!r}")

    async def _handle_compile(self, request: Dict[str, Any]) -> Dict[str, Any]:
        t0 = time.perf_counter()
        try:
            spec = normalize_request(request)
        except RequestError as exc:
            return error_response("bad-request", exc.message)
        key = spec.key()

        # no await between the lookup and the join-or-submit: nothing
        # can publish or retire *key* in between
        hit = self.store.get(key)
        if hit is not None:
            return {
                "ok": True,
                "key": key,
                "cache_tier": hit.tier,
                "cache_age_seconds": round(hit.age_seconds, 3),
                "seconds": time.perf_counter() - t0,
                "artifact": hit.artifact,
            }
        future = self._inflight.get(key)
        owner = future is None
        if future is None:
            future = self._submit(key, spec)
        if future is None:
            return error_response(
                "shutting-down", "service is draining; compile rejected"
            )
        try:
            # shielded: a cancelled requester leaves the job (and every
            # other requester awaiting it) running
            artifact = await asyncio.shield(future)
        except Exception as exc:  # worker raised: report, don't crash
            if isinstance(exc, RequestError):
                return error_response("bad-request", exc.message, key=key)
            return error_response(
                "compile-error", f"{type(exc).__name__}: {exc}", key=key
            )
        return {
            "ok": True,
            "key": key,
            "cache_tier": None if owner else "inflight",
            "cache_age_seconds": None,
            "seconds": time.perf_counter() - t0,
            "artifact": artifact,
        }

    def _submit(
        self, key: str, spec: "RunSpec"
    ) -> Optional["asyncio.Future[Dict[str, Any]]"]:
        """Start compiling *spec* and register it as *key*'s in-flight job.

        ``None`` when the service is closed.  The job's done-callback,
        registered here once, publishes the artifact (or counts the
        failure) and retires the entry; it runs on the loop before any
        requester awaiting the job resumes.
        """
        if self._closed:
            return None
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        try:
            job = self._executor.submit(compile_job, spec)
        except RuntimeError:  # pool already shut down
            return None
        future = asyncio.wrap_future(job)
        future.add_done_callback(functools.partial(self._retire, key))
        self._inflight[key] = future
        return future

    def _retire(
        self, key: str, future: "asyncio.Future[Dict[str, Any]]"
    ) -> None:
        del self._inflight[key]
        if future.cancelled() or future.exception() is not None:
            self.jobs_failed += 1
            return
        self.store.put(key, future.result())
        self.jobs_completed += 1

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "inflight": len(self._inflight),
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "store": self.store.stats.as_dict(),
        }

    # -- lifecycle -----------------------------------------------------
    async def stop(self, drain: bool = True) -> None:
        """Stop accepting compiles and shut the pool down; ``drain=True``
        first awaits every in-flight job, so each one publishes.  A job
        left running by ``drain=False`` publishes only if the loop still
        runs when it finishes."""
        self._closed = True
        if drain and self._inflight:
            await asyncio.wait(list(self._inflight.values()))
        self.close(drain=drain)

    def close(self, drain: bool = True) -> None:
        """Stop accepting compiles and shut the pool down; ``drain=True``
        waits for running jobs to finish.  Publishing runs on the loop,
        so a job still running when ``close`` is called without one
        (an interrupted server) finishes but is not cached."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=drain)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
