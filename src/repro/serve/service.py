"""In-process compilation service: request -> cached artifact.

:class:`CompileService` is the serving layer's core, independent of any
transport: the socket server wraps it, tests and the in-process API
call it directly.  A request names a circuit — a library benchmark spec
(``benchmark``/``qubits``) or raw QASM text — plus optional hardware /
noise / verification knobs; the response carries the compiled artifact
(the job's :class:`repro.eval.batch.RunRecord` row: depth, fusion
tally, pattern size, stage timings, optional verification and yield)
and its cache provenance.

Request lifecycle:

1. **normalize** — :func:`normalize_request` validates shape and types
   and produces the canonical job dict (unknown fields are rejected so
   typos fail loudly instead of silently compiling the default);
2. **store lookup** — the job's content hash (:func:`job_key`) is
   checked against the two-tier :class:`~repro.serve.store.ArtifactStore`;
   a hit returns immediately with ``cache_tier`` set;
3. **single-flight dispatch** — on a miss the job runs on a worker
   process pool; concurrent requests for the *same* key join the
   in-flight future (``cache_tier="inflight"``) instead of compiling
   twice;
4. **publish** — the finished artifact lands in both store tiers, so
   the next request is a memory hit.

Compiles are deterministic, so a cache hit is exact: the artifact is
bit-identical to what a fresh compile would produce.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from repro.serve.protocol import error_response
from repro.serve.store import ArtifactStore
from repro.utils.sync import make_lock

#: bump when the artifact payload shape changes: stale disk entries
#: then read as misses instead of surfacing old-shape artifacts
ARTIFACT_VERSION = 2

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


def normalize_request(request: Dict[str, Any]) -> Dict[str, Any]:
    """Validate *request* and return the canonical job dict.

    The job dict is the compile's full identity: every field that can
    change the artifact is present with its default applied, so its
    content hash (:func:`job_key`) is stable across equivalent requests.
    """
    _require(isinstance(request, dict), "request must be a JSON object")
    unknown = sorted(set(request) - set(_REQUEST_FIELDS))
    _require(not unknown, f"unknown request field(s): {', '.join(unknown)}")

    qasm = request.get("qasm")
    benchmark = request.get("benchmark")
    _require(
        (qasm is None) != (benchmark is None),
        "request must carry exactly one of 'qasm' or 'benchmark'",
    )

    job: Dict[str, Any] = {}
    if qasm is not None:
        _require(
            isinstance(qasm, str) and qasm.strip() != "",
            "'qasm' must be a non-empty string",
        )
        job["qasm"] = qasm
        name = request.get("name", "qasm-circuit")
        _require(isinstance(name, str) and name != "", "'name' must be a string")
        job["name"] = name
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
        job["benchmark"] = benchmark
        job["qubits"] = qubits

    seed = request.get("seed", 7)
    _require(
        isinstance(seed, int) and not isinstance(seed, bool),
        "'seed' must be an integer",
    )
    job["seed"] = seed

    resource_state = request.get("resource_state", "3-line")
    _require(
        resource_state in _VALID_RESOURCE_STATES,
        f"'resource_state' must be one of {', '.join(_VALID_RESOURCE_STATES)}",
    )
    job["resource_state"] = resource_state

    shots = request.get("shots", 0)
    _require(
        isinstance(shots, int) and not isinstance(shots, bool) and shots >= 0,
        "'shots' must be a non-negative integer",
    )
    job["shots"] = shots

    noise = request.get("noise", {})
    _require(isinstance(noise, dict), "'noise' must be an object")
    for key, value in noise.items():
        _require(
            isinstance(key, str) and isinstance(value, (int, float))
            and not isinstance(value, bool),
            f"noise override {key!r} must map a string to a number",
        )
    job["noise"] = {str(k): float(v) for k, v in sorted(noise.items())}

    for flag in ("verify", "include_baseline"):
        value = request.get(flag, False)
        _require(isinstance(value, bool), f"'{flag}' must be a boolean")
        job[flag] = value
    return job


def job_key(job: Dict[str, Any]) -> str:
    """Content hash of a normalized job (the artifact's cache identity)."""
    payload = dict(job)
    payload["artifact_version"] = ARTIFACT_VERSION
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def compile_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one normalized job (runs inside a worker process).

    Both request kinds run the batch pipeline
    (:func:`repro.eval.batch.execute_spec`), so the artifact is the run
    record of the job's spec.  QASM text is parsed here, never on the
    cache-hit path; a parsed circuit wider than ``MAX_QUBITS`` raises
    :class:`RequestError` before anything compiles.
    """
    from repro.eval.batch import RunSpec, execute_spec

    qasm = job.get("qasm")
    if qasm is not None:
        from repro.circuit.qasm import from_qasm

        width = from_qasm(qasm).num_qubits
        _require(
            1 <= width <= MAX_QUBITS,
            f"QASM circuit has {width} qubits; the bound is "
            f"[1, {MAX_QUBITS}]",
        )
    spec = RunSpec(
        benchmark=job["benchmark"] if qasm is None else job["name"],
        num_qubits=job.get("qubits", 0),
        qasm=qasm,
        seed=job["seed"],
        resource_state=job["resource_state"],
        include_baseline=job["include_baseline"],
        verify=job["verify"],
        shots=job["shots"],
        noise=tuple(sorted(job["noise"].items())),
    )
    artifact = asdict(execute_spec(spec))
    # cache provenance belongs to the store envelope, not the artifact
    for field in ("cached", "cache_tier", "cache_age_seconds"):
        artifact.pop(field, None)
    artifact["kind"] = "benchmark" if qasm is None else "qasm"
    return artifact


class CompileService:
    """Cache-first compile dispatcher over a worker process pool.

    Thread-safe: the socket server calls :meth:`handle` from many
    threads at once.  ``workers`` bounds the process pool (default:
    ``min(4, cpu_count)``); the pool starts lazily on the first miss,
    so a service that only ever hits cache never forks.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        store: Optional[ArtifactStore] = None,
        cache_dir: Optional[Any] = None,
        memory_capacity: int = 256,
    ) -> None:
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.store = store or ArtifactStore(
            cache_dir=cache_dir,
            memory_capacity=memory_capacity,
            schema_version=ARTIFACT_VERSION,
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        self._inflight: Dict[str, "Future[Dict[str, Any]]"] = {}
        self._lock = make_lock("CompileService._lock")
        self._closed = False
        self.jobs_completed = 0
        self.jobs_failed = 0
        self._started_at = time.time()

    # -- dispatch ------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request dict; never raises, always returns a dict."""
        op = request.get("op", "compile")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.stats()}
        if op == "compile":
            return self._handle_compile(request)
        return error_response("unknown-op", f"unknown op {op!r}")

    def _handle_compile(self, request: Dict[str, Any]) -> Dict[str, Any]:
        t0 = time.perf_counter()
        try:
            job = normalize_request(request)
        except RequestError as exc:
            return error_response("bad-request", exc.message)
        key = job_key(job)

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

        future, owner = self._dispatch(key, job)
        if future is None:
            return error_response(
                "shutting-down", "service is draining; compile rejected"
            )
        try:
            artifact = future.result()
        except Exception as exc:  # worker raised: report, don't crash
            with self._lock:
                self._inflight.pop(key, None)
                self.jobs_failed += 1
            if isinstance(exc, RequestError):
                return error_response("bad-request", exc.message, key=key)
            return error_response(
                "compile-error", f"{type(exc).__name__}: {exc}", key=key
            )
        if owner:
            self.store.put(key, artifact)
            with self._lock:
                self._inflight.pop(key, None)
                self.jobs_completed += 1
        return {
            "ok": True,
            "key": key,
            "cache_tier": None if owner else "inflight",
            "cache_age_seconds": None,
            "seconds": time.perf_counter() - t0,
            "artifact": artifact,
        }

    def _dispatch(
        self, key: str, job: Dict[str, Any]
    ) -> Tuple[Optional["Future[Dict[str, Any]]"], bool]:
        """The future computing *key*'s artifact, plus ownership.

        The owner (the caller that actually submitted the job) is
        responsible for publishing the artifact and retiring the
        in-flight entry; joiners just wait.
        """
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                return existing, False
            if self._closed:
                return None, False
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            try:
                future = self._executor.submit(compile_job, job)
            except RuntimeError:  # pool already shut down
                return None, False
            self._inflight[key] = future
            return future, True

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            inflight = len(self._inflight)
            jobs_completed = self.jobs_completed
            jobs_failed = self.jobs_failed
        return {
            "workers": self.workers,
            "jobs_completed": jobs_completed,
            "jobs_failed": jobs_failed,
            "inflight": inflight,
    "uptime_seconds": round(time.time() - self._started_at, 3),
            "store": self.store.stats.as_dict(),
        }

    # -- lifecycle -----------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop accepting compiles; ``drain=True`` waits for in-flight
        jobs to finish first."""
        with self._lock:
            self._closed = True
            executor = self._executor
        if executor is not None:
            executor.shutdown(wait=drain)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
