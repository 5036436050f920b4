"""serve-mixed: a closed loop of two clients against ``repro serve``.

The service runs as ``repro serve`` in its own subprocess with two
compile workers, a three-artifact memory tier and a fresh temporary disk
cache.  Each client holds one connection and waits for every reply
before sending the next request.  A pass is 32 requests per client in
blocks of four: one cold request (a fresh seed of QFT/QAOA/RCA/BV-16,
each benchmark twice per client) at a seeded position among three hot
ones.  The hot set is the four Table-2 16-qubit rows plus one QASM
request (BV-16 as QASM text), warmed before timing; five hot artifacts
over a three-slot memory tier make some hits come from disk.

With a quarter of the requests cold, p50 falls among cache hits and p90
among compiles.  Everything about the server is measured from outside:
latency from send, tiers and timings from response fields, CPU and
memory from the server's ``/proc`` entry.
"""

from __future__ import annotations

import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from bench_common import (
    DEFAULT_SEED, OUT_DIR, ROOT, SETUP_REPEATS, SRC, PassLog, Tally, Workload,
    quantile, reference_loop,
)
from bench_trace import Tracer

HOST = "127.0.0.1"
CLIENTS = 2
WORKERS = 2
MEM_CAPACITY = 3
BLOCKS_PER_CLIENT = 8
BLOCK = 4  # one cold request per block
BENCHMARKS = ("QFT", "QAOA", "RCA", "BV")
QUBITS = 16
#: cold artifacts re-derived in process per run, one per benchmark
COLD_CHECKS = len(BENCHMARKS)
#: reference-loop timings before each pass (see ``speed_scale``)
REFERENCE_CALLS = 10
#: artifact fields that are timings or labels, not compile results
UNCOMPARED_FIELDS = {"seconds", "shots_per_second", "kind"}

#: per-layer serve metrics (taken from responses and /proc), with units
SERVE_METRICS: Dict[str, str] = {
    "store.hit_frac": "frac",
    "store.hit_frac.memory": "frac",
    "store.hit_frac.disk": "frac",
    "store.hit_frac.inflight": "frac",
    "serve.requests": "count",
    "serve.cold_frac": "frac",
    "serve.transport_ms": "ms",
    "serve.dispatch_ms": "ms",
    "serve.worker_compile_ms": "ms",
    "serve.server_cpu_ms_per_req": "ms",
}


# ----------------------------------------------------------------------
# the server process, seen from outside
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        # fields after the parenthesised command name; index 0 is state
        return handle.read().rsplit(")", 1)[1].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def children(pid: int) -> List[int]:
    """Direct child processes (the compile workers)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if int(_stat_fields(int(entry))[1]) == pid:
                    found.append(int(entry))
            except (OSError, IndexError, ValueError):
                continue  # exited while we looked
    return found


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """One ``repro serve`` subprocess with a fresh temporary cache."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.cache = Path(tempfile.mkdtemp(prefix="serve-cache-", dir=OUT_DIR))
        self.log_path = self.cache.with_suffix(".log")
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        env["PYTHONUNBUFFERED"] = "1"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--host", HOST,
                    "--port", "0", "--workers", str(WORKERS),
                    "--mem-capacity", str(MEM_CAPACITY),
                    "--cache", str(self.cache),
                ],
                cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=log,
            )
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, left))
            if not ready:
                raise RuntimeError(f"server not listening after {timeout:.0f} s")
            chunk = os.read(self.proc.stdout.fileno(), 256)
            if not chunk:
                raise RuntimeError(f"server exited before listening: {self.log_tail()}")
            line += chunk
        match = re.search(rb"listening on [^:\s]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        self.port = int(match.group(1))

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-400:]
        except OSError:
            return ""

    def stop(self) -> List[str]:
        """Shut down through the ``shutdown`` op, check the exit status,
        delete the cache; returns the problems found."""
        from repro.serve.client import CompileClient

        problems: List[str] = []
        if self.proc is None:
            return problems
        try:
            with CompileClient(HOST, self.port, retries=0, timeout=30) as client:
                if not client.shutdown().get("ok"):
                    problems.append("shutdown op not acknowledged")
        except OSError as exc:
            problems.append(f"shutdown op: {exc}")
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            problems.append("server still running 60 s after shutdown")
            self.kill()
        else:
            if code != 0:
                problems.append(f"server exited {code}: {self.log_tail()}")
        self.close()
        return problems

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)

    def close(self) -> None:
        """Release the pipe and delete the cache and the log."""
        self.kill()
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        shutil.rmtree(self.cache, ignore_errors=True)
        self.log_path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
@dataclass
class Sample:
    latency: float
    cold: bool
    tier: Optional[str]
    server_seconds: float
    compile_seconds: Optional[float]
    traced: bool


class ServeMixed(Workload):
    """Pass = 32 requests from each of two closed-loop clients;
    operation = one request."""

    name = "serve-mixed"

    def __init__(self, seed: int, tally: Tally, tracer: Tracer) -> None:
        super().__init__(seed, tally, tracer)
        self.rng = random.Random(seed)
        self.used_seeds: Set[int] = {DEFAULT_SEED}
        self.server: Optional[Server] = None
        self.clients: List[Any] = []
        self.hot: List[Dict[str, Any]] = []
        self.hot_artifacts: List[Dict[str, Any]] = []
        self.samples: List[Sample] = []
        self.cold_served: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        self.cpu_start = 0.0
        self.cpu_seconds = 0.0
        self.rss_mb = 0.0
        self.notes: List[str] = []

    # -- inputs --------------------------------------------------------
    def setup(self) -> None:
        """Generate the hot set (the request mix is drawn per pass)."""
        from repro.circuit import get_benchmark
        from repro.circuit.qasm import to_qasm

        self.hot = [
            {"op": "compile", "benchmark": name, "qubits": QUBITS,
             "seed": DEFAULT_SEED}
            for name in BENCHMARKS
        ]
        self.hot.append({
            "op": "compile", "name": "bv16-qasm",
            "qasm": to_qasm(get_benchmark("BV", QUBITS, seed=DEFAULT_SEED)),
        })

    def fresh_seed(self) -> int:
        while True:
            seed = self.rng.randrange(10**6, 10**9)
            if seed not in self.used_seeds:
                self.used_seeds.add(seed)
                return seed

    def client_sequence(self) -> List[Tuple[bool, Dict[str, Any]]]:
        """One client's pass: blocks of one cold and three hot requests,
        every benchmark cold equally often, hot requests round-robin
        over shuffled orders of the hot set."""
        colds = list(BENCHMARKS) * (BLOCKS_PER_CLIENT // len(BENCHMARKS))
        self.rng.shuffle(colds)
        hot_order: List[int] = []
        sequence: List[Tuple[bool, Dict[str, Any]]] = []
        for name in colds:
            block: List[Tuple[bool, Dict[str, Any]]] = []
            for _ in range(BLOCK - 1):
                if not hot_order:
                    hot_order = list(range(len(self.hot)))
                    self.rng.shuffle(hot_order)
                block.append((False, self.hot[hot_order.pop()]))
            cold = {"op": "compile", "benchmark": name, "qubits": QUBITS,
                    "seed": self.fresh_seed()}
            block.insert(self.rng.randrange(BLOCK), (True, cold))
            sequence.extend(block)
        return sequence

    # -- set-up: server start + warm-up ---------------------------------
    def measure_setup(self) -> float:
        samples = []
        for repeat in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.setup()
            server = Server()
            try:
                server.start()
                self.warm(server)
            except Exception:
                server.close()
                raise
            samples.append(time.perf_counter() - t0)
            if repeat < SETUP_REPEATS - 1:
                self.tally.record("server teardown", server.stop())
            else:
                self.server = server
        from repro.serve.client import CompileClient

        assert self.server is not None
        self.clients = [
            CompileClient(HOST, self.server.port, retries=0, timeout=120)
            for _ in range(CLIENTS)
        ]
        self.cpu_start = cpu_seconds(self.server.pid)
        self.setup_seconds = statistics.median(samples)
        return self.setup_seconds

    def warm(self, server: Server) -> None:
        """Compile every hot request once; the artifacts must match the
        committed Table-2 goldens (the QASM request is BV-16)."""
        from repro.serve.client import CompileClient
        from workload_compile import load_goldens

        goldens = load_goldens()
        self.hot_artifacts = []
        with CompileClient(HOST, server.port, retries=0, timeout=120) as client:
            for request in self.hot:
                label = request.get("benchmark", "BV")
                response = client.request(request)
                problems = []
                if not response.get("ok"):
                    problems.append(f"warm-up error {response.get('error')}")
                else:
                    artifact = response["artifact"]
                    self.hot_artifacts.append(artifact)
                    got = (artifact["depth"], artifact["num_fusions"])
                    want = goldens.get(f"{label}-{QUBITS}")
                    if got != want:
                        problems.append(f"hot artifact {got} != golden {want}")
                self.tally.record(f"warm {label}-{QUBITS}", problems)

    # -- passes --------------------------------------------------------
    def run_pass(self, index: int, traced: bool) -> float:
        # the server is idle between passes: time the host's speed there
        self.reference_seconds.extend(
            reference_loop() for _ in range(REFERENCE_CALLS)
        )
        sequences = [self.client_sequence() for _ in self.clients]
        outputs: List[List[Tuple[bool, Dict[str, Any], Any, float]]] = [
            [] for _ in self.clients
        ]
        threads = [
            threading.Thread(target=self.drive, args=(client, seq, out))
            for client, seq, out in zip(self.clients, sequences, outputs)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        seconds = time.perf_counter() - t0
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client thread did not finish its pass")
        for out in outputs:
            for cold, request, response, latency in out:
                self.tally.record(
                    self.label(cold, request),
                    self.check(cold, request, response, latency, traced),
                )
        return seconds

    @staticmethod
    def drive(client: Any, sequence: List[Tuple[bool, Dict[str, Any]]],
              out: List[Tuple[bool, Dict[str, Any], Any, float]]) -> None:
        for cold, request in sequence:
            t0 = time.perf_counter()
            try:
                response: Any = client.request(request)
            except OSError as exc:  # retries=0: a transport error fails
                response = exc
            out.append((cold, request, response, time.perf_counter() - t0))

    @staticmethod
    def label(cold: bool, request: Dict[str, Any]) -> str:
        kind = "cold" if cold else "hot"
        return f"{kind} {request.get('benchmark', 'qasm')} seed={request.get('seed')}"

    def check(self, cold: bool, request: Dict[str, Any], response: Any,
              latency: float, traced: bool) -> List[str]:
        if isinstance(response, Exception):
            return [f"transport: {response}"]
        if not response.get("ok"):
            return [f"error response {response.get('error')}"]
        tier = response.get("cache_tier")
        artifact = response["artifact"]
        problems = []
        if cold:
            if tier is not None:
                problems.append(f"fresh seed served from the {tier} tier")
            self.cold_served.append((request, artifact))
        else:
            if tier not in ("memory", "disk", "inflight"):
                problems.append(f"hot request recompiled (tier {tier})")
            if artifact != self.hot_artifacts[self.hot.index(request)]:
                problems.append("hot artifact differs from its warm-up copy")
        self.samples.append(Sample(
            latency, cold, tier, float(response["seconds"]),
            float(artifact["seconds"]) if tier is None else None, traced,
        ))
        return problems

    # -- after the passes ----------------------------------------------
    def check_cold_sample(self) -> None:
        """Re-derive one cold artifact per benchmark with an in-process
        ``execute_spec`` of the same job; results must match exactly."""
        from repro.eval.batch import RunSpec, execute_spec

        picked: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
        for request, artifact in self.cold_served:
            picked.setdefault(request["benchmark"], (request, artifact))
        for name in sorted(picked)[:COLD_CHECKS]:
            request, artifact = picked[name]
            record = asdict(execute_spec(RunSpec(
                benchmark=name, num_qubits=request["qubits"],
                seed=request["seed"], include_baseline=False,
            )))
            diff = sorted(
                key for key, value in artifact.items()
                if key not in UNCOMPARED_FIELDS and not key.endswith("_seconds")
                and record.get(key) != value
            )
            problems = [f"served artifact differs in {diff}"] if diff else []
            self.tally.record(f"cold check {name}-{QUBITS} seed={request['seed']}", problems)

    def finish(self) -> None:
        """Read the server's /proc entry, verify cold artifacts, then
        shut the server down (the teardown is checked too)."""
        assert self.server is not None
        pid = self.server.pid
        self.cpu_seconds = cpu_seconds(pid) - self.cpu_start
        self.rss_mb = peak_rss_mb(pid) + sum(peak_rss_mb(c) for c in children(pid))
        for client in self.clients:
            client.close()
        self.clients = []
        self.check_cold_sample()
        self.tally.record("server teardown", self.server.stop())
        self.server = None

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.close()

    # -- metrics -------------------------------------------------------
    def end_to_end(self, pass_seconds: List[float]) -> Dict[str, float]:
        latencies = [s.latency for s in self.samples if not s.traced]
        scale = self.speed_scale()
        self.notes.append(
            f"p50_ms/p90_ms over {len(latencies)} requests "
            f"({sum(s.cold for s in self.samples if not s.traced)} cold)"
        )
        self.notes.append(
            f"unscaled: setup_s {self.setup_seconds:.4f} s, pass_s "
            f"{statistics.median(pass_seconds):.4f} s; speed scale {scale:.4f}"
        )
        return {
            "setup_s": scale * self.setup_seconds,
            "pass_s": scale * statistics.median(pass_seconds),
            "ops_per_s": len(latencies) / sum(pass_seconds) / scale,
            "p50_ms": 1000.0 * scale * quantile(latencies, 0.5),
            "p90_ms": 1000.0 * scale * quantile(latencies, 0.9),
            "depth_total": float(sum(a["depth"] for a in self.hot_artifacts)),
            "fusions_total": float(sum(a["num_fusions"] for a in self.hot_artifacts)),
        }

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def trace_overhead_s(self, log: PassLog) -> float:
        return self.speed_scale() * (
            statistics.median(log.traced) - statistics.median(log.untraced)
        )

    def layer_metrics(self) -> Dict[str, float]:
        samples = self.samples
        total = max(1, len(samples))
        misses = [s for s in samples if s.compile_seconds is not None]
        metrics = {
            f"store.hit_frac.{tier}": sum(s.tier == tier for s in samples) / total
            for tier in ("memory", "disk", "inflight")
        }
        metrics["store.hit_frac"] = sum(
            s.tier is not None for s in samples) / total
        metrics["serve.requests"] = float(len(samples))
        metrics["serve.cold_frac"] = sum(s.cold for s in samples) / total
        metrics["serve.transport_ms"] = 1000.0 * statistics.median(
            [s.latency - s.server_seconds for s in samples] or [0.0])
        metrics["serve.dispatch_ms"] = 1000.0 * statistics.median(
            [s.server_seconds - s.compile_seconds for s in misses] or [0.0])
        metrics["serve.worker_compile_ms"] = 1000.0 * statistics.median(
            [s.compile_seconds for s in misses] or [0.0])
        metrics["serve.server_cpu_ms_per_req"] = 1000.0 * self.cpu_seconds / total
        return metrics
