"""Shared plumbing of the OneQ benchmark: operation tallies, the pass
loop, set-up timing, provenance and the result line.

Every workload runs in passes over a fixed, seeded input set.  An
*operation* is one unit of user-visible work inside a pass (one Table-2
row compiled and validated, one Clifford input taken to a yield, one
compile request served); each operation is checked, and a failed check
fails that operation.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for trace files and temporary server caches
OUT_DIR = ROOT / ".perfbench"
#: the committed run table: per-row goldens at the default seed
RUN_TABLE = ROOT / "benchmarks" / "run_table.json"
#: Table 2's circuit seed; at this workload seed the compiled rows must
#: equal the committed run table
DEFAULT_SEED = 7
#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 9

#: end-to-end metrics (tracing off) and their units, in report order
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "pass_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "depth_total": "count",
    "fusions_total": "count",
    "peak_rss_mb": "MB",
}

#: the reference loop's trimmed-mean time on the 2-vCPU Xeon VM the
#: benchmark was calibrated on; reported times are scaled to this speed
REFERENCE_S = 0.0021


def _reference_inputs() -> Tuple[Dict[int, List[int]], Any]:
    import random

    import numpy

    rng = random.Random(0)
    graph: Dict[int, List[int]] = {node: [] for node in range(400)}
    for _ in range(1600):
        a, b = rng.randrange(400), rng.randrange(400)
        graph[a].append(b)
        graph[b].append(a)
    return graph, numpy.random.default_rng(0).random(4096)


_REFERENCE = _reference_inputs()


def reference_loop() -> float:
    """Seconds of one fixed piece of work that touches no repo code:
    breadth-first searches over a dict-of-lists graph (the kind of
    Python the compiler runs) and a few numpy sorts and scans (the kind
    the sampler runs).  The work runs twice and the second, warm-cache
    run is timed, so the operation before it does not colour it."""
    _reference_work()
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


def _reference_work() -> None:
    import numpy

    graph, array = _REFERENCE
    for source in range(0, len(graph), 40):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            following = []
            for u in frontier:
                for v in graph[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        following.append(v)
            frontier = following
    for _ in range(10):
        numpy.sort(array)
        numpy.cumsum(array)


def source_available() -> bool:
    """Put the checkout's ``src/`` on ``sys.path``; False when absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


class Tally:
    """Operations attempted and failed, with the first failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, label: str, problems: Sequence[str]) -> bool:
        """Count one operation; it fails when any check reported a
        problem.  Returns True when the operation passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / max(1, self.attempted)


@dataclass
class PassLog:
    """Per-pass wall times, split by whether tracing was on."""

    untraced: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)


def run_passes(
    run_pass: Callable[[int, bool], float],
    seconds: float,
    tracer: Optional[Any] = None,
) -> PassLog:
    """Run passes until *seconds* of wall time have elapsed.

    ``run_pass(index, traced)`` returns the pass's measured seconds.  A pass is
    never cut: the last one starts before the deadline and finishes.
    With a *tracer*, passes alternate untraced / traced (wrappers
    installed only for the traced ones), at least one of each, so the
    tracing overhead is measured inside one process under one load.
    """
    log = PassLog()
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            with tracer.installed(index):
                log.traced.append(run_pass(index, True))
        else:
            log.untraced.append(run_pass(index, False))
        index += 1
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or log.traced):
            return log


def probe_setup(workload: str, seed: int) -> None:
    """Time one cold set-up in a fresh interpreter: imports plus input
    generation, exactly what a user's first call pays."""
    cmd = [
        sys.executable, str(Path(__file__).resolve().parent / "run.py"),
        "--workload", workload, "--seed", str(seed), "--setup-probe",
    ]
    proc = subprocess.run(
        cmd, cwd=str(ROOT), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace')[-500:]}"
        )


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """What ``run.py`` drives: set-up, passes, end-of-run checks, metrics.

    By default a pass runs :meth:`operations` in this process, each timed
    and then checked by :meth:`check`, and set-up is timed in fresh
    interpreters (:func:`probe_setup`), then repeated here once so the
    passes have their inputs.
    """

    name = ""

    def __init__(self, seed: int, tally: Tally, tracer: Any) -> None:
        self.seed = seed
        self.tally = tally
        self.tracer = tracer
        #: wall seconds per operation over the untraced / traced passes
        self.op_seconds: Dict[str, List[float]] = {}
        self.traced_op_seconds: Dict[str, List[float]] = {}
        #: each operation's first-pass fingerprint (depth and #fusions
        #: first); later passes must reproduce it exactly
        self.first: Dict[str, Tuple[Any, ...]] = {}
        #: :func:`reference_loop` times, one before each operation
        self.reference_seconds: List[float] = []
        #: median wall seconds of the set-ups, from :meth:`measure_setup`
        self.setup_seconds = 0.0
        #: extra lines for the readable report
        self.notes: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self) -> List[Tuple[str, Callable[[], Any]]]:
        """(label, thunk) per operation of one pass."""
        raise NotImplementedError

    def check(self, label: str, outcome: Any) -> List[str]:
        """Problems found in one operation's outcome."""
        raise NotImplementedError

    def measure_setup(self) -> float:
        """Median wall seconds of :data:`SETUP_REPEATS` cold set-ups."""
        samples = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            probe_setup(self.name, self.seed)
            samples.append(time.perf_counter() - t0)
        self.setup()
        self.setup_seconds = statistics.median(samples)
        return self.setup_seconds

    def run_pass(self, index: int, traced: bool) -> float:
        """Time and check every operation; returns the pass's seconds."""
        total = 0.0
        for label, operation in self.operations():
            # start each operation on a collected heap, so one
            # operation's garbage is not charged to the next
            gc.collect()
            self.reference_seconds.append(reference_loop())
            with self.tracer.span(f"op:{label}"):
                t0 = time.perf_counter()
                try:
                    outcome = operation()
                except Exception as exc:  # a crashing operation fails alone
                    self.tally.record(label, [f"{type(exc).__name__}: {exc}"])
                    continue
                seconds = time.perf_counter() - t0
            total += seconds
            samples = self.traced_op_seconds if traced else self.op_seconds
            samples.setdefault(label, []).append(seconds)
            self.tally.record(label, self.check(label, outcome))
        return total

    def same_as_first(self, label: str, fingerprint: Tuple[Any, ...]) -> List[str]:
        first = self.first.setdefault(label, fingerprint)
        if fingerprint != first:
            return [f"pass differs from first pass: {fingerprint} != {first}"]
        return []

    def speed_scale(self) -> float:
        """Factor that takes this run's times to the calibrated speed:
        :data:`REFERENCE_S` over the run's trimmed-mean reference-loop
        time."""
        return REFERENCE_S / trimmed_mean(self.reference_seconds)

    def end_to_end(self, pass_seconds: List[float]) -> Dict[str, float]:
        """End-to-end metrics from the per-operation times.

        Each operation is estimated by its trimmed mean over the run's
        passes, scaled by :meth:`speed_scale`.  The host's speed drifts
        by up to ~1.5x, in stretches from milliseconds to longer than a
        run; the reference loop, timed before every operation, sees the
        same drift, so the ratio of the two means is steady where
        either alone is not (minima were tried: a short reference loop
        catches brief fast stretches that a long operation cannot).  A
        pass is the sum of the estimates, latencies are taken over
        them, and the totals come from the first pass.  The set-up time
        is scaled alike.
        """
        scale = self.speed_scale()
        estimates = [scale * trimmed_mean(v) for v in self.op_seconds.values()]
        pass_s = sum(estimates)
        self.notes.append(
            f"unscaled: setup_s {self.setup_seconds:.4f} s, pass_s "
            f"{pass_s / scale:.4f} s; speed scale {scale:.4f}"
        )
        programs = self.programs()
        return {
            "setup_s": scale * self.setup_seconds,
            "pass_s": pass_s,
            "ops_per_s": len(estimates) / pass_s,
            "p50_ms": 1000.0 * quantile(estimates, 0.5),
            "p90_ms": 1000.0 * quantile(estimates, 0.9),
            "depth_total": float(sum(p[0] for p in programs)),
            "fusions_total": float(sum(p[1] for p in programs)),
        }

    def programs(self) -> List[Tuple[Any, ...]]:
        """The compiled programs' fingerprints (depth and #fusions
        first), one per program of a pass."""
        return list(self.first.values())

    def trace_overhead_s(self, log: PassLog) -> float:
        """Traced minus untraced pass time, each estimated as
        :meth:`end_to_end` estimates ``pass_s``."""
        def estimate(samples: Dict[str, List[float]]) -> float:
            return self.speed_scale() * sum(
                trimmed_mean(v) for v in samples.values()
            )

        return estimate(self.traced_op_seconds) - estimate(self.op_seconds)

    def finish(self) -> None:
        """Checks and readings after the last pass (none in-process)."""

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics not derived from spans (none in-process)."""
        return {}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree (an
    enclosing repository's HEAD would name the wrong code)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def provenance(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    import networkx
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def trimmed_mean(values: Sequence[float], cut: float = 0.2) -> float:
    """Mean of *values* without the lowest and highest *cut* share."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("trimmed mean of no values")
    k = int(cut * len(ordered))
    kept = ordered[k:len(ordered) - k]
    return sum(kept) / len(kept)


def quantile(values: Sequence[float], fraction: float) -> float:
    """Quantile with linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def emit(
    tally: Tally,
    metrics: Dict[str, Tuple[float, str]],
    notes: Sequence[str] = (),
) -> int:
    """Print the human-readable report, then the result JSON as the last
    stdout line.  Returns the process exit code (1 on any failure)."""
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(
        f"  {'failed_frac':32s} {tally.failed_frac:>16.6g} frac "
        f"({tally.failed}/{tally.attempted})"
    )
    for note in notes:
        print(f"  {note}")
    correct = tally.failed == 0 and tally.attempted > 0
    result = {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def write_trace_file(name: str, payload: Dict[str, Any]) -> Path:
    """Write a traced run's spans under the benchmark's scratch dir."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1))
    os.replace(tmp, path)
    return path
