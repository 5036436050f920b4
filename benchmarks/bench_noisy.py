#!/usr/bin/env python
"""Noisy-sampler gate: the frame engine against the per-shot oracle.

Workload (the yield-curve access pattern): a Bernstein-Vazirani
benchmark under a fusion-error-dominated noise model chosen so that
most shots carry at least one fault — the regime where the sampler
actually pays for execution (fault-free shots skip it entirely).  The
production path (``NoisySampler.run``, bit-packed Pauli frames) and the
test oracle (``NoisySampler._run_per_shot``, one tableau copy per
faulty shot) consume the same fault draw at the fixed seed, so their
``NoisySampleResult`` tallies must be bit-identical; the wall-clock
ratio is the headline.

On top of the speedup workload, a **demo point** runs a large-shot
BV-16 yield estimate under the default noise model — the
million-shot-per-noise-point regime the frame engine exists for.  With
``--demo-shots`` at or above one million it must finish within
``DEMO_TIME_GATE`` seconds.

Run:  PYTHONPATH=src python benchmarks/bench_noisy.py [--shots 2000]

Writes ``benchmarks/BENCH_noisy.json`` and exits non-zero when the
tallies diverge, the frame speedup over the oracle drops below the
100x gate, or the demo point misses its time gate.  ``--quick`` shrinks
the workload for a CI smoke and skips the speedup and demo gates
(equivalence is still enforced); ``--demo-shots 0`` skips the demo.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.circuit import get_benchmark  # noqa: E402
from repro.hardware.noise import DEFAULT_NOISE, NoiseModel  # noqa: E402
from repro.sim.noisy import NoisySampler  # noqa: E402

SPEEDUP_GATE = 100.0
DEMO_TIME_GATE = 60.0
#: frame-engine timings per measurement (the median is reported); the
#: oracle runs once — it is ~1000x slower and its spread is small
FRAME_REPEATS = 5

#: Fusion errors dominate and loss is off: most shots are faulty and
#: execute, no shot is aborted before execution.
BENCH_MODEL = NoiseModel(
    fusion_success=0.75,
    fusion_error=0.05,
    cycle_loss=0.0,
    measurement_error=0.002,
)


def _tally(result):
    return {
        "shots": result.shots,
        "successes": result.successes,
        "fault_free": result.fault_free,
        "loss_aborts": result.loss_aborts,
        "logical_failures": result.logical_failures,
        "executed": result.executed,
        "fusion_attempts": result.fusion_attempts,
    }


def _timed(run, shots):
    t0 = time.perf_counter()
    result = run(shots)
    return time.perf_counter() - t0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="BV")
    parser.add_argument("--qubits", type=int, default=16)
    parser.add_argument("--shots", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--demo-shots", type=int, default=1_000_000,
        help="shots for the default-noise demo point (0 skips it; the "
        f"<{DEMO_TIME_GATE:.0f}s gate applies from 1M shots up)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke workload; equivalence only, no speedup or "
        "demo gates",
    )
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).parent / "BENCH_noisy.json"),
    )
    args = parser.parse_args(argv)
    shots = 300 if args.quick else args.shots
    qubits = 8 if args.quick else args.qubits
    demo_shots = 0 if args.quick else args.demo_shots

    circuit = get_benchmark(args.benchmark, qubits, seed=args.seed)

    def fresh_sampler(model=BENCH_MODEL) -> NoisySampler:
        # one sampler per path: a fresh instance proves neither run
        # leans on the other's state (e.g. the compiled frame program)
        return NoisySampler(circuit, model=model, seed=args.seed)

    oracle_seconds, oracle = _timed(fresh_sampler()._run_per_shot, shots)
    sampler = fresh_sampler()
    # steady-state throughput: a tiny warm-up run absorbs one-time costs
    # (the frame-program compile) that a real sweep amortizes
    sampler.run(max(1, min(64, shots)))
    timings = [_timed(sampler.run, shots) for _ in range(FRAME_REPEATS)]
    frame_seconds = statistics.median(seconds for seconds, _ in timings)
    frame = timings[0][1]

    identical = all(_tally(result) == _tally(oracle) for _, result in timings)
    speedup = oracle_seconds / max(frame_seconds, 1e-12)

    demo = None
    demo_ok = True
    if demo_shots > 0:
        demo_seconds, demo_result = _timed(
            fresh_sampler(model=DEFAULT_NOISE).run, demo_shots
        )
        demo = {
            "shots": demo_shots,
            "noise": "default",
            "seconds": round(demo_seconds, 3),
            "shots_per_second": round(demo_result.shots_per_second, 1),
            "yield_mc": round(demo_result.yield_mc, 6),
            "fault_free_yield": round(demo_result.fault_free_yield, 6),
            "executed": demo_result.executed,
            "time_gate_seconds": (
                DEMO_TIME_GATE if demo_shots >= 1_000_000 else None
            ),
        }
        demo_ok = demo_shots < 1_000_000 or demo_seconds < DEMO_TIME_GATE

    payload = {
        "schema_version": 2,
        "label": "noisy_sampler",
        "workload": {
            "benchmark": f"{args.benchmark}-{qubits}",
            "shots": shots,
            "faulty_shots_executed": frame.executed,
            "noise": {
                "fusion_success": BENCH_MODEL.fusion_success,
                "fusion_error": BENCH_MODEL.fusion_error,
                "cycle_loss": BENCH_MODEL.cycle_loss,
                "measurement_error": BENCH_MODEL.measurement_error,
            },
            "seed": args.seed,
            "quick": args.quick,
        },
        "per_shot_oracle": {
            "seconds": round(oracle_seconds, 5),
            "shots_per_second": round(shots / oracle_seconds, 1),
        },
        "frame_engine": {
            "seconds": round(frame_seconds, 5),
            "repeats": FRAME_REPEATS,
            "shots_per_second": round(shots / frame_seconds, 1),
        },
        "tally": _tally(frame),
        "yield_mc": round(frame.yield_mc, 6),
        "speedup": round(speedup, 1),
        "tallies_identical": identical,
        "speedup_gate": None if args.quick else SPEEDUP_GATE,
        "demo": demo,
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(payload, indent=1) + "\n")

    print(
        f"{args.benchmark}-{qubits}, {shots} shots "
        f"({frame.executed} faulty shots executed)\n"
        f"  per-shot oracle: {oracle_seconds:.4f}s "
        f"({shots / oracle_seconds:.0f} shots/s)\n"
        f"  frame engine:    {frame_seconds:.5f}s "
        f"({shots / frame_seconds:.0f} shots/s, median of "
        f"{FRAME_REPEATS})\n"
        f"  speedup: {speedup:.1f}x; tallies identical: {identical}"
    )
    if demo is not None:
        print(
            f"  demo: {demo_shots:,} shots @ default noise in "
            f"{demo['seconds']:.2f}s ({demo['shots_per_second']:,.0f} "
            f"shots/s), yield_mc={demo['yield_mc']:.4f}"
        )
    print(f"  wrote {out_path}")
    if not identical:
        print("error: frame tallies diverged from the oracle", file=sys.stderr)
        print(f"  oracle: {_tally(oracle)}", file=sys.stderr)
        for _, result in timings:
            print(f"  frame:  {_tally(result)}", file=sys.stderr)
        return 1
    if not args.quick and speedup < SPEEDUP_GATE:
        print(
            f"error: frame speedup {speedup:.1f}x below the "
            f"{SPEEDUP_GATE:.0f}x gate",
            file=sys.stderr,
        )
        return 1
    if not demo_ok:
        print(
            f"error: {demo_shots:,}-shot demo took {demo['seconds']:.1f}s "
            f"(gate: {DEMO_TIME_GATE:.0f}s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
