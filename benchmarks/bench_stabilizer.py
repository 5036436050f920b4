#!/usr/bin/env python
"""Stabilizer-engine overhaul benchmark: bit-packed vs seed CHP engine.

Workload (the verification pipeline's access pattern): build an
Erdos-Renyi graph state on N qubits, then measure every qubit once in a
random Pauli basis.  Both engines draw one ``rng.integers(2)`` per random
measurement, so at a fixed seed the outcome streams must be
bit-identical; the wall-clock ratio is the headline.  The packed engine
is timed twice: through ``measure_pauli`` (the gated ratio) and through
``measure_single``, the pattern executor's one-column access path, whose
outcomes must match the seed engine's just as exactly.

Run:  PYTHONPATH=src python benchmarks/bench_stabilizer.py [--qubits 200]

Writes ``benchmarks/BENCH_sim_overhaul.json`` and exits non-zero when
outcomes diverge or the measurement speedup drops below the 10x gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parents[1]
for entry in (str(_ROOT / "src"), str(_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import networkx as nx  # noqa: E402
import numpy as np  # noqa: E402

from repro.sim import stabilizer as packed_engine  # noqa: E402
from tests.sim import reference_stabilizer as seed_engine  # noqa: E402

SPEEDUP_GATE = 10.0


def run_workload(module, graph, bases, seed, single=False):
    """Build the graph state and measure every qubit once; returns
    (build_seconds, measure_seconds, outcomes).  ``single`` measures
    through ``measure_single`` instead of ``measure_pauli``."""
    n = graph.number_of_nodes()
    t0 = time.perf_counter()
    state, index = module.StabilizerState.graph_state(graph, seed=seed)
    build_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    if single:
        outcomes = [
            state.measure_single(index[q], bases[q])
            for q in sorted(graph.nodes())
        ]
    else:
        outcomes = [
            state.measure_pauli(
                module.PauliString.from_ops(n, {index[q]: bases[q]})
            )
            for q in sorted(graph.nodes())
        ]
    return build_seconds, time.perf_counter() - t0, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qubits", type=int, default=200)
    parser.add_argument("--edge-factor", type=int, default=3,
                        help="edges = factor * qubits")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).parent / "BENCH_sim_overhaul.json"),
    )
    args = parser.parse_args(argv)

    n = args.qubits
    graph = nx.gnm_random_graph(n, args.edge_factor * n, seed=11)
    basis_rng = np.random.default_rng(2023)
    bases = {q: "xyz"[basis_rng.integers(3)] for q in graph.nodes()}

    seed_build, seed_measure, seed_outcomes = run_workload(
        seed_engine, graph, bases, args.seed
    )
    packed_build, packed_measure, packed_outcomes = run_workload(
        packed_engine, graph, bases, args.seed
    )
    _, single_measure, single_outcomes = run_workload(
        packed_engine, graph, bases, args.seed, single=True
    )

    identical = seed_outcomes == packed_outcomes == single_outcomes
    speedup_measure = seed_measure / max(packed_measure, 1e-12)
    speedup_single = seed_measure / max(single_measure, 1e-12)
    speedup_build = seed_build / max(packed_build, 1e-12)
    payload = {
        "schema_version": 1,
        "label": "sim_overhaul",
        "workload": {
            "graph": "gnm_random_graph",
            "qubits": n,
            "edges": graph.number_of_edges(),
            "measurements": n,
            "bases": "uniform random x/y/z per qubit",
            "seed": args.seed,
        },
        "seed_engine": {
            "build_seconds": round(seed_build, 5),
            "measure_seconds": round(seed_measure, 5),
            "measurements_per_second": round(n / max(seed_measure, 1e-12), 1),
        },
        "packed_engine": {
            "build_seconds": round(packed_build, 5),
            "measure_seconds": round(packed_measure, 5),
            "measurements_per_second": round(n / max(packed_measure, 1e-12), 1),
        },
        "packed_engine_single": {
            "measure_seconds": round(single_measure, 5),
            "measurements_per_second": round(n / max(single_measure, 1e-12), 1),
        },
        "speedup_measure": round(speedup_measure, 1),
        "speedup_measure_single": round(speedup_single, 1),
        "speedup_build": round(speedup_build, 1),
        "outcomes_identical": identical,
        "speedup_gate": SPEEDUP_GATE,
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(payload, indent=1) + "\n")

    print(
        f"{n}-qubit graph state, {n} random-basis Pauli measurements\n"
        f"  seed engine:   build {seed_build:.4f}s  "
        f"measure {seed_measure:.4f}s\n"
        f"  packed engine: build {packed_build:.4f}s  "
        f"measure {packed_measure:.4f}s\n"
        f"  packed, measure_single:   measure {single_measure:.4f}s\n"
        f"  speedup: measure {speedup_measure:.1f}x "
        f"({speedup_single:.1f}x via measure_single), "
        f"build {speedup_build:.1f}x; "
        f"outcomes identical: {identical}\n"
        f"  wrote {out_path}"
    )
    if not identical:
        print("error: outcome streams diverged", file=sys.stderr)
        return 1
    if speedup_measure < SPEEDUP_GATE:
        print(
            f"error: measurement speedup {speedup_measure:.1f}x "
            f"below the {SPEEDUP_GATE:.0f}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
