"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``compile``  — compile a benchmark (or QASM file) with OneQ and print
  metrics and optionally the layer layouts;
* ``baseline`` — run the baseline cluster-state interpreter;
* ``table1`` / ``table2`` / ``fig12`` / ``fig13`` / ``fig14`` /
  ``fig15`` / ``ablation`` — regenerate the paper's tables and figures;
* ``bench``    — batch-compile the Table-2 grid (multiprocessing +
  on-disk cache) and persist run-table / BENCH artifacts;
* ``noise-sweep`` — Monte-Carlo yield sweep across noise-model and
  resource-state coordinates (``BENCH_noise_sweep.json`` artifact);
* ``degrade-sweep`` — hardware-degradation survival sweep: per-site
  scenarios x recovery policies (``BENCH_degradation.json`` artifact;
  ``--check-recovery`` gates on the ladder actually rescuing);
* ``lint``     — statically lint a compiled measurement pattern (flow
  determinism certificate + structural checks; exit 1 on errors);
* ``serve``    — run the long-lived compile server (async socket
  front-end + worker process pool + two-tier artifact store);
* ``loadgen``  — drive a compile server with closed-loop load cells
  and persist the serving table (``serving_table.csv`` +
  ``BENCH_<label>.json``); ``--spawn`` hosts a throwaway server
  in-process first;
* ``export``   — emit a benchmark circuit as OpenQASM 2.0.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.baseline import compile_baseline, physical_side
from repro.circuit import get_benchmark
from repro.circuit.qasm import from_qasm, to_qasm
from repro.core import OneQCompiler, OneQConfig, render_program
from repro.hardware import HardwareConfig, get_resource_state


def _add_hardware_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=int, default=None, help="RSG rows")
    parser.add_argument("--cols", type=int, default=None, help="RSG cols")
    parser.add_argument(
        "--resource-state",
        default="3-line",
        choices=["3-line", "4-line", "4-star", "4-ring"],
    )
    parser.add_argument("--extension", type=int, default=1)
    parser.add_argument("--max-delay", type=int, default=2)


class _UsageError(Exception):
    """Invalid command-line input; :func:`main` reports it as a usage
    error (exit 2, one line) instead of a traceback."""


def _int_at_least(text: str, minimum: int, rule: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"{rule}, got {value}")
    return value


def _qubit_count(text: str) -> int:
    return _int_at_least(text, 1, "must be at least 1")


def _shot_count(text: str) -> int:
    return _int_at_least(text, 0, "must be a non-negative integer")


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _sweep_circuits(names: List[str], qubits: int, seed: int) -> list:
    """Build every swept benchmark up front, so a bad name or size is a
    usage error instead of a failed sweep."""
    try:
        return [get_benchmark(name, qubits, seed=seed) for name in names]
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_circuit(args) -> tuple:
    try:
        if args.qasm:
            with open(args.qasm) as handle:
                return from_qasm(handle.read()), args.qasm
        circuit = get_benchmark(args.benchmark, args.qubits, seed=args.seed)
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from exc
    return circuit, f"{args.benchmark}-{args.qubits}"


def _hardware_from(args, num_qubits: int) -> HardwareConfig:
    rst = get_resource_state(args.resource_state)
    rows = args.rows
    cols = args.cols
    if rows is None and cols is None:
        side = physical_side(num_qubits, rst)
        rows = cols = side
    elif rows is None or cols is None:
        rows = cols = rows or cols
    try:
        hardware = HardwareConfig(
            rows=rows,
            cols=cols,
            resource_state=rst,
            extension=args.extension,
            max_delay=args.max_delay,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if min(hardware.extended_shape) < 2:
        shape = "x".join(map(str, hardware.extended_shape))
        raise _UsageError(f"the extended layer ({shape}) must be at least 2x2")
    return hardware


def cmd_compile(args) -> int:
    circuit, name = _load_circuit(args)
    hardware = _hardware_from(args, circuit.num_qubits)
    compiler = OneQCompiler(OneQConfig(hardware=hardware))
    program = compiler.compile(circuit, name=name)
    if args.layout:
        print(render_program(program, max_layers=args.layout))
    else:
        print(program.summary())
    return 0


def cmd_baseline(args) -> int:
    circuit, name = _load_circuit(args)
    result = compile_baseline(
        circuit, name=name, resource_state=get_resource_state(args.resource_state)
    )
    print(
        f"{name}: depth={result.depth} fusions={result.num_fusions:,} "
        f"cluster={result.areas.cluster_side}x{result.areas.cluster_side} "
        f"physical={result.areas.physical_side}x{result.areas.physical_side} "
        f"swaps={result.swap_count}"
    )
    return 0


def cmd_export(args) -> int:
    circuit, _ = _load_circuit(args)
    text = to_qasm(circuit)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


#: ``--quick`` restricts figure sweeps to the cheapest/most contrasting
#: benchmark pair (QFT worst case, BV best case).
_QUICK_FIG_BENCHMARKS = ("QFT", "BV")


def cmd_table(args, which: str) -> int:
    from repro import eval as evaluation

    quick = getattr(args, "quick", False)
    fig_benchmarks = (
        _QUICK_FIG_BENCHMARKS if quick else ("QFT", "QAOA", "RCA", "BV")
    )
    if which == "table1":
        print(evaluation.render_table1(evaluation.run_table1()))
    elif which == "table2":
        benchmarks = None
        if quick:
            benchmarks = [("QFT", 16), ("QAOA", 16), ("RCA", 16), ("BV", 16)]
        print(evaluation.render_table2(evaluation.run_table2(benchmarks)))
    elif which == "fig12":
        print(
            evaluation.render_fig12(
                evaluation.run_fig12(
                    num_qubits=args.qubits, benchmarks=fig_benchmarks
                )
            )
        )
    elif which == "fig13":
        print(
            evaluation.render_fig13(
                evaluation.run_fig13(
                    num_qubits=args.qubits, benchmarks=fig_benchmarks
                )
            )
        )
    elif which == "fig14":
        print(evaluation.render_fig14(evaluation.run_fig14(num_qubits=args.qubits)))
    elif which == "fig15":
        print(
            evaluation.render_fig15(
                evaluation.run_fig15(
                    num_qubits=args.qubits, benchmarks=fig_benchmarks
                )
            )
        )
    elif which == "ablation":
        print(
            evaluation.render_ablation(
                evaluation.run_ablation(num_qubits=args.qubits)
            )
        )
    return 0


def cmd_bench(args) -> int:
    import pathlib

    from repro import eval as evaluation

    benchmarks = None
    if args.quick:
        benchmarks = [("QFT", 16), ("QAOA", 16), ("RCA", 16), ("BV", 16)]
    out_dir = pathlib.Path(args.out)
    cache_dir = pathlib.Path(args.cache) if args.cache else None
    records = evaluation.run_grid(
        benchmarks=benchmarks,
        jobs=args.jobs,
        cache_dir=cache_dir,
        out_dir=out_dir,
        stem=args.stem,
        seed=args.seed,
        resource_state=args.resource_state,
        verify=args.verify,
    )
    reference = None
    if args.reference:
        import json

        ref_path = pathlib.Path(args.reference)
        if not ref_path.exists():
            print(f"error: reference file not found: {ref_path}", file=sys.stderr)
            return 2
        payload = json.loads(ref_path.read_text())
        reference = payload.get("runs", payload)
    bench_path = evaluation.write_bench_json(
        records,
        out_dir / f"BENCH_{args.label}.json",
        label=args.label,
        reference=reference,
    )
    print(evaluation.render_run_records(records))
    if args.profile:
        print()
        print(evaluation.render_stage_profile(records))
    print(f"run table: {out_dir / (args.stem + '.json')}")
    print(f"bench:     {bench_path}")
    if args.verify and any(r.verified is False for r in records):
        print("error: verification failed for at least one run", file=sys.stderr)
        return 1
    return 0


def cmd_lint(args) -> int:
    if args.concurrency:
        return _lint_concurrency(args)

    from repro.analysis import lint_compiled_program, lint_pattern
    from repro.mbqc.translate import circuit_to_pattern

    circuit, name = _load_circuit(args)
    pattern = circuit_to_pattern(circuit)
    report = lint_pattern(pattern, name=name)
    print(report.render())

    if args.frame:
        from repro.analysis import lint_frame_program
        from repro.sim.pattern_sim import pattern_is_clifford
        from repro.sim.stabilizer import StabilizerState

        if not pattern_is_clifford(pattern):
            print(f"{name}: frame lint skipped (non-Clifford pattern)")
        else:
            circuit_state = StabilizerState(circuit.num_qubits)
            circuit_state.apply_circuit(circuit)
            from repro.sim.frame import FrameProgram

            _, index = StabilizerState.graph_state(
                pattern.graph, zero_nodes=pattern.inputs
            )
            frame = FrameProgram.compile(
                pattern, circuit_state.stabilizer_rows(), index
            )
            frame_report = lint_frame_program(
                frame, pattern, name=f"{name} (frame program)"
            )
            print(frame_report.render())
            report.extend(frame_report)

    if args.compile:
        hardware = _hardware_from(args, circuit.num_qubits)
        compiler = OneQCompiler(OneQConfig(hardware=hardware))
        program = compiler.compile_pattern(
            pattern, name=name, num_qubits=circuit.num_qubits
        )
        program_report = lint_compiled_program(
            program, hardware, name=f"{name} (compiled program)"
        )
        print(program_report.render())
        report.extend(program_report)

    return 0 if report.ok else 1


def _lint_concurrency(args) -> int:
    import pathlib

    import repro
    from repro.analysis.concurrency import (
        ConcurrencyAnalyzer,
        render_findings,
    )

    paths = [pathlib.Path(p) for p in args.paths] or [
        pathlib.Path(repro.__file__).resolve().parent
    ]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {missing[0]}", file=sys.stderr)
        return 2
    analyzer = ConcurrencyAnalyzer()
    analyzer.add_paths(paths)
    findings = analyzer.analyze()
    if findings:
        print(render_findings(findings))
        return 1
    edges = analyzer.lock_order_edges()
    # the static acquisition order the runtime sanitizer cross-checks
    if edges:
        print("static lock-order edges:")
        for (outer, inner), (path, line) in sorted(edges.items()):
            print(f"  {outer} -> {inner}  ({path}:{line})")
    else:
        print("static lock-order graph: no nested acquisitions")
    scanned = ", ".join(str(p) for p in paths)
    print(
        f"concurrency lint clean: {scanned} "
        f"({len(edges)} static lock-order edge(s), no findings)"
    )
    return 0


def cmd_serve(args) -> int:
    from repro.serve.server import run_server

    return run_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache,
        memory_capacity=args.mem_capacity,
    )


def cmd_loadgen(args) -> int:
    import pathlib

    from repro.serve.loadgen import (
        render_cells,
        run_load,
        write_serving_table,
    )
    from repro.serve.store import atomic_write_json

    handle = None
    host, port = args.host, args.port
    if args.spawn:
        from repro.serve.server import ServerThread

        handle = ServerThread(
            workers=args.workers, cache_dir=args.cache
        ).start()
        host, port = handle.host, handle.port
        print(f"spawned server on {host}:{port}")
    elif port is None:
        print("error: --port is required without --spawn", file=sys.stderr)
        return 2
    try:
        cells = run_load(
            host, port, args.workloads, args.concurrency, args.requests
        )
    finally:
        if handle is not None:
            handle.stop()
    print(render_cells(cells))
    out_dir = pathlib.Path(args.out)
    json_path, csv_path = write_serving_table(
        cells,
        out_dir,
        stem=args.stem,
        meta={
            "requests_per_cell": args.requests,
            "workloads": list(args.workloads),
            "concurrency": list(args.concurrency),
            "spawned": bool(args.spawn),
        },
    )
    bench_path = out_dir / f"BENCH_{args.label}.json"
    atomic_write_json(
        bench_path,
        {
            "schema_version": 1,
            "label": args.label,
            "cells": [cell.row() for cell in cells],
        },
    )
    print(f"serving table: {json_path}")
    print(f"serving csv:   {csv_path}")
    print(f"bench:         {bench_path}")
    failed = [cell for cell in cells if cell.failure_rate > 0]
    if failed:
        for cell in failed:
            print(
                f"error: {cell.workload} x{cell.concurrency}: "
                f"failure_rate={cell.failure_rate:.3f} "
                f"({'; '.join(cell.errors[:3])})",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_noise_sweep(args) -> int:
    import pathlib

    from repro import eval as evaluation
    from repro.sim.stabilizer import circuit_is_clifford

    circuits = _sweep_circuits(args.benchmarks, args.qubits, args.seed)
    if (
        args.shots
        and 0.0 in args.fusion_success
        and any(map(circuit_is_clifford, circuits))
    ):
        raise _UsageError(
            "--fusion-success 0 cannot be sampled (repeat-until-success "
            "never terminates); use --shots 0 for the closed form only"
        )
    benchmarks = [(name, args.qubits) for name in args.benchmarks]
    out_dir = pathlib.Path(args.out)
    records = evaluation.run_noise_sweep(
        benchmarks=benchmarks,
        fusion_success=args.fusion_success,
        cycle_loss=args.cycle_loss,
        resource_states=args.resource_state,
        shots=args.shots,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=pathlib.Path(args.cache) if args.cache else None,
        out_dir=out_dir,
        stem=args.stem,
        label=args.label,
    )
    print(evaluation.render_run_records(records))
    print(f"run table: {out_dir / (args.stem + '.json')}")
    print(f"sweep:     {out_dir / ('BENCH_' + args.label + '.json')}")
    return 0


def cmd_degrade_sweep(args) -> int:
    import pathlib

    from repro import eval as evaluation

    if args.quick:
        benchmarks = [("BV", 8)]
        severities = [0.0, 0.1, 0.3]
        shots = 0
    else:
        _sweep_circuits(args.benchmarks, args.qubits, args.seed)
        benchmarks = [(name, args.qubits) for name in args.benchmarks]
        severities = args.severities
        shots = args.shots
    out_dir = pathlib.Path(args.out)
    records = evaluation.run_degrade_sweep(
        benchmarks=benchmarks,
        scenarios=args.scenarios,
        severities=severities,
        policies=args.policies,
        shots=shots,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=pathlib.Path(args.cache) if args.cache else None,
        out_dir=out_dir,
        stem=args.stem,
        label=args.label,
    )
    print(evaluation.render_survival_table(records))
    print(f"run table: {out_dir / (args.stem + '.json')}")
    print(f"survival:  {out_dir / ('BENCH_' + args.label + '.json')}")
    status = 0
    if args.check_recovery:
        failures = evaluation.check_recovery(records)
        for failure in failures:
            print(f"error: recovery gate: {failure}", file=sys.stderr)
        if failures:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OneQ photonic one-way compilation framework (ISCA'23 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd in ("compile", "baseline", "export", "lint"):
        p = sub.add_parser(
            cmd,
            help=(
                "statically lint the compiled measurement pattern "
                "(structural checks + flow determinism certificate); "
                "exit 1 on any error"
                if cmd == "lint" else None
            ),
        )
        p.add_argument("--benchmark", default="QFT", help="QFT|QAOA|RCA|BV")
        p.add_argument("--qubits", type=_qubit_count, default=16)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--qasm", help="compile a QASM file instead")
        if cmd == "lint":
            _add_hardware_args(p)
            p.add_argument(
                "--frame", action="store_true",
                help="also compile and lint the bit-packed frame program "
                "(Clifford patterns only)",
            )
            p.add_argument(
                "--compile", action="store_true",
                help="also run the OneQ compiler and lint the compiled "
                "program's photon/fusion budgets and hardware mapping",
            )
            p.add_argument(
                "--concurrency", action="store_true",
                help="lint the repo's own source for concurrency defects "
                "(lock discipline, async blocking, lock-order cycles, "
                "resource leaks) instead of linting a circuit",
            )
            p.add_argument(
                "paths", nargs="*", default=[],
                help="files/dirs for --concurrency (default: the "
                "installed repro package)",
            )
        elif cmd == "compile":
            _add_hardware_args(p)
            p.add_argument(
                "--layout", type=int, default=0,
                help="print the first N layer layouts",
            )
        elif cmd == "baseline":
            p.add_argument(
                "--resource-state", default="3-line",
                choices=["3-line", "4-line", "4-star", "4-ring"],
            )
        else:
            p.add_argument("--output", help="write QASM here")

    for which in (
        "table1", "table2", "fig12", "fig13", "fig14", "fig15", "ablation",
    ):
        p = sub.add_parser(which)
        p.add_argument("--qubits", type=int, default=16)
        # only offer --quick where it actually changes the run: table1
        # is already cheap, fig14/ablation run a single benchmark
        if which == "table2":
            p.add_argument(
                "--quick", action="store_true", help="16-qubit rows only"
            )
        elif which in ("fig12", "fig13", "fig15"):
            p.add_argument(
                "--quick", action="store_true", help="QFT+BV benchmarks only"
            )

    p = sub.add_parser(
        "bench", help="batch-compile the Table-2 grid, persist run table"
    )
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
    p.add_argument(
        "--out", default="benchmarks/results", help="artifact directory"
    )
    p.add_argument("--cache", default=None, help="on-disk result cache dir")
    p.add_argument("--stem", default="run_table", help="artifact file stem")
    p.add_argument("--label", default="run", help="BENCH_<label>.json name")
    p.add_argument(
        "--reference", default=None,
        help="earlier BENCH_*.json to compute speedups against",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--resource-state", default="3-line",
        choices=["3-line", "4-line", "4-star", "4-ring"],
    )
    p.add_argument("--quick", action="store_true", help="16-qubit rows only")
    p.add_argument(
        "--verify", action="store_true",
        help="semantically verify each compiled pattern against its "
        "circuit (stabilizer engine for Clifford patterns, dense "
        "simulator for small ones)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="print the per-stage (translate/schedule/partition/map/"
        "shuffle/verify) timing breakdown",
    )

    p = sub.add_parser(
        "serve",
        help="run the compile server: accepts circuits (library spec or "
        "QASM) over a length-prefixed JSON socket protocol, compiles on "
        "a worker process pool, caches artifacts in a two-tier "
        "(memory LRU + disk) store",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=7711,
        help="TCP port (0 binds an ephemeral port)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="compile worker processes (default: min(4, cpu_count))",
    )
    p.add_argument("--cache", default=None, help="artifact store disk dir")
    p.add_argument(
        "--mem-capacity", type=int, default=256,
        help="in-memory LRU tier capacity (artifacts)",
    )

    p = sub.add_parser(
        "loadgen",
        help="drive a compile server with (workload x concurrency) "
        "closed-loop load cells and persist the serving table "
        "(throughput_rps / avg / p95 latency / failure_rate / "
        "cache_hit_rate per cell); exit 1 when any cell records "
        "failures",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=None,
        help="server port (required unless --spawn)",
    )
    p.add_argument(
        "--spawn", action="store_true",
        help="host a throwaway in-process server on an ephemeral port "
        "for the duration of the run",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the spawned server",
    )
    p.add_argument(
        "--cache", default=None, help="cache dir for the spawned server"
    )
    p.add_argument(
        "--workloads", nargs="+",
        default=["hot-qft16", "mixed-16"],
        choices=["hot-qft16", "mixed-16", "cold-seeds", "qasm-bv12"],
        help="workload generators to sweep",
    )
    p.add_argument(
        "--concurrency", type=int, nargs="+", default=[1, 4],
        help="closed-loop client counts to sweep",
    )
    p.add_argument(
        "--requests", type=int, default=50,
        help="measured requests per cell",
    )
    p.add_argument(
        "--out", default="benchmarks/results", help="artifact directory"
    )
    p.add_argument("--stem", default="serving_table", help="table file stem")
    p.add_argument(
        "--label", default="serving", help="BENCH_<label>.json name"
    )

    p = sub.add_parser(
        "noise-sweep",
        help="Monte-Carlo yield sweep across noise and hardware "
        "coordinates (Clifford benchmarks sample on the stabilizer "
        "engine; others report the analytic yield only)",
    )
    p.add_argument(
        "--benchmarks", nargs="+", default=["QFT", "QAOA", "RCA", "BV"],
        help="benchmark names to sweep (QFT|QAOA|RCA|BV)",
    )
    p.add_argument("--qubits", type=_qubit_count, default=16)
    p.add_argument(
        "--shots", type=_shot_count, default=2000,
        help="Monte-Carlo shots per noise point (>=2000 recommended)",
    )
    p.add_argument(
        "--fusion-success", type=_probability, nargs="+",
        default=[0.5, 0.75],
        help="fusion success probabilities to sweep (0.5 bare, "
        "0.75 boosted)",
    )
    p.add_argument(
        "--cycle-loss", type=_probability, nargs="+",
        default=[0.001, 0.01],
        help="per-photon per-clock-cycle delay-line loss probabilities",
    )
    p.add_argument(
        "--resource-state", nargs="+", default=["3-line"],
        choices=["3-line", "4-line", "4-star", "4-ring"],
        help="resource-state types to sweep",
    )
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
    p.add_argument(
        "--out", default="benchmarks/results", help="artifact directory"
    )
    p.add_argument("--cache", default=None, help="on-disk result cache dir")
    p.add_argument("--stem", default="noise_sweep", help="run-table stem")
    p.add_argument(
        "--label", default="noise_sweep", help="BENCH_<label>.json name"
    )
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser(
        "degrade-sweep",
        help="hardware-degradation survival sweep: per-site noise "
        "scenarios (dead generators, loss gradients/hotspots, detuned "
        "fusion) x recovery policies (survive/reroute/recompile); "
        "writes run-table + BENCH_degradation.json survival artifacts",
    )
    p.add_argument(
        "--benchmarks", nargs="+", default=["BV", "QFT"],
        help="benchmark names to sweep (QFT|QAOA|RCA|BV)",
    )
    p.add_argument("--qubits", type=_qubit_count, default=8)
    p.add_argument(
        "--scenarios", nargs="+",
        default=["dead-rsg", "loss-gradient", "loss-hotspot",
                 "degraded-fusion"],
        choices=["dead-rsg", "loss-gradient", "loss-hotspot",
                 "degraded-fusion"],
        help="degradation scenarios to sweep",
    )
    p.add_argument(
        "--severities", type=_probability, nargs="+",
        default=[0.0, 0.05, 0.1, 0.2, 0.3],
        help="scenario severities in [0, 1] (0 = pristine control row)",
    )
    p.add_argument(
        "--policies", nargs="+",
        default=["survive", "reroute", "recompile"],
        choices=["survive", "reroute", "recompile", "auto"],
        help="recovery policies to evaluate per scenario point "
        "('auto' walks the ladder and records the winner)",
    )
    p.add_argument(
        "--shots", type=_shot_count, default=0,
        help="Monte-Carlo shots sampling the recovered program under "
        "the per-site map (0 = analytic-only; Clifford benchmarks "
        "only)",
    )
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
    p.add_argument(
        "--out", default="benchmarks/results", help="artifact directory"
    )
    p.add_argument("--cache", default=None, help="on-disk result cache dir")
    p.add_argument("--stem", default="degrade_sweep", help="run-table stem")
    p.add_argument(
        "--label", default="degradation", help="BENCH_<label>.json name"
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--quick", action="store_true",
        help="CI smoke grid: BV-8, severities 0/0.1/0.3, no shots",
    )
    p.add_argument(
        "--check-recovery", action="store_true",
        help="exit 1 unless the sweep shows survive collapsing and "
        "both reroute and recompile rescuing at least one scenario, "
        "with every severity-0 row recovered",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except _UsageError as exc:
        parser.error(f"{args.command}: {exc}")


def _run(args) -> int:
    if args.command == "compile":
        return cmd_compile(args)
    if args.command == "baseline":
        return cmd_baseline(args)
    if args.command == "export":
        return cmd_export(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "noise-sweep":
        return cmd_noise_sweep(args)
    if args.command == "degrade-sweep":
        return cmd_degrade_sweep(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "loadgen":
        return cmd_loadgen(args)
    return cmd_table(args, args.command)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
