"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``compile``  — compile a benchmark (or QASM file) with OneQ and print
  metrics and optionally the layer layouts;
* ``baseline`` — run the baseline cluster-state interpreter;
* ``table1`` / ``table2`` / ``fig12`` / ``fig13`` / ``fig14`` /
  ``fig15`` / ``ablation`` — render the paper's tables and figures from
  the committed run tables under ``benchmarks/`` (Table 1 is static)
  and check the paper's claims on them; they compile nothing;
* ``bench``    — batch-compile one exhibit's grid (``--grid``, default
  Table 2; multiprocessing + on-disk cache) and persist its run table;
* ``noise-sweep`` — Monte-Carlo yield sweep across noise-model and
  resource-state coordinates (``noise_sweep`` run table);
* ``degrade-sweep`` — hardware-degradation survival sweep: per-site
  scenarios x recovery policies (``degrade_sweep`` run table;
  ``--check-recovery`` gates on the ladder actually rescuing and on
  Monte-Carlo rows agreeing with the per-site closed form);

Every sweep writes one artifact, the run table (``<stem>.json`` +
``<stem>.csv``).
* ``lint``     — statically lint a compiled measurement pattern (flow
  determinism certificate + structural checks; exit 1 on errors);
* ``serve``    — run the long-lived compile server (async socket
  front-end + worker process pool + two-tier artifact store);
* ``export``   — emit a benchmark circuit as OpenQASM 2.0.

Each command imports the layers it runs inside its handler, so parsing
the command line (and ``--help``) loads no compiler, simulator or
server code.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.hardware.coupling import HardwareConfig


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


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "must be at least 1")


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0, "must be a non-negative integer")


def _port(text: str) -> int:
    """A TCP port; 0 asks the OS for an ephemeral one."""
    rule = "must be in [0, 65535]"
    value = _int_at_least(text, 0, rule)
    if value > 65535:
        raise argparse.ArgumentTypeError(f"{rule}, got {value}")
    return value


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
    from repro.circuit.benchmarks import get_benchmark

    try:
        return [get_benchmark(name, qubits, seed=seed) for name in names]
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_circuit(args) -> tuple:
    from repro.circuit.benchmarks import get_benchmark
    from repro.circuit.qasm import from_qasm

    try:
        if args.qasm:
            with open(args.qasm) as handle:
                return from_qasm(handle.read()), args.qasm
        circuit = get_benchmark(args.benchmark, args.qubits, seed=args.seed)
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from exc
    return circuit, f"{args.benchmark}-{args.qubits}"


def _hardware_from(args, num_qubits: int) -> HardwareConfig:
    from repro.baseline.metrics import physical_side
    from repro.hardware.coupling import HardwareConfig
    from repro.hardware.resource_state import get_resource_state

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
    from repro.core.compiler import OneQCompiler, OneQConfig
    from repro.core.render import render_program

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
    from repro.baseline.interpreter import compile_baseline
    from repro.hardware.resource_state import get_resource_state

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
    from repro.circuit.qasm import to_qasm

    circuit, _ = _load_circuit(args)
    text = to_qasm(circuit)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def cmd_exhibit(args) -> int:
    """Render one paper exhibit; compiles nothing.  A compiled exhibit
    renders from its run table under ``benchmarks/`` and then checks
    the paper's claims on it (exit 1 if one fails)."""
    from repro.eval import reporting

    if args.command == "table1":
        from repro.eval.experiments import run_table1

        print(reporting.render_table1(run_table1()))
        return 0

    import pathlib

    from repro.eval.batch import read_run_table
    from repro.eval.experiments import check_claims, exhibit_stem

    path = pathlib.Path("benchmarks") / f"{exhibit_stem(args.command)}.json"
    if not path.exists():
        raise _UsageError(
            f"no run table {path}; write it with "
            f"`repro bench --grid {args.command} --out benchmarks`"
        )
    records = read_run_table(path)
    print(reporting.RENDERERS[args.command](records))
    failures = check_claims(args.command, records)
    for failure in failures:
        print(f"error: claim: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_bench(args) -> int:
    import pathlib

    from repro.eval.batch import render_run_records, render_stage_profile
    from repro.eval.experiments import (
        EXHIBITS,
        TABLE_BENCHMARKS,
        exhibit_stem,
        run_exhibit,
    )
    from repro.eval.reporting import RENDERERS

    if args.grid not in EXHIBITS:
        raise _UsageError(
            f"unknown grid {args.grid!r} (choose from {', '.join(EXHIBITS)})"
        )
    grid = {"seed": args.seed, "verify": args.verify}
    if args.grid == "table2":
        grid["resource_state"] = args.resource_state or "3-line"
        if args.quick:
            grid["benchmarks"] = [b for b in TABLE_BENCHMARKS if b[1] == 16]
    elif args.quick or args.resource_state is not None:
        flag = "--quick" if args.quick else "--resource-state"
        raise _UsageError(f"{flag} applies to --grid table2 only")
    out_dir = pathlib.Path(args.out)
    records = run_exhibit(
        args.grid,
        jobs=args.jobs,
        cache_dir=pathlib.Path(args.cache) if args.cache else None,
        out_dir=out_dir,
        **grid,
    )
    print(render_run_records(records))
    print()
    print(RENDERERS[args.grid](records))
    if args.profile:
        print()
        print(render_stage_profile(records))
    print(f"run table: {out_dir / (exhibit_stem(args.grid) + '.json')}")
    if args.verify and any(r.verified is False for r in records):
        print("error: verification failed for at least one run", file=sys.stderr)
        return 1
    return 0


def cmd_lint(args) -> int:
    if args.concurrency:
        return _lint_concurrency(args)

    from repro.analysis.lint import lint_compiled_program, lint_pattern
    from repro.mbqc.translate import circuit_to_pattern

    circuit, name = _load_circuit(args)
    pattern = circuit_to_pattern(circuit)
    report = lint_pattern(pattern, name=name)
    print(report.render())

    if args.frame:
        from repro.analysis.lint import lint_frame_program
        from repro.sim.frame import FrameProgram
        from repro.sim.pattern_sim import pattern_is_clifford
        from repro.sim.stabilizer import circuit_stabilizer_rows

        if not pattern_is_clifford(pattern):
            print(f"{name}: frame lint skipped (non-Clifford pattern)")
        else:
            frame = FrameProgram.compile(
                pattern, circuit_stabilizer_rows(circuit)
            )
            frame_report = lint_frame_program(
                frame, pattern, name=f"{name} (frame program)"
            )
            print(frame_report.render())
            report.extend(frame_report)

    if args.compile:
        from repro.core.compiler import OneQCompiler, OneQConfig

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


def cmd_noise_sweep(args) -> int:
    import pathlib

    from repro.eval.batch import render_run_records
    from repro.eval.experiments import run_noise_sweep
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
    records = run_noise_sweep(
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
    )
    print(render_run_records(records))
    print(f"run table: {out_dir / (args.stem + '.json')}")
    return 0


def cmd_degrade_sweep(args) -> int:
    import pathlib

    from repro.eval.degrade import (
        DEGRADE_SEVERITIES,
        check_recovery,
        run_degrade_sweep,
        summarize_survival,
    )
    from repro.eval.reporting import render_survival_table

    grid_flags = {
        "--benchmarks": args.benchmarks,
        "--qubits": args.qubits,
        "--severities": args.severities,
        "--shots": args.shots,
    }
    if args.quick:
        given = [flag for flag, value in grid_flags.items() if value is not None]
        if given:
            raise _UsageError(
                f"--quick sets the grid; drop {', '.join(given)}"
            )
        benchmarks = [("BV", 8)]
        severities = [0.0, 0.1, 0.3]
        shots = 0
    else:
        names = args.benchmarks or ["BV", "QFT"]
        qubits = args.qubits or 8
        _sweep_circuits(names, qubits, args.seed)
        benchmarks = [(name, qubits) for name in names]
        severities = args.severities or list(DEGRADE_SEVERITIES)
        shots = args.shots or 0
    out_dir = pathlib.Path(args.out)
    records = run_degrade_sweep(
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
    )
    summary = summarize_survival(records)
    print(render_survival_table(records))
    print(
        f"\n{len(records)} rows: "
        f"{summary['survive_failures']} survive collapse(s), "
        f"{summary['reroute_rescues']} reroute rescue(s), "
        f"{summary['recompile_rescues']} recompile rescue(s), "
        f"{len(summary['unrecovered'])} unrecovered"
    )
    print(f"run table: {out_dir / (args.stem + '.json')}")
    status = 0
    if args.check_recovery:
        failures = check_recovery(records, shots=shots)
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
        p.add_argument("--qubits", type=_positive_int, default=16)
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
        sub.add_parser(
            which,
            help="render the paper's Table 1 (static)" if which == "table1"
            else f"render {which} from benchmarks/ and check its claims",
        )

    p = sub.add_parser(
        "bench", help="batch-compile one exhibit's grid, persist run table"
    )
    p.add_argument(
        "--jobs", type=_positive_int, default=None, help="worker processes"
    )
    p.add_argument(
        "--out", default="benchmarks/results", help="artifact directory"
    )
    p.add_argument("--cache", default=None, help="on-disk result cache dir")
    p.add_argument(
        "--grid", default="table2",
        help="exhibit to run: table2 (writes run_table.json), fig12, "
        "fig13, fig14, fig15 or ablation (writes <grid>.json)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--resource-state", default=None,
        choices=["3-line", "4-line", "4-star", "4-ring"],
        help="table2 only (default 3-line)",
    )
    p.add_argument(
        "--quick", action="store_true", help="table2's 16-qubit rows only"
    )
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
        "--port", type=_port, default=7711,
        help="TCP port (0 binds an ephemeral port)",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=None,
        help="compile worker processes (default: min(4, cpu_count))",
    )
    p.add_argument("--cache", default=None, help="artifact store disk dir")
    p.add_argument(
        "--mem-capacity", type=_non_negative_int, default=256,
        help="in-memory LRU tier capacity (artifacts; 0 runs disk-only)",
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
    p.add_argument("--qubits", type=_positive_int, default=16)
    p.add_argument(
        "--shots", type=_non_negative_int, default=2000,
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
    p.add_argument(
        "--jobs", type=_positive_int, default=None, help="worker processes"
    )
    p.add_argument(
        "--out", default="benchmarks/results", help="artifact directory"
    )
    p.add_argument("--cache", default=None, help="on-disk result cache dir")
    p.add_argument("--stem", default="noise_sweep", help="run-table stem")
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser(
        "degrade-sweep",
        help="hardware-degradation survival sweep: per-site noise "
        "scenarios (dead generators, loss gradients/hotspots, detuned "
        "fusion) x recovery policies (survive/reroute/recompile); "
        "prints survival tables and writes the degrade_sweep run table",
    )
    p.add_argument(
        "--benchmarks", nargs="+", default=None,
        help="benchmark names to sweep (QFT|QAOA|RCA|BV; default BV QFT)",
    )
    p.add_argument(
        "--qubits", type=_positive_int, default=None, help="default 8"
    )
    p.add_argument(
        "--scenarios", nargs="+",
        default=["dead-rsg", "loss-gradient", "loss-hotspot",
                 "degraded-fusion"],
        choices=["dead-rsg", "loss-gradient", "loss-hotspot",
                 "degraded-fusion"],
        help="degradation scenarios to sweep",
    )
    p.add_argument(
        "--severities", type=_probability, nargs="+", default=None,
        help="scenario severities in [0, 1] (0 = pristine control row; "
        "default 0 0.05 0.1 0.2 0.3)",
    )
    p.add_argument(
        "--policies", nargs="+",
        default=["survive", "reroute", "recompile"],
        choices=["survive", "reroute", "recompile", "auto"],
        help="recovery policies to evaluate per scenario point "
        "('auto' walks the ladder and records the winner)",
    )
    p.add_argument(
        "--shots", type=_non_negative_int, default=None,
        help="Monte-Carlo shots sampling the recovered program under "
        "the per-site map (default 0 = analytic-only; Clifford "
        "benchmarks only)",
    )
    p.add_argument(
        "--jobs", type=_positive_int, default=None, help="worker processes"
    )
    p.add_argument(
        "--out", default="benchmarks/results", help="artifact directory"
    )
    p.add_argument("--cache", default=None, help="on-disk result cache dir")
    p.add_argument("--stem", default="degrade_sweep", help="run-table stem")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--quick", action="store_true",
        help="smoke grid: BV-8, severities 0/0.1/0.3, no shots "
        "(not combinable with --benchmarks, --qubits, --severities "
        "or --shots)",
    )
    p.add_argument(
        "--check-recovery", action="store_true",
        help="exit 1 unless the sweep shows survive collapsing and "
        "both reroute and recompile rescuing at least one scenario, "
        "with every severity-0 row recovered; with --shots, every "
        "Monte-Carlo row must also sample the scored program and lie "
        "no more than 3 sigma below its per-site analytic yield",
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
    return cmd_exhibit(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
