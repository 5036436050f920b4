"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``compile``  — compile a benchmark (or QASM file) with OneQ and print
  metrics and optionally the layer layouts;
* ``baseline`` — run the baseline cluster-state interpreter;
* ``table1`` / ``table2`` / ``fig12`` / ``fig13`` / ``fig14`` /
  ``fig15`` / ``ablation`` / ``noise-sweep`` / ``degrade-sweep`` —
  render the paper's tables and figures, and the Monte-Carlo yield and
  hardware-degradation survival sweeps, from the committed run tables
  under ``benchmarks/`` (Table 1 is static) and check the claims on
  them (for ``degrade-sweep``, the recovery gate); they compile
  nothing;
* ``bench``    — run one exhibit's grid (``--grid``, default Table 2;
  multiprocessing + on-disk cache), persist its run table and check
  its claims;
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
        check_claims,
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
    status = 0
    if args.verify and any(r.verified is False for r in records):
        print("error: verification failed for at least one run", file=sys.stderr)
        status = 1
    # --quick runs part of Table 2, whose claims need every row
    failures = [] if args.quick else check_claims(args.grid, records)
    for failure in failures:
        print(f"error: claim: {failure}", file=sys.stderr)
    return 1 if failures else status


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
        "noise-sweep", "degrade-sweep",
    ):
        sub.add_parser(
            which,
            help="render the paper's Table 1 (static)" if which == "table1"
            else f"render {which} from benchmarks/ and check its claims",
        )

    p = sub.add_parser(
        "bench",
        help="run one exhibit's grid, persist its run table and check "
        "its claims",
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
        "fig13, fig14, fig15, ablation (writes <grid>.json), noise-sweep "
        "or degrade-sweep (writes noise_sweep.json / degrade_sweep.json)",
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
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "serve":
        return cmd_serve(args)
    return cmd_exhibit(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
