"""The OneQ benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload compile-table2 --seed 7 \
        --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last stdout line is the result JSON
(``correct`` / ``attempted`` / ``failed`` / ``metrics``): with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (spans are also written to
``.perfbench/``).  The exit code is 0 only when every check passed; a
checkout without ``src/repro`` exits 2 before printing a result.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Dict, List, Optional

from bench_common import (
    DEFAULT_SEED,
    END_TO_END,
    Tally,
    emit,
    provenance,
    run_passes,
    source_available,
    write_trace_file,
)
from bench_trace import SPAN_METRICS, Tracer, span_metrics

WORKLOADS = ("compile-table2", "yield-clifford", "serve-mixed")
TRACE_METRICS: Dict[str, str] = {
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}


def per_layer_units() -> Dict[str, str]:
    from workload_serve import SERVE_METRICS

    return {**SPAN_METRICS, **SERVE_METRICS, **TRACE_METRICS}


def build(name: str, seed: int, tally: Tally, tracer: Tracer):
    if name == "compile-table2":
        from workload_compile import CompileTable2

        return CompileTable2(seed, tally, tracer)
    if name == "yield-clifford":
        from workload_yield import YieldClifford

        return YieldClifford(seed, tally, tracer)
    from workload_serve import ServeMixed

    return ServeMixed(seed, tally, tracer)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: perform one set-up (imports + inputs) and exit",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not source_available():
        print(
            "perfbench: no src/repro in this checkout; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2
    tally = Tally()
    tracer = Tracer()
    workload = build(args.workload, args.seed, tally, tracer)
    if args.setup_probe:
        workload.setup()
        return 0
    record = provenance(args.workload, args.seed, bool(args.trace))
    print(json.dumps({"provenance": record}))
    try:
        workload.measure_setup()
        log = run_passes(
            workload.run_pass, args.seconds, tracer if args.trace else None
        )
        workload.finish()
        end_to_end = workload.end_to_end(log.untraced)
        end_to_end["peak_rss_mb"] = workload.peak_rss_mb()
        layers = workload.layer_metrics()
        overhead = workload.trace_overhead_s(log) if args.trace else 0.0
    except Exception:  # a crashed run is reported, not just a traceback
        tally.record("run", [traceback.format_exc()])
        return emit(tally, {})
    finally:
        workload.close()

    notes = [f"passes={len(log.untraced)} untraced, {len(log.traced)} traced"]
    notes.extend(workload.notes)
    if not args.trace:
        metrics = {name: (end_to_end[name], unit) for name, unit in END_TO_END.items()}
        return emit(tally, metrics, notes)

    values = {name: 0.0 for name in per_layer_units()}
    values.update(span_metrics(tracer, len(log.traced)))
    values.update(layers)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / end_to_end["pass_s"]
    path = write_trace_file(
        f"trace-{args.workload}-seed{args.seed}.json",
        {
            "provenance": record,
            "untraced_pass_s": log.untraced,
            "traced_pass_s": log.traced,
            **tracer.to_json(),
        },
    )
    notes.append(f"spans: {path.relative_to(path.parent.parent)}")
    units = per_layer_units()
    return emit(tally, {name: (values[name], units[name]) for name in units}, notes)


if __name__ == "__main__":
    sys.exit(main())
