"""compile-table2: the Table-2 grid, compiled, validated and checked.

The rows are the paper's evaluation grid (``TABLE_BENCHMARKS``: QFT,
QAOA, RCA and BV at 16-100 qubits, circuit seed 7) on the 3-line
resource state, sized as Table 2 sizes them, compiled sequentially with
``map_jobs`` unset.  The grid is fixed by the paper, so every row must
reproduce the committed run table at every workload seed; the workload
seed draws the order in which the rows are compiled.

A timed pass compiles the twelve rows that take at most about a second
each.  QFT-100 and QAOA-100 take several seconds each: too few of them
fit in one run for a steady time on a shared host, so they are compiled
and checked once per run, after the timed passes, and count in the
totals (``depth_total``, ``fusions_total``) but not in the times.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench_common import DEFAULT_SEED, RUN_TABLE, Tally, Workload
from bench_trace import Tracer

Goldens = Dict[str, Tuple[int, int]]
#: rows compiled once per run, untimed (several seconds each)
UNTIMED_ROWS = ("QFT-100", "QAOA-100")


@dataclass
class Row:
    label: str
    circuit: Any
    hardware: Any


def make_inputs(seed: int) -> List[Row]:
    """The Table-2 rows in an order drawn from *seed*."""
    from repro.circuit.benchmarks import get_benchmark
    from repro.eval.experiments import TABLE_BENCHMARKS, _hardware_for
    from repro.hardware.resource_state import THREE_LINE

    rows = [
        Row(
            f"{name}-{qubits}",
            get_benchmark(name, qubits, seed=DEFAULT_SEED),
            _hardware_for(qubits, THREE_LINE),
        )
        for name, qubits in TABLE_BENCHMARKS
    ]
    random.Random(seed).shuffle(rows)
    return rows


def load_goldens(path: Path = RUN_TABLE) -> Goldens:
    """(depth, #fusions) per row label from a committed run table."""
    records = json.loads(path.read_text())["records"]
    return {
        f"{r['benchmark']}-{r['num_qubits']}": (r["depth"], r["num_fusions"])
        for r in records
        if r["seed"] == DEFAULT_SEED and r["resource_state"] == "3-line"
    }


def fingerprint(program: Any) -> Tuple[int, ...]:
    """Every integer the compiler reports; passes must agree exactly."""
    tally = program.fusions
    return (
        program.physical_depth, program.num_fusions, tally.synthesis,
        tally.edge, tally.routing, tally.shuffling, tally.z_measurements,
        program.mapping_layers, program.shuffle_layers,
        program.num_partitions, program.pattern_nodes, program.pattern_edges,
        program.resource_states_used, program.deferred_pairs,
        program.photon_deficit,
    )


class CompileTable2(Workload):
    """Pass = every timed Table-2 row through ``OneQCompiler.compile``
    and ``validate_program``; operation = one row.  The untimed rows go
    the same way once, in :meth:`finish`."""

    name = "compile-table2"

    def __init__(
        self,
        seed: int,
        tally: Tally,
        tracer: Tracer,
        goldens_path: Path = RUN_TABLE,
    ) -> None:
        super().__init__(seed, tally, tracer)
        self.goldens_path = goldens_path
        self.rows: List[Row] = []
        self.untimed_rows: List[Row] = []
        self.goldens: Optional[Goldens] = None
        self.golden_error = ""

    def setup(self) -> None:
        rows = make_inputs(self.seed)
        self.rows = [row for row in rows if row.label not in UNTIMED_ROWS]
        self.untimed_rows = [row for row in rows if row.label in UNTIMED_ROWS]
        try:
            self.goldens = load_goldens(self.goldens_path)
        except (OSError, ValueError, KeyError) as exc:
            self.goldens = None
            self.golden_error = f"golden run table unreadable: {exc}"

    def operations(self) -> List[Tuple[str, Callable[[], Any]]]:
        return [(row.label, partial(compile_row, row)) for row in self.rows]

    def finish(self) -> None:
        """Compile and check the untimed rows once."""
        for row in self.untimed_rows:
            try:
                outcome = compile_row(row)
            except Exception as exc:  # a crashing row fails alone
                self.tally.record(row.label, [f"{type(exc).__name__}: {exc}"])
                continue
            self.tally.record(row.label, self.check(row.label, outcome))

    def check(self, label: str, outcome: Any) -> List[str]:
        """Validity, pass-to-pass identity and the committed goldens (a
        missing golden is a failure, never a skip)."""
        program, (ok, errors) = outcome
        print_ = fingerprint(program)
        problems = [] if ok else [f"validate_program: {errors[0]}"]
        problems.extend(self.same_as_first(label, print_))
        if self.goldens is None:
            problems.append(self.golden_error or "no golden run table")
        elif label not in self.goldens:
            problems.append("row missing from the golden run table")
        elif print_[:2] != self.goldens[label]:
            problems.append(
                f"depth/#fusions {print_[:2]} != golden {self.goldens[label]}"
            )
        return problems


def compile_row(row: Row) -> Tuple[Any, Tuple[bool, List[str]]]:
    import repro.core.validate as validate
    from repro.core.compiler import OneQCompiler, OneQConfig

    program = OneQCompiler(OneQConfig(hardware=row.hardware)).compile(
        row.circuit, name=row.label
    )
    return program, validate.validate_program(program, row.hardware)
