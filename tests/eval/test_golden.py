"""Golden-range regression tests for headline metrics.

The compiler is deterministic, but exact counts move with any heuristic
tweak; these tests pin *ranges* wide enough to survive small heuristic
changes while catching structural regressions (an order-of-magnitude
blowup in fusions, shuffle explosion, depth regressions).
``TestTable2Exact`` pins the 16- and 25-qubit Table-2 rows exactly to
the committed ``benchmarks/run_table.json``.

Measured values at time of writing (see EXPERIMENTS.md):
  BV-16:   depth 2,   fusions 38
  QAOA-16: depth ~38, fusions ~2300
  QFT-16:  depth ~76, fusions ~6000
"""

import json
from pathlib import Path

import pytest

from repro.circuit.benchmarks import get_benchmark
from repro.core.compiler import OneQCompiler, OneQConfig
from repro.eval import compare_one
from repro.eval.experiments import _hardware_for
from repro.hardware.resource_state import THREE_LINE


@pytest.fixture(scope="module")
def rows():
    return {
        name: compare_one(name, 16) for name in ("QFT", "QAOA", "RCA", "BV")
    }


class TestGoldenRanges:
    def test_bv16(self, rows):
        oneq = rows["BV"].oneq
        assert 1 <= oneq.physical_depth <= 4
        assert 20 <= oneq.num_fusions <= 120

    def test_qaoa16(self, rows):
        oneq = rows["QAOA"].oneq
        assert 15 <= oneq.physical_depth <= 90
        assert 800 <= oneq.num_fusions <= 6000

    def test_rca16(self, rows):
        oneq = rows["RCA"].oneq
        assert 15 <= oneq.physical_depth <= 80
        assert 800 <= oneq.num_fusions <= 6000

    def test_qft16(self, rows):
        oneq = rows["QFT"].oneq
        assert 40 <= oneq.physical_depth <= 180
        assert 2500 <= oneq.num_fusions <= 15000

    def test_improvement_orders_of_magnitude(self, rows):
        for name, row in rows.items():
            assert row.depth_improvement > 20, name
            assert row.fusion_improvement > 50, name

    def test_baseline_depths_stable(self, rows):
        assert 2000 <= rows["QFT"].baseline.depth <= 6000
        assert 150 <= rows["BV"].baseline.depth <= 600

    def test_shuffle_not_dominating_bv(self, rows):
        """BV is one partition: shuffling must stay negligible."""
        t = rows["BV"].oneq.fusions
        assert t.shuffling <= t.edge + t.synthesis

    def test_oneq_absolute_values_near_paper(self, rows):
        """Sanity: our compiler lands in the paper's output range."""
        assert rows["QFT"].oneq.physical_depth <= 2 * 83   # paper: 83
        assert rows["QAOA"].oneq.num_fusions <= 3 * 2578   # paper: 2578
        assert rows["BV"].oneq.num_fusions <= 3 * 63       # paper: 63


RUN_TABLE = Path(__file__).resolve().parents[2] / "benchmarks" / "run_table.json"
EXACT_ROWS = [
    (name, qubits) for name in ("QFT", "QAOA", "RCA", "BV") for qubits in (16, 25)
]
EXACT_FIELDS = (
    "depth", "num_fusions", "num_partitions", "mapping_layers",
    "shuffle_layers",
)


@pytest.fixture(scope="module")
def committed_rows():
    records = json.loads(RUN_TABLE.read_text())["records"]
    return {
        (r["benchmark"], r["num_qubits"]): r
        for r in records
        if r["seed"] == 7 and r["resource_state"] == "3-line"
    }


class TestTable2Exact:
    """The paper's headline numbers, exactly as the committed run table
    records them (seed 7, 3-line resource state)."""

    @pytest.mark.parametrize("name,qubits", EXACT_ROWS)
    def test_matches_run_table(self, name, qubits, committed_rows):
        hardware = _hardware_for(qubits, THREE_LINE)
        program = OneQCompiler(OneQConfig(hardware=hardware)).compile(
            get_benchmark(name, qubits, seed=7)
        )
        got = {
            "depth": program.physical_depth,
            "num_fusions": program.num_fusions,
            "num_partitions": program.num_partitions,
            "mapping_layers": program.mapping_layers,
            "shuffle_layers": program.shuffle_layers,
        }
        row = committed_rows[(name, qubits)]
        assert got == {field: row[field] for field in EXACT_FIELDS}
