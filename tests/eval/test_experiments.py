"""Tests for the exhibit grids and the claim checks.

The grids are checked as specs (no compile); the committed run tables
they produce are kept fresh by ``test_artifact_freshness.py``.  The
claims run on every committed table, and each claim is shown to fail
on a perturbed copy of the records.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.eval.batch import read_run_table
from repro.eval.experiments import (
    ABLATION_VARIANTS,
    EXHIBITS,
    FIG13_RATIOS,
    PAPER_TABLE2,
    TABLE_BENCHMARKS,
    _hardware_for,
    check_claims,
    exhibit_stem,
    run_exhibit,
    run_table1,
)
from repro.hardware.resource_state import THREE_LINE

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def committed(exhibit):
    return read_run_table(BENCHMARKS / f"{exhibit_stem(exhibit)}.json")


class TestTable1:
    def test_full_grid(self):
        rows = run_table1()
        # Table 1 covers the paper's rows; the compile grid's extra
        # 100-qubit scaling rows have no paper counterpart
        assert len(rows) == len(PAPER_TABLE2)
        assert len(rows) == sum(
            1 for key in TABLE_BENCHMARKS if key in PAPER_TABLE2
        )

    def test_matches_paper_exactly(self):
        assert {(n, a.num_qubits) for n, a in run_table1()} == set(PAPER_TABLE2)
        # spot check paper values
        by_key = {(n, a.num_qubits): a for n, a in run_table1()}
        assert by_key[("QFT", 16)].cluster_side == 7
        assert by_key[("BV", 100)].physical_side == 43


class TestExhibitGrids:
    def test_table2_covers_the_benchmark_grid(self):
        specs = EXHIBITS["table2"]()
        assert [(s.benchmark, s.num_qubits) for s in specs] == TABLE_BENCHMARKS
        assert all(s.include_baseline for s in specs)

    def test_only_improvement_grids_compile_the_baseline(self):
        for name, build in EXHIBITS.items():
            baseline = {s.include_baseline for s in build()}
            assert baseline == {name in ("table2", "fig12")}, name

    def test_fig13_keeps_the_paper_layer_shapes(self):
        shapes = [
            _hardware_for(16, THREE_LINE, ratio=ratio, area=256)
            for ratio in FIG13_RATIOS
        ]
        assert [(h.rows, h.cols) for h in shapes] == [
            (16, 16), (13, 20), (11, 23), (10, 26)
        ]

    def test_fig14_is_the_extended_13x13_layer(self):
        (spec,) = EXHIBITS["fig14"]()
        hardware = _hardware_for(
            spec.num_qubits, THREE_LINE, area=spec.area,
            extension=spec.extension,
        )
        assert hardware.extended_shape == (13, 39)

    def test_ablation_rows_follow_the_variant_names(self):
        specs = EXHIBITS["ablation"]()
        assert len(specs) == len(ABLATION_VARIANTS)
        assert specs[0].compiler_options == ()
        assert len({s.key() for s in specs}) == len(specs)

    def test_run_exhibit_writes_rebuildable_table(self, tmp_path):
        records = run_exhibit(
            "table2", jobs=1, out_dir=tmp_path, benchmarks=[["BV", 8]]
        )
        payload = json.loads((tmp_path / "run_table.json").read_text())
        assert (tmp_path / "run_table.csv").exists()
        assert payload["meta"] == {"grid": "table2", "benchmarks": [["BV", 8]]}
        assert [r["key"] for r in payload["records"]] == [
            r.key for r in records
        ]
        assert read_run_table(tmp_path / "run_table.json") == records


class TestClaims:
    @pytest.mark.parametrize("exhibit", list(EXHIBITS))
    def test_committed_tables_meet_the_claims(self, exhibit):
        assert check_claims(exhibit, committed(exhibit)) == []

    #: (exhibit, row to change, {field: value from the row accessor},
    #: the one failure expected); ``None`` as the change drops the row
    CASES = [
        ("table2", "QFT-25", {"depth_improvement": lambda row: 4.9},
         "QFT-25: improvement depth x4.9"),
        ("table2", "QFT-25", {"fusion_improvement": lambda row: 9.0},
         "#fusions x9.0 is below x5 / x10"),
        ("table2", "BV-16",
         {"fusion_improvement": lambda row: row("QAOA-16").fusion_improvement - 1},
         "BV-16 does not have the largest fusion improvement"),
        ("table2", "QFT-16",
         {"fusion_improvement": lambda row: row("QAOA-16").fusion_improvement + 1},
         "QFT-16 does not have the smallest fusion improvement"),
        ("table2", "BV-16", {"depth": lambda row: row("QFT-16").depth + 1},
         "BV-16 does not have the smallest 16-qubit depth"),
        ("table2", "QAOA-36",
         {"fusion_improvement": lambda row: 0.49 * row("QAOA-16").fusion_improvement},
         "QAOA-36's fusion improvement is under half of QAOA-16's"),
        ("table2", "BV-100",
         {"fusion_improvement": lambda row: row("BV-16").fusion_improvement},
         "BV-100's fusion improvement does not exceed BV-16's"),
        ("table2", "BV-100", None, "no BV-100 row to check"),
        ("fig12", "RCA-16", {"depth_improvement": lambda row: 1.0},
         "RCA-16 on 3-line: improvement depth x1.00"),
        ("fig12", "QFT-16", {"fusion_improvement": lambda row: 0.5},
         "#fusions x0.50 is not above 1"),
        ("fig15", "QAOA-16", {"depth": lambda row: 1},
         "QAOA-16: depth at area 100 is below depth at area 1000"),
        ("degrade-sweep", "BV-8", {"recovered": lambda row: False},
         "severity-0 row not recovered: BV-8/dead-rsg@0[survive]"),
    ]

    @pytest.mark.parametrize("exhibit,label,change,message", CASES)
    def test_each_claim_can_fail(self, exhibit, label, change, message):
        records = committed(exhibit)

        def row(name):
            return next(r for r in records if r.label == name)

        target = row(label)  # the first row of a multi-row label
        if change is None:
            perturbed = [r for r in records if r.label != label]
        else:
            fields = {name: value(row) for name, value in change.items()}
            perturbed = [
                replace(r, **fields) if r is target else r for r in records
            ]
        failures = check_claims(exhibit, perturbed)
        assert len(failures) == 1, failures
        assert message in failures[0]
