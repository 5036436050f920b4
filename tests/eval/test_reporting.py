"""Tests for the table renderers, over the committed run tables."""

from pathlib import Path

from repro.eval.batch import read_run_table
from repro.eval.experiments import (
    ABLATION_VARIANTS,
    FIG15_AREAS,
    exhibit_stem,
    run_table1,
)
from repro.eval.reporting import (
    render_ablation,
    render_degrade_sweep,
    render_fig12,
    render_fig13,
    render_fig14,
    render_fig15,
    render_noise_sweep,
    render_table1,
    render_table2,
)

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def committed(exhibit):
    return read_run_table(BENCHMARKS / f"{exhibit_stem(exhibit)}.json")


class TestRenderTable1:
    def test_contains_all_rows(self):
        text = render_table1(run_table1())
        for label in ("QFT-16", "BV-100", "RCA-36"):
            assert label in text

    def test_contains_paper_areas(self):
        text = render_table1(run_table1())
        assert "7x7" in text
        assert "43x43" in text


class TestRenderTable2:
    def test_rendering(self):
        text = render_table2(committed("table2"))
        assert "BV-16" in text and "QFT-100" in text
        assert "1967x" in text  # BV-16's fusion improvement
        assert "382x" in text  # the paper's BV-16 fusion improvement
        # the 100-qubit scaling rows have no paper counterpart
        qft100 = next(line for line in text.splitlines() if "QFT-100" in line)
        assert qft100.split()[-2:] == ["-", "-"]

    def test_without_paper_columns(self):
        text = render_table2(committed("table2"), with_paper=False)
        assert "Paper" not in text


class TestRenderFigures:
    def test_fig12(self):
        text = render_fig12(committed("fig12"))
        assert "depth improvement" in text and "#fusion improvement" in text
        header = text.splitlines()[1].split()
        assert header == ["bench", "3-line", "4-line", "4-star", "4-ring"]

    def test_fig13_normalizes_to_the_square_layer(self):
        text = render_fig13(committed("fig13"))
        assert "ratio 2.6" in text
        assert all(
            line.split()[1] == "1.00/1.00" for line in text.splitlines()[2:]
        )

    def test_fig14(self):
        text = render_fig14(committed("fig14"))
        assert text == (
            "QFT-16: extension=3 mapping_layers=14 shuffle_layers=50 "
            "physical depth=92 fusions=6,192"
        )

    def test_fig15_normalizes_to_the_baseline_area(self):
        records = committed("fig15")
        lines = render_fig15(records).splitlines()
        base = 1 + FIG15_AREAS.index(256)
        assert all(line.split()[base] == "1.00/1.00" for line in lines[2:])
        # an area grid without 256 normalizes to its smallest area
        text = render_fig15([r for r in records if r.area != 256])
        assert text.splitlines()[2].split()[1] == "1.00/1.00"

    def test_ablation_labels_rows_in_variant_order(self):
        records = committed("ablation")
        rows = render_ablation(records).splitlines()[2:]
        assert [row.split()[0] for row in rows] == list(ABLATION_VARIANTS)
        assert rows[0].split()[1:] == ["76", "6,040", "1.00", "1.00"]


class TestRenderSweeps:
    def test_noise_sweep_marks_unsampled_rows(self):
        rows = {
            line.split()[0]: line.split()
            for line in render_noise_sweep(committed("noise-sweep"))
            .splitlines()[2:]
        }
        # bench, resource state, noise, yield_mc, analytic, shots
        assert rows["QFT-16"][3] == "-" and rows["QFT-16"][5] == "0"
        assert rows["BV-16"][3] != "-" and rows["BV-16"][5] == "2000"

    def test_degrade_sweep_ends_with_the_survival_summary(self):
        text = render_degrade_sweep(committed("degrade-sweep"))
        assert "BV-8 / dead-rsg  (* = recovered)" in text
        assert text.splitlines()[-1] == (
            "120 rows: 17 survive collapse(s), 5 reroute rescue(s), "
            "7 recompile rescue(s), 10 unrecovered"
        )
