"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Tiny-size smoke runs of each workload, metric names against
``BENCHMARK.json``, a wrong golden reported as a failure, the traced-run
wrappers removed afterwards, and the command's behaviour outside a
checkout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_common  # noqa: E402
from bench_common import END_TO_END, ROOT, Tally, source_available  # noqa: E402
from bench_trace import Tracer  # noqa: E402

assert source_available()

import run  # noqa: E402
import workload_compile  # noqa: E402
import workload_serve  # noqa: E402
import workload_yield  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_table2(tmp_golden: Path = bench_common.RUN_TABLE) -> workload_compile.CompileTable2:
    workload = workload_compile.CompileTable2(7, Tally(), Tracer(), tmp_golden)
    workload.setup()
    workload.rows = [r for r in workload.rows if r.label.endswith("-16")]
    workload.untimed_rows = []
    return workload


# ----------------------------------------------------------------------
# metric names and the command's contract
# ----------------------------------------------------------------------
def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric(trace):
    proc = run_cli("--workload", "yield-clifford", "--seed", "3",
                   "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["sample.s"]["value"] > 0
        assert result["metrics"]["verify.by_method.stabilizer"]["value"] == 5


def test_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_cli("--workload", "compile-table2", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
def test_compile_table2_smoke():
    workload = small_table2()
    assert workload.run_pass(0, False) > 0
    workload.run_pass(1, False)
    assert workload.tally.failed == 0, workload.tally.messages
    assert workload.tally.attempted == 8
    metrics = workload.end_to_end([1.0, 1.0])
    assert metrics["depth_total"] == 76 + 38 + 34 + 2  # the seed-7 goldens


def test_yield_clifford_smoke():
    workload = workload_yield.YieldClifford(5, Tally(), Tracer())
    workload.setup()
    workload.inputs = [
        dataclasses.replace(item, shots=4000)
        for item in workload.inputs if item.label in ("RND-48", "BV-16-site")
    ]
    workload.run_pass(0, False)
    workload.run_pass(1, False)
    assert workload.tally.failed == 0, workload.tally.messages
    # 2 inputs x 3 stages (compile, verify, yield) x 2 passes
    assert workload.tally.attempted == 12
    assert workload.end_to_end([1.0])["depth_total"] == sum(
        p[0] for label, p in workload.first.items() if label.endswith(" compile"))


def test_times_are_scaled_to_the_calibrated_speed():
    workload = small_table2()
    # trimmed means 0.3 (0.1 and 9.0 are cut) and 0.5
    workload.op_seconds = {"a": [0.3, 0.1, 0.3, 9.0, 0.3], "b": [0.5]}
    workload.setup_seconds = 0.4
    # a host running at half the calibrated speed
    workload.reference_seconds = [2 * bench_common.REFERENCE_S] * 4 + [
        50 * bench_common.REFERENCE_S]
    metrics = workload.end_to_end([])
    assert metrics["pass_s"] == pytest.approx((0.3 + 0.5) / 2)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["p50_ms"] == pytest.approx(1000 * (0.15 + 0.25) / 2)


def test_untimed_rows_are_checked_and_counted_once():
    workload = workload_compile.CompileTable2(7, Tally(), Tracer())
    workload.setup()
    assert sorted(r.label for r in workload.untimed_rows) == sorted(
        workload_compile.UNTIMED_ROWS)
    assert not set(workload_compile.UNTIMED_ROWS) & {r.label for r in workload.rows}
    workload.rows = [r for r in workload.rows if r.label == "BV-16"]
    workload.untimed_rows = [dataclasses.replace(
        workload.untimed_rows[0], label="BV-16-untimed", circuit=workload.rows[0].circuit,
        hardware=workload.rows[0].hardware,
    )]
    workload.goldens["BV-16-untimed"] = workload.goldens["BV-16"]
    workload.run_pass(0, False)
    workload.finish()
    assert list(workload.op_seconds) == ["BV-16"]
    assert workload.tally.attempted == 2 and workload.tally.failed == 0
    assert workload.end_to_end([1.0])["depth_total"] == 2 * 2


def test_serve_mixed_smoke(monkeypatch):
    monkeypatch.setattr(workload_serve, "BLOCKS_PER_CLIENT", 4)
    monkeypatch.setattr(bench_common, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workload_serve, "SETUP_REPEATS", 1)
    workload = workload_serve.ServeMixed(11, Tally(), Tracer())
    try:
        assert workload.measure_setup() > 0
        server = workload.server
        workload.run_pass(0, False)
        workload.finish()
    finally:
        workload.close()
    assert workload.tally.failed == 0, workload.tally.messages
    # 5 warm-ups + 2 clients x 16 requests + 4 cold checks + teardown
    assert workload.tally.attempted == 5 + 32 + 4 + 1
    assert server.proc.returncode == 0
    assert not server.cache.exists()
    layers = workload.layer_metrics()
    assert layers["serve.requests"] == 32
    assert layers["serve.cold_frac"] * 32 == 8
    assert layers["store.hit_frac"] * 32 == 24


# ----------------------------------------------------------------------
# checks fail loudly
# ----------------------------------------------------------------------
def test_wrong_golden_is_a_failure(tmp_path):
    table = json.loads(bench_common.RUN_TABLE.read_text())
    for record in table["records"]:
        if (record["benchmark"], record["num_qubits"]) == ("QFT", 16):
            record["depth"] += 1
    golden = tmp_path / "run_table.json"
    golden.write_text(json.dumps(table))
    workload = small_table2(golden)
    workload.run_pass(0, False)
    assert workload.tally.failed == 1
    assert "golden" in workload.tally.messages[0]


def test_missing_golden_is_a_failure_not_a_skip(tmp_path):
    workload = small_table2(tmp_path / "absent.json")
    workload.run_pass(0, False)
    assert workload.tally.failed == workload.tally.attempted == 4


def test_pass_mismatch_is_a_failure():
    workload = small_table2()
    workload.first["BV-16"] = (0,) * 15
    workload.run_pass(0, False)
    assert workload.tally.failed == 1


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def _bindings():
    import networkx

    import repro.core.compiler as compiler
    import repro.core.validate as validate
    import repro.hardware.degradation as degradation
    import repro.mbqc.translate as translate
    from repro.core.mapping import InLayerMapper
    from repro.sim.frame import PauliFrameSimulator
    from repro.sim.noisy import NoisySampler

    return {
        "compiler": dict(vars(compiler)),
        "validate": dict(vars(validate)),
        "degradation": dict(vars(degradation)),
        "translate": dict(vars(translate)),
        "check_planarity": networkx.check_planarity,
        "InLayerMapper": dict(vars(InLayerMapper)),
        "NoisySampler": dict(vars(NoisySampler)),
        "PauliFrameSimulator": dict(vars(PauliFrameSimulator)),
    }


def test_wrappers_are_removed_after_a_traced_pass():
    import repro.core.compiler as compiler

    before = _bindings()
    original = compiler.partition_pattern
    tracer = Tracer()
    workload = small_table2()
    workload.tracer = tracer
    with pytest.raises(RuntimeError):
        with tracer.installed(1):
            assert compiler.partition_pattern is not original
            workload.run_pass(1, True)
            raise RuntimeError("a pass that dies half way")
    assert _bindings() == before
    names = {span.name for span in tracer.spans}
    assert {"pass", "translate", "partition", "planarity", "map", "shuffle",
            "validate"} <= names
    own = tracer.self_seconds()
    assert all(value >= -1e-9 for value in own)


def test_span_metrics_split_planarity_by_layer():
    from bench_trace import span_metrics

    tracer = Tracer()
    workload = small_table2()
    workload.tracer = tracer
    with tracer.installed(1):
        workload.run_pass(1, True)
    metrics = span_metrics(tracer, 1)
    assert metrics["partition.partitions"] > 0
    assert metrics["partition.planarity_calls"] > 0
    assert metrics["fusion_graph.planarity_calls"] == metrics["partition.partitions"]
    assert 0 < metrics["partition.planarity_s"]
    assert metrics["translate.pattern_nodes"] == sum(
        print_[10] for print_ in workload.first.values()
    )
