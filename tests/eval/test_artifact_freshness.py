"""The committed Monte-Carlo artifacts match the code that made them.

``benchmarks/BENCH_noise_sweep.json`` and ``BENCH_degradation.json``
record sampled yields at a fixed seed.  Any change to the fault draw's
RNG stream moves those yields, so the affected rows are recomputed
here from the specs the artifacts record (their ``meta`` block) and
compared with the committed values field by field.  A stream change
that forgets to regenerate the artifacts fails here.

Covered: the BV rows of the noise sweep and every BV-8 row of the
degradation sweep (its Monte-Carlo rows among them).  Timing fields
are not compared.
"""

import json
from pathlib import Path

from repro.eval.batch import execute_spec, write_noise_sweep_json
from repro.eval.degrade import degrade_specs, write_degradation_json
from repro.eval.experiments import noise_sweep_specs

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

#: wall-time fields, which no rerun reproduces
TIMING = {"mc_seconds", "shots_per_second"}


def committed(name):
    return json.loads((BENCHMARKS / name).read_text())


def rewritten(writer, specs, tmp_path):
    """The artifact rows *writer* produces for *specs*, rerun now."""
    path = tmp_path / "artifact.json"
    writer([execute_spec(spec) for spec in specs], path)
    return json.loads(path.read_text())["runs"]


def assert_rows_match(fresh, recorded):
    assert fresh, "no rows recomputed"
    for key, row in fresh.items():
        assert key in recorded, key
        for field, value in row.items():
            if field not in TIMING:
                assert recorded[key][field] == value, (key, field)


def test_noise_sweep_bv_rows_are_fresh(tmp_path):
    artifact = committed("BENCH_noise_sweep.json")
    meta = artifact["meta"]
    qubits = {
        row["num_qubits"]
        for row in artifact["runs"].values()
        if row["benchmark"] == "BV"
    }
    specs = noise_sweep_specs(
        [("BV", n) for n in sorted(qubits)],
        fusion_success=meta["fusion_success"],
        cycle_loss=meta["cycle_loss"],
        resource_states=meta["resource_states"],
        shots=meta["shots"],
        seed=meta["seed"],
    )
    fresh = rewritten(write_noise_sweep_json, specs, tmp_path)
    assert all(row["yield_mc"] is not None for row in fresh.values())
    assert_rows_match(fresh, artifact["runs"])


def test_degradation_bv8_rows_are_fresh(tmp_path):
    artifact = committed("BENCH_degradation.json")
    meta = artifact["meta"]
    assert "BV-8" in meta["benchmarks"]
    specs = degrade_specs(
        [("BV", 8)],
        severities=meta["severities"],
        shots=meta["shots"],
        seed=meta["seed"],
    )
    fresh = rewritten(write_degradation_json, specs, tmp_path)
    assert sum(row["yield_mc"] is not None for row in fresh.values()) > 0
    assert_rows_match(fresh, artifact["runs"])

