"""The committed sweep run tables match the code that made them.

``benchmarks/noise_sweep.json``, ``degrade_sweep.json`` and the paper's
figure tables (``fig12.json`` … ``ablation.json``) are run tables whose
``meta`` block records every axis of their grid.  Each grid is rebuilt
here from ``meta`` alone, every row is recomputed and
matched to the committed row by its ``key`` column, and every column is
compared except the wall-time ones, which no rerun reproduces, and the
cache read provenance.  A change that moves a sampled yield (say, to
the fault draw's RNG stream) or a compile metric without regenerating
the artifacts fails here.  Table 2 (``run_table.json``) is pinned by
``perfbench``'s compile-table2 check and ``test_golden.TestTable2Exact``.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.eval.batch import execute_spec
from repro.eval.degrade import degrade_specs
from repro.eval.experiments import EXHIBITS, noise_sweep_specs

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

#: how a row was read, not what it holds
READ_PROVENANCE = {"cached", "cache_tier"}


def compared(column):
    return not (
        column.endswith("seconds")
        or column == "shots_per_second"
        or column in READ_PROVENANCE
    )


def assert_fresh(name, specs_from_meta):
    """Recompute every row of run table *name*; return its rows."""
    table = json.loads((BENCHMARKS / name).read_text())
    recorded = {row["key"]: row for row in table["records"]}
    specs = specs_from_meta(table["meta"])
    assert len(specs) == len(recorded) == len(table["records"])
    for spec in specs:
        fresh = asdict(execute_spec(spec))
        assert fresh["key"] in recorded, spec
        row = recorded[fresh["key"]]
        for column, value in fresh.items():
            if compared(column):
                assert row[column] == value, (spec, column)
    return list(recorded.values())


def sampled(rows):
    return any(row["yield_mc"] is not None for row in rows)


def test_noise_sweep_run_table_is_fresh():
    rows = assert_fresh(
        "noise_sweep.json",
        lambda meta: noise_sweep_specs(
            [tuple(b) for b in meta["benchmarks"]],
            fusion_success=meta["fusion_success"],
            cycle_loss=meta["cycle_loss"],
            resource_states=meta["resource_states"],
            shots=meta["shots"],
            seed=meta["seed"],
        ),
    )
    assert sampled(rows)


def test_degrade_sweep_run_table_is_fresh():
    rows = assert_fresh(
        "degrade_sweep.json",
        lambda meta: degrade_specs(
            [tuple(b) for b in meta["benchmarks"]],
            scenarios=meta["scenarios"],
            severities=meta["severities"],
            policies=meta["policies"],
            noise=tuple(tuple(pair) for pair in meta["noise"]),
            resource_state=meta["resource_state"],
            shots=meta["shots"],
            seed=meta["seed"],
        ),
    )
    assert sampled(rows)


@pytest.mark.parametrize(
    "exhibit", ["fig12", "fig13", "fig14", "fig15", "ablation"]
)
def test_exhibit_run_table_is_fresh(exhibit):
    def specs_from_meta(meta):
        kwargs = dict(meta)
        assert kwargs.pop("grid") == exhibit
        return EXHIBITS[exhibit](**kwargs)

    assert_fresh(f"{exhibit}.json", specs_from_meta)
