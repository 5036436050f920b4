"""The committed exhibit run tables match the code that made them.

The paper's figure tables (``fig12.json`` … ``ablation.json``) and the
two yield sweeps (``noise_sweep.json``, ``degrade_sweep.json``) are run
tables whose ``meta`` block holds the exhibit's name and its grid
builder's keyword arguments.  Each grid is rebuilt here from ``meta``
alone, every row is recomputed and matched to the committed row by its
``key`` column, and every column is compared except the wall-time ones,
which no rerun reproduces, and the cache read provenance.  A change
that moves a sampled yield (say, to the fault draw's RNG stream) or a
compile metric without regenerating the artifacts fails here.  Table 2
(``run_table.json``) is pinned by ``perfbench``'s compile-table2 check
and ``test_golden.TestTable2Exact``.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.eval.batch import execute_spec
from repro.eval.experiments import EXHIBITS, exhibit_stem

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


#: the sweeps, whose tables must hold sampled (Monte-Carlo) rows
SAMPLED = {"noise-sweep", "degrade-sweep"}


@pytest.mark.parametrize(
    "exhibit",
    ["fig12", "fig13", "fig14", "fig15", "ablation", *sorted(SAMPLED)],
)
def test_exhibit_run_table_is_fresh(exhibit):
    def specs_from_meta(meta):
        kwargs = dict(meta)
        assert kwargs.pop("grid") == exhibit
        return EXHIBITS[exhibit](**kwargs)

    rows = assert_fresh(f"{exhibit_stem(exhibit)}.json", specs_from_meta)
    if exhibit in SAMPLED:
        assert any(row["yield_mc"] is not None for row in rows)
