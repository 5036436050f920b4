#!/usr/bin/env python
"""Fig. 12: how the resource-state type affects compilation.

Reads the committed Fig. 12 run table (``benchmarks/fig12.json``: the
16-qubit paper benchmarks compiled against all four resource-state
shapes, 3-line, 4-line, 4-star and 4-ring) and prints the improvement
factors over the baseline, reproducing the claim that OneQ achieves
similar improvements across resource states.  Regenerate the table
with ``python -m repro bench --grid fig12 --out benchmarks``.

Run:  python examples/resource_state_study.py
"""

import pathlib

from repro.eval import read_run_table, render_fig12

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIG12 = ROOT / "benchmarks" / "fig12.json"


def main() -> None:
    records = read_run_table(FIG12)
    print(render_fig12(records))
    print()
    # a peek at what the resource state changes under the hood
    synthesis = {(r.label, r.resource_state): r.synthesis for r in records}
    for label in dict.fromkeys(r.label for r in records):
        s3 = synthesis[(label, "3-line")]
        s4 = synthesis[(label, "4-star")]
        print(
            f"{label}: synthesis fusions {s3} (3-line) -> {s4} (4-star); "
            "higher-degree states need shorter chains"
        )


if __name__ == "__main__":
    main()
