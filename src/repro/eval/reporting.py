"""Text renderers for the paper's exhibits (paper-style tables).

Each compiled exhibit renders from its run-table records
(:class:`repro.eval.batch.RunRecord`), so rendering compiles nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from repro.eval.experiments import (
    ABLATION_VARIANTS, PAPER_TABLE2, summarize_survival,
)

if TYPE_CHECKING:
    from repro.baseline.metrics import BaselineAreas
    from repro.eval.batch import RunRecord


def _table(headers: Sequence[str], rows: List[Sequence[object]]) -> str:
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_table1(rows: List[Tuple[str, BaselineAreas]]) -> str:
    """Table 1: benchmark sizes and baseline areas."""
    body = [
        (
            f"{name}-{areas.num_qubits}",
            areas.num_qubits,
            f"{areas.cluster_side}x{areas.cluster_side}",
            f"{areas.physical_side}x{areas.physical_side}",
        )
        for name, areas in rows
    ]
    return _table(["Name", "#qubit", "cluster area", "physical area"], body)


def render_table2(
    records: Sequence[RunRecord], with_paper: bool = True
) -> str:
    """Table 2: baseline vs OneQ depth and #fusions + improvements."""
    headers = [
        "Name-#q",
        "Base Depth",
        "Our Depth",
        "Improv.",
        "Base #Fus",
        "Our #Fus",
        "Improv.",
    ]
    if with_paper:
        headers += ["Paper D-Improv.", "Paper F-Improv."]
    body = []
    for r in records:
        cells = [
            r.label,
            r.baseline_depth,
            r.depth,
            f"{r.depth_improvement:.0f}x",
            f"{r.baseline_fusions:,}",
            f"{r.num_fusions:,}",
            f"{r.fusion_improvement:.0f}x",
        ]
        if with_paper:
            paper = PAPER_TABLE2.get((r.benchmark, r.num_qubits))
            if paper:
                bd, od, bf, of = paper
                cells += [f"{bd / od:.0f}x", f"{bf / of:.0f}x"]
            else:
                cells += ["-", "-"]
        body.append(cells)
    return _table(headers, body)


def render_fig12(records: Sequence[RunRecord]) -> str:
    """Fig. 12: improvement factors per resource-state type."""
    cells: Dict[str, Dict[str, RunRecord]] = {}
    for r in records:
        cells.setdefault(r.label, {})[r.resource_state] = r
    rst_names = list(dict.fromkeys(r.resource_state for r in records))
    depth_rows = [
        [label] + [f"{per[rst].depth_improvement:.0f}x" for rst in rst_names]
        for label, per in cells.items()
    ]
    fusion_rows = [
        [label] + [f"{per[rst].fusion_improvement:.0f}x" for rst in rst_names]
        for label, per in cells.items()
    ]
    return (
        "depth improvement\n"
        + _table(["bench"] + rst_names, depth_rows)
        + "\n\n#fusion improvement\n"
        + _table(["bench"] + rst_names, fusion_rows)
    )


def _normalized_sweep(
    records: Sequence[RunRecord], column: str, base: object = None
) -> str:
    """Per benchmark, depth/#fusions at each value of *column*, both
    normalized to the row at *base* (default: the smallest value)."""
    per_label: Dict[str, Dict[object, RunRecord]] = {}
    for r in records:
        per_label.setdefault(r.label, {})[getattr(r, column)] = r
    values = sorted({getattr(r, column) for r in records})
    if base not in values:
        base = values[0]
    rows = []
    for label, per_value in per_label.items():
        ref = per_value[base]
        rows.append(
            [label]
            + [
                f"{per_value[v].depth / max(1, ref.depth):.2f}/"
                f"{per_value[v].num_fusions / max(1, ref.num_fusions):.2f}"
                for v in values
            ]
        )
    return _table(
        ["bench (depth/fus)"] + [f"{column} {v}" for v in values], rows
    )


def render_fig13(records: Sequence[RunRecord]) -> str:
    """Fig. 13: normalized depth/#fusions per layer aspect ratio."""
    return _normalized_sweep(records, "ratio")


def render_fig14(records: Sequence[RunRecord]) -> str:
    """Fig. 14: one benchmark mapped onto an extended physical layer."""
    return "\n".join(
        f"{r.label}: extension={r.extension} "
        f"mapping_layers={r.mapping_layers} "
        f"shuffle_layers={r.shuffle_layers} "
        f"physical depth={r.depth} "
        f"fusions={r.num_fusions:,}"
        for r in records
    )


def render_fig15(records: Sequence[RunRecord], base_area: int = 256) -> str:
    """Fig. 15: normalized depth/#fusions per physical area."""
    return _normalized_sweep(records, "area", base=base_area)


def render_ablation(records: Sequence[RunRecord]) -> str:
    """Compiler-variant ablation: depth/#fusions per variant, the rows
    in ``ABLATION_VARIANTS`` order."""
    base = records[0]
    rows = [
        [
            variant,
            r.depth,
            f"{r.num_fusions:,}",
            f"{r.depth / max(1, base.depth):.2f}",
            f"{r.num_fusions / max(1, base.num_fusions):.2f}",
        ]
        for variant, r in zip(ABLATION_VARIANTS, records)
    ]
    headers = ["variant", "depth", "#fusions", "depth/default",
               "fusions/default"]
    return _table(headers, rows)


def render_noise_sweep(records: Sequence[RunRecord]) -> str:
    """Noise sweep: per benchmark and noise point, the sampled and the
    closed-form yield (``-`` where the program is not samplable)."""
    rows = [
        [
            r.label,
            r.resource_state,
            r.noise,
            "-" if r.yield_mc is None else f"{r.yield_mc:.4f}",
            "-" if r.yield_analytic is None else f"{r.yield_analytic:.4f}",
            r.shots,
        ]
        for r in records
    ]
    return _table(
        ["bench", "resource state", "noise", "yield_mc", "analytic",
         "shots"],
        rows,
    )


def render_survival_table(records: Sequence) -> str:
    """Survival curves of a degradation sweep (``repro degrade-sweep``).

    One block per (benchmark, scenario): policies as rows, severities as
    columns, each cell the degraded yield with a ``*`` marker when the
    policy met the recovery bar.  Rows without a degradation stage are
    skipped.
    """
    groups: Dict[Tuple[str, str], Dict[Tuple[str, float], object]] = {}
    severities: Dict[Tuple[str, str], List[float]] = {}
    for r in records:
        if not getattr(r, "scenario", "") or r.policy is None:
            continue
        key = (r.label, r.scenario)
        groups.setdefault(key, {})[(r.policy, r.severity)] = r
        if r.severity not in severities.setdefault(key, []):
            severities[key].append(r.severity)
    blocks = []
    for key in sorted(groups):
        label, scenario = key
        sevs = sorted(severities[key])
        policies = sorted({p for p, _ in groups[key]})
        rows = []
        for policy in policies:
            cells: List[object] = [policy]
            for sev in sevs:
                r = groups[key].get((policy, sev))
                if r is None or r.yield_degraded is None:
                    cells.append("-")
                else:
                    mark = "*" if r.recovered else " "
                    cells.append(f"{r.yield_degraded:.4f}{mark}")
            rows.append(cells)
        blocks.append(
            f"{label} / {scenario}  (* = recovered)\n"
            + _table(
                ["policy"] + [f"sev {s:g}" for s in sevs], rows
            )
        )
    return "\n\n".join(blocks) if blocks else "(no degradation rows)"


def render_degrade_sweep(records: Sequence[RunRecord]) -> str:
    """Survival sweep: the survival tables plus the one-line summary."""
    summary = summarize_survival(records)
    return (
        f"{render_survival_table(records)}\n\n{len(records)} rows: "
        f"{summary['survive_failures']} survive collapse(s), "
        f"{summary['reroute_rescues']} reroute rescue(s), "
        f"{summary['recompile_rescues']} recompile rescue(s), "
        f"{len(summary['unrecovered'])} unrecovered"
    )


#: exhibit name -> renderer of its run-table records
RENDERERS: Dict[str, Callable[[Sequence[RunRecord]], str]] = {
    "table2": render_table2,
    "fig12": render_fig12,
    "fig13": render_fig13,
    "fig14": render_fig14,
    "fig15": render_fig15,
    "ablation": render_ablation,
    "noise-sweep": render_noise_sweep,
    "degrade-sweep": render_degrade_sweep,
}
