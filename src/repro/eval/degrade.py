"""Hardware-degradation survival sweeps (paper Sec. 2.1 robustness).

The paper's yield argument assumes pristine hardware: every cell of the
resource-state grid generates and fuses photons at the same rates.  Real
photonic devices drift — individual resource-state generators die,
couplers develop loss gradients, fusion interferometers detune.  This
harness grids compiled benchmarks over per-site degradation scenarios
(:mod:`repro.hardware.degradation`) and the recovery-policy ladder
(:mod:`repro.core.recovery`), producing survival curves: at which
severity does the as-compiled program collapse, and which intervention
(re-route vs recompile) saves it?

Everything runs through :class:`repro.eval.batch.BatchRunner`, so rows
land in the standard schema-v9 run table (``scenario`` / ``severity`` /
``policy`` / ``recovered`` / ``yield_degraded`` columns) and are cached
by spec hash like every other batch.
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.recovery import POLICIES
from repro.eval.batch import (
    SCHEMA_VERSION,
    BatchRunner,
    RunRecord,
    RunSpec,
    write_run_table,
)
from repro.hardware.degradation import SCENARIOS
from repro.serve.store import atomic_write_json

#: Default benchmark grid: one Clifford benchmark (BV — Monte-Carlo
#: samplable under the per-site map) and one non-Clifford (QFT —
#: analytic-only), both small enough for dense severity grids.
DEGRADE_BENCHMARKS: List[Tuple[str, int]] = [("BV", 8), ("QFT", 8)]

#: Default severity grid: 0 (pristine; every policy must report
#: recovered) up to deep damage where even recompile starts losing.
DEGRADE_SEVERITIES: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3)

#: Mild uniform base noise for the scenario maps.  The clean yield must
#: stay well above 0 so the recovery bar (>= 50% of clean) measures the
#: *scenario's* damage, not the base model's; at these rates an 8-qubit
#: benchmark keeps a clean yield around 0.99+.
MILD_NOISE: Tuple[Tuple[str, float], ...] = (
    ("cycle_loss", 1e-05),
    ("fusion_error", 5e-05),
    ("measurement_error", 1e-05),
)


def degrade_specs(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
    scenarios: Sequence[str] = SCENARIOS,
    severities: Sequence[float] = DEGRADE_SEVERITIES,
    policies: Sequence[str] = POLICIES,
    noise: Tuple[Tuple[str, float], ...] = MILD_NOISE,
    resource_state: str = "3-line",
    shots: int = 0,
    seed: int = 7,
) -> List[RunSpec]:
    """Build the (benchmark x scenario x severity x policy) spec grid.

    Severity 0 is worth keeping in the grid: it pins the degenerate
    case (an undamaged map must leave every policy recovered with the
    clean yield).  ``policies`` may include ``"auto"`` to record the
    ladder's winner instead of a fixed rung.
    """
    benchmarks = list(benchmarks or DEGRADE_BENCHMARKS)
    specs = []
    for name, n in benchmarks:
        for scenario in scenarios:
            for severity in severities:
                for policy in policies:
                    specs.append(
                        RunSpec(
                            benchmark=name,
                            num_qubits=n,
                            seed=seed,
                            resource_state=resource_state,
                            include_baseline=False,
                            shots=shots,
                            noise=noise,
                            scenario=scenario,
                            severity=float(severity),
                            policy=policy,
                        )
                    )
    return specs


def summarize_survival(records: Sequence[RunRecord]) -> Dict:
    """Aggregate a sweep into the survival headline numbers.

    Groups rows by (benchmark, scenario, severity) and counts, per
    group, whether ``survive`` failed and which policy rescued it.  The
    returned dict is the ``summary`` block of the degradation artifact
    and what the CI recovery gate checks.
    """
    groups: Dict[Tuple[str, str, float], Dict[str, RunRecord]] = {}
    for record in records:
        if not record.scenario or record.policy is None:
            continue
        key = (record.label, record.scenario, record.severity)
        groups.setdefault(key, {})[record.policy] = record

    survive_failures = 0
    reroute_rescues = 0
    recompile_rescues = 0
    unrecovered: List[str] = []
    severity_zero_failures: List[str] = []
    for (label, scenario, severity), by_policy in sorted(groups.items()):
        tag = f"{label}/{scenario}@{severity:g}"
        if severity == 0.0:
            for policy, record in sorted(by_policy.items()):
                if record.recovered is not True:
                    severity_zero_failures.append(f"{tag}[{policy}]")
        survive = by_policy.get("survive")
        if survive is None or survive.recovered is not False:
            continue
        survive_failures += 1
        reroute = by_policy.get("reroute")
        recompile = by_policy.get("recompile")
        rescued = False
        if reroute is not None and reroute.recovered:
            reroute_rescues += 1
            rescued = True
        if recompile is not None and recompile.recovered:
            recompile_rescues += 1
            rescued = True
        if not rescued:
            unrecovered.append(tag)
    return {
        "groups": len(groups),
        "survive_failures": survive_failures,
        "reroute_rescues": reroute_rescues,
        "recompile_rescues": recompile_rescues,
        "unrecovered": unrecovered,
        "severity_zero_failures": severity_zero_failures,
    }


def write_degradation_json(
    records: Sequence[RunRecord],
    path: pathlib.Path,
    label: str = "degradation",
    meta: Optional[Dict] = None,
) -> pathlib.Path:
    """Write the ``BENCH_degradation.json`` survival artifact.

    One entry per sweep row, keyed
    ``"<benchmark>@<scenario>@<severity>[<policy>]"``, plus the
    :func:`summarize_survival` block the CI recovery gate reads.
    """
    path = pathlib.Path(path)
    runs: Dict[str, Dict] = {}
    for record in records:
        key = (
            f"{record.label}@{record.scenario}@{record.severity:g}"
            f"[{record.policy}]"
        )
        runs[key] = {
            "benchmark": record.benchmark,
            "num_qubits": record.num_qubits,
            "scenario": record.scenario,
            "severity": record.severity,
            "dead_fraction": record.dead_fraction,
            "policy": record.policy,
            "recovered": record.recovered,
            "yield_degraded": record.yield_degraded,
            "yield_analytic": record.yield_analytic,
            "yield_mc": record.yield_mc,
            "shots": record.shots,
            "rerouted_fusions": record.rerouted_fusions,
            "fusions": record.num_fusions,
            "cached": record.cached,
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "meta": meta or {},
        "summary": summarize_survival(records),
        "runs": runs,
    }
    atomic_write_json(path, payload)
    return path


def check_recovery(records: Sequence[RunRecord]) -> List[str]:
    """CI gate: the sweep must demonstrate actual recoveries.

    Returns a list of failure messages (empty = pass).  Checks:

    * at least one scenario group where ``survive`` fails and
      ``reroute`` recovers;
    * at least one where ``survive`` fails and ``recompile`` recovers;
    * every severity-0 row reports ``recovered=True``.
    """
    summary = summarize_survival(records)
    failures = []
    if summary["survive_failures"] == 0:
        failures.append(
            "no scenario collapsed the as-compiled (survive) yield — "
            "the sweep exercises no recovery at all"
        )
    if summary["reroute_rescues"] == 0:
        failures.append(
            "no survive-failed scenario was recovered by reroute"
        )
    if summary["recompile_rescues"] == 0:
        failures.append(
            "no survive-failed scenario was recovered by recompile"
        )
    for tag in summary["severity_zero_failures"]:
        failures.append(f"severity-0 row not recovered: {tag}")
    return failures


def run_degrade_sweep(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
    scenarios: Sequence[str] = SCENARIOS,
    severities: Sequence[float] = DEGRADE_SEVERITIES,
    policies: Sequence[str] = POLICIES,
    noise: Tuple[Tuple[str, float], ...] = MILD_NOISE,
    resource_state: str = "3-line",
    shots: int = 0,
    seed: int = 7,
    jobs: Optional[int] = None,
    cache_dir: Optional[pathlib.Path] = None,
    out_dir: Optional[pathlib.Path] = None,
    stem: str = "degrade_sweep",
    label: str = "degradation",
) -> List[RunRecord]:
    """Run the survival sweep; persist artifacts when *out_dir* given.

    Artifacts: ``<stem>.json``/``.csv`` (the standard run table) and
    ``BENCH_<label>.json`` (survival summary keyed per scenario row).
    """
    specs = degrade_specs(
        benchmarks,
        scenarios=scenarios,
        severities=severities,
        policies=policies,
        noise=noise,
        resource_state=resource_state,
        shots=shots,
        seed=seed,
    )
    runner = BatchRunner(jobs=jobs, cache_dir=cache_dir)
    records = runner.run(specs)
    if out_dir is not None:
        out_dir = pathlib.Path(out_dir)
        meta = {
            "grid": "degrade_sweep",
            "benchmarks": [list(b) for b in (benchmarks or DEGRADE_BENCHMARKS)],
            "scenarios": list(scenarios),
            "severities": [float(s) for s in severities],
            "policies": list(policies),
            "noise": [list(pair) for pair in noise],
            "resource_state": resource_state,
            "shots": shots,
            "seed": seed,
        }
        write_run_table(records, out_dir, stem=stem, meta=meta)
        write_degradation_json(
            records, out_dir / f"BENCH_{label}.json", label=label, meta=meta
        )
    return records
