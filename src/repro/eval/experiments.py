"""The paper's evaluation (Sec. 7) and its yield extensions as
run-spec grids.

Every compiled exhibit — Table 2, Figs. 12–15, the ablation, and the
Sec. 2.1/3.1 noise and survival sweeps — is a grid of
:class:`repro.eval.batch.RunSpec` rows, built by its entry in
``EXHIBITS``.  :func:`run_exhibit` runs a grid through the batch runner
and writes it as one run table whose ``meta`` holds the builder's
keyword arguments, so the grid can be rebuilt from the table alone
(``repro bench --grid NAME``).  :func:`check_claims` checks the paper's
claims on a table's records and :mod:`repro.eval.reporting` renders
them; neither compiles anything.  Table 1 needs no compile and stays a
static render (:func:`run_table1`).

Absolute values are not expected to match the paper (our baseline
router and substrates differ) but the shapes — who wins, by what order
of magnitude, where trends bend — are.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:
    from repro.baseline.metrics import BaselineAreas
    from repro.eval.batch import RunRecord, RunSpec
    from repro.hardware.coupling import HardwareConfig
    from repro.hardware.resource_state import ResourceStateType

#: The paper's Table 1 / Table 2 benchmark grid, extended with the
#: 100-qubit QFT/QAOA scaling rows the packed compile path makes cheap.
TABLE_BENCHMARKS: List[Tuple[str, int]] = [
    ("QFT", 16),
    ("QFT", 25),
    ("QFT", 36),
    ("QFT", 100),
    ("QAOA", 16),
    ("QAOA", 25),
    ("QAOA", 36),
    ("QAOA", 100),
    ("RCA", 16),
    ("RCA", 25),
    ("RCA", 36),
    ("BV", 16),
    ("BV", 25),
    ("BV", 100),
]

#: Paper-reported numbers for side-by-side reporting (Table 2).
PAPER_TABLE2: Dict[Tuple[str, int], Tuple[int, int, int, int]] = {
    # (baseline depth, oneq depth, baseline fusions, oneq fusions)
    ("QFT", 16): (787, 83, 201472, 8167),
    ("QFT", 25): (1518, 162, 669438, 26921),
    ("QFT", 36): (2712, 324, 1695000, 66830),
    ("QAOA", 16): (595, 29, 152320, 2578),
    ("QAOA", 25): (1287, 63, 567567, 8343),
    ("QAOA", 36): (2648, 122, 1655000, 21302),
    ("RCA", 16): (734, 46, 187904, 4568),
    ("RCA", 25): (1273, 65, 561393, 8915),
    ("RCA", 36): (1934, 85, 1208750, 14115),
    ("BV", 16): (94, 1, 24064, 63),
    ("BV", 25): (181, 1, 79821, 114),
    ("BV", 100): (787, 4, 1455163, 644),
}

#: The 16-qubit benchmarks every figure grid compiles.
FIG_BENCHMARKS: Tuple[str, ...] = ("QFT", "QAOA", "RCA", "BV")

#: Fig. 13's layer aspect ratios; at area 256 ``HardwareConfig.with_area``
#: gives the paper's 16x16, 13x20, 11x23 and 10x26 layers.
FIG13_RATIOS: Tuple[float, ...] = (1.0, 1.5, 2.1, 2.6)

#: Fig. 15's physical areas (256 is the baseline's 16-qubit area).
FIG15_AREAS: Tuple[int, ...] = (100, 200, 256, 400, 600, 800, 1000)

#: The ablation's compiler variants, in grid (and run-table row) order:
#: pure Lemma-1 layers, no planar rotational order, no cross-partition
#: placement hints, and a weak total-blockage penalty.
ABLATION_VARIANTS: Tuple[str, ...] = (
    "default", "lemma1-scheduling", "no-embedding", "no-hints", "alpha-1",
)


def _hardware_for(
    num_qubits: int,
    resource_state: ResourceStateType,
    ratio: float = 1.0,
    area: Optional[int] = None,
    extension: int = 1,
) -> HardwareConfig:
    """Hardware sized like the baseline requires (Sec. 7.1), by default."""
    from repro.baseline.metrics import physical_side
    from repro.hardware.coupling import HardwareConfig

    if area is None:
        side = physical_side(num_qubits, resource_state)
        area = side * side
    return HardwareConfig.with_area(
        area, ratio=ratio, resource_state=resource_state, extension=extension
    )


def run_table1(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
) -> List[Tuple[str, BaselineAreas]]:
    """Benchmark programs and their baseline areas (Table 1).

    Defaults to the paper's own rows: the compile grid's extra
    100-qubit scaling rows have no Table-1 counterpart to compare
    against.
    """
    from repro.baseline.metrics import BaselineAreas

    if benchmarks is None:
        benchmarks = [key for key in TABLE_BENCHMARKS if key in PAPER_TABLE2]
    return [
        (name, BaselineAreas.for_qubits(n)) for name, n in benchmarks
    ]


# ----------------------------------------------------------------------
# exhibit grids
# ----------------------------------------------------------------------
def table2_specs(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
    resource_state: str = "3-line",
    seed: int = 7,
    verify: bool = False,
) -> List[RunSpec]:
    """Table 2: baseline vs OneQ on every benchmark."""
    from repro.eval.batch import RunSpec

    benchmarks = list(benchmarks or TABLE_BENCHMARKS)
    return [
        RunSpec(
            benchmark=name,
            num_qubits=n,
            seed=seed,
            resource_state=resource_state,
            verify=verify,
        )
        for name, n in benchmarks
    ]


def fig12_specs(seed: int = 7, verify: bool = False) -> List[RunSpec]:
    """Fig. 12: baseline vs OneQ per resource-state type."""
    from repro.eval.batch import RunSpec
    from repro.hardware.resource_state import RESOURCE_STATES

    return [
        RunSpec(bench, 16, seed=seed, resource_state=rst, verify=verify)
        for rst in RESOURCE_STATES
        for bench in FIG_BENCHMARKS
    ]


def fig13_specs(seed: int = 7, verify: bool = False) -> List[RunSpec]:
    """Fig. 13: OneQ on rectangular layers of the baseline's area."""
    from repro.eval.batch import RunSpec

    return [
        RunSpec(
            bench, 16, seed=seed, ratio=ratio, area=256,
            include_baseline=False, verify=verify,
        )
        for bench in FIG_BENCHMARKS
        for ratio in FIG13_RATIOS
    ]


def fig14_specs(seed: int = 7, verify: bool = False) -> List[RunSpec]:
    """Fig. 14: QFT mapped on an extended layer (3 x 13x13 -> 13x39)."""
    from repro.eval.batch import RunSpec

    return [
        RunSpec(
            "QFT", 16, seed=seed, area=169, extension=3,
            include_baseline=False, verify=verify,
        )
    ]


def fig15_specs(seed: int = 7, verify: bool = False) -> List[RunSpec]:
    """Fig. 15: OneQ across physical areas."""
    from repro.eval.batch import RunSpec

    return [
        RunSpec(
            bench, 16, seed=seed, area=area,
            include_baseline=False, verify=verify,
        )
        for bench in FIG_BENCHMARKS
        for area in FIG15_AREAS
    ]


def ablation_specs(seed: int = 7, verify: bool = False) -> List[RunSpec]:
    """QFT-16 under each compiler variant of ``ABLATION_VARIANTS``."""
    from repro.core.partition import PartitionConfig
    from repro.eval.batch import RunSpec

    options: List[Tuple[Tuple[str, object], ...]] = [
        (),
        (("partition", PartitionConfig(scheduling="lemma1")),),
        (("use_embedding", False),),
        (("use_placement_hints", False),),
        (("alpha", 1.5),),
    ]
    return [
        RunSpec(
            "QFT", 16, seed=seed, include_baseline=False, verify=verify,
            compiler_options=variant,
        )
        for variant in options
    ]


#: The noise sweep's 16-qubit benchmarks: BV, the Clifford one, is
#: sampled; the rest get the analytic yield only.
NOISE_SWEEP_BENCHMARKS: List[Tuple[str, int]] = [
    ("QFT", 16),
    ("QAOA", 16),
    ("RCA", 16),
    ("BV", 16),
]


def noise_sweep_specs(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
    fusion_success: Sequence[float] = (0.5, 0.75),
    cycle_loss: Sequence[float] = (0.001, 0.01),
    resource_states: Sequence[str] = ("3-line",),
    shots: int = 2000,
    seed: int = 7,
    verify: bool = False,
) -> List[RunSpec]:
    """Sec. 2.1/3.1 extension: Monte-Carlo yield across noise-model and
    hardware coordinates.

    Compiled-program quality is ultimately end-to-end success
    probability.  One spec per (benchmark, resource state,
    fusion_success, cycle_loss) coordinate; each carries ``shots``
    Monte-Carlo shots and its noise overrides, so the compiled fault
    counts feed the sampler and the yields land in the run table's
    ``yield_mc`` / ``yield_analytic`` columns.
    """
    from repro.eval.batch import RunSpec

    return [
        RunSpec(
            benchmark=name,
            num_qubits=n,
            seed=seed,
            resource_state=rst_name,
            shots=shots,
            noise=(
                ("cycle_loss", float(cl)),
                ("fusion_success", float(fs)),
            ),
            include_baseline=False,
            verify=verify,
        )
        for name, n in benchmarks or NOISE_SWEEP_BENCHMARKS
        for rst_name in resource_states
        for fs in fusion_success
        for cl in cycle_loss
    ]


#: The survival sweep's benchmarks: one Clifford benchmark (BV,
#: Monte-Carlo samplable under the per-site map) and one non-Clifford
#: (QFT, analytic-only), both small enough for dense severity grids.
DEGRADE_BENCHMARKS: List[Tuple[str, int]] = [("BV", 8), ("QFT", 8)]

#: Severities from 0 (pristine; every policy must report recovered) up
#: to deep damage where even recompile starts losing.
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

#: Monte-Carlo shots per survival-sweep row (0 = analytic-only)
DEGRADE_SHOTS = 2000


def degrade_specs(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
    scenarios: Optional[Sequence[str]] = None,
    severities: Sequence[float] = DEGRADE_SEVERITIES,
    policies: Optional[Sequence[str]] = None,
    noise: Tuple[Tuple[str, float], ...] = MILD_NOISE,
    resource_state: str = "3-line",
    shots: int = DEGRADE_SHOTS,
    seed: int = 7,
    verify: bool = False,
) -> List[RunSpec]:
    """Sec. 2.1 extension: survival under hardware degradation.

    One spec per (benchmark, scenario, severity, policy): every
    per-site scenario of :mod:`repro.hardware.degradation` (default
    all) against every rung of the :mod:`repro.core.recovery` ladder
    (default all), so the table shows at which severity the
    as-compiled program collapses and which intervention saves it.
    Severity 0 pins the degenerate case: an undamaged map must leave
    every policy recovered.  ``policies`` may include ``"auto"`` to
    record the ladder's winner instead of a fixed rung.
    """
    from repro.core.recovery import POLICIES
    from repro.eval.batch import RunSpec
    from repro.hardware.degradation import SCENARIOS

    return [
        RunSpec(
            benchmark=name,
            num_qubits=n,
            seed=seed,
            resource_state=resource_state,
            include_baseline=False,
            verify=verify,
            shots=shots,
            noise=noise,
            scenario=scenario,
            severity=float(severity),
            policy=policy,
        )
        for name, n in benchmarks or DEGRADE_BENCHMARKS
        for scenario in scenarios or SCENARIOS
        for severity in severities
        for policy in policies or POLICIES
    ]


#: exhibit name -> grid builder; the builder's keyword arguments are
#: the run table's ``meta`` (plus ``grid``: the exhibit name)
EXHIBITS: Dict[str, Callable[..., List[RunSpec]]] = {
    "table2": table2_specs,
    "fig12": fig12_specs,
    "fig13": fig13_specs,
    "fig14": fig14_specs,
    "fig15": fig15_specs,
    "ablation": ablation_specs,
    "noise-sweep": noise_sweep_specs,
    "degrade-sweep": degrade_specs,
}

#: run-table stems that are not the exhibit's own name: Table 2 keeps
#: the historical ``run_table`` (``perfbench`` reads it), the sweeps
#: their committed file names
_STEMS = {
    "table2": "run_table",
    "noise-sweep": "noise_sweep",
    "degrade-sweep": "degrade_sweep",
}


def exhibit_stem(name: str) -> str:
    """Run-table file stem of exhibit *name*."""
    return _STEMS.get(name, name)


def run_exhibit(
    name: str,
    jobs: Optional[int] = None,
    cache_dir=None,
    out_dir=None,
    **kwargs,
) -> List[RunRecord]:
    """Run exhibit *name*'s grid through the batch runner.

    *kwargs* go to the builder in ``EXHIBITS``.  When *out_dir* is
    given the records are written as the run table
    ``<exhibit_stem(name)>.json``/``.csv`` with ``meta`` =
    ``{"grid": name, **kwargs}``.
    """
    from repro.eval.batch import BatchRunner, write_run_table

    records = BatchRunner(jobs=jobs, cache_dir=cache_dir).run(
        EXHIBITS[name](**kwargs)
    )
    if out_dir is not None:
        write_run_table(
            records, out_dir, stem=exhibit_stem(name),
            meta={"grid": name, **kwargs},
        )
    return records


# ----------------------------------------------------------------------
# the paper's claims, checked on run-table records
# ----------------------------------------------------------------------
#: Table-2 rows the claims compare
_TABLE2_CLAIM_ROWS: Tuple[Tuple[str, int], ...] = (
    ("QFT", 16), ("QAOA", 16), ("RCA", 16), ("BV", 16),
    ("QFT", 36), ("QAOA", 36), ("RCA", 36), ("BV", 100),
)


def _table2_claims(records: Sequence[RunRecord]) -> List[str]:
    # a row without the baseline shows no improvement: it counts as 0
    depth_x = {(r.benchmark, r.num_qubits): r.depth_improvement or 0.0
               for r in records}
    fusion_x = {(r.benchmark, r.num_qubits): r.fusion_improvement or 0.0
                for r in records}
    failures = [
        f"{name}-{n}: improvement depth x{depth_x[name, n]:.1f} / "
        f"#fusions x{fusion_x[name, n]:.1f} is below x5 / x10"
        for name, n in fusion_x
        if depth_x[name, n] < 5 or fusion_x[name, n] < 10
    ]
    missing = [
        f"{n}-{q}" for n, q in _TABLE2_CLAIM_ROWS if (n, q) not in fusion_x
    ]
    if missing:
        return failures + [f"no {', '.join(missing)} row to check"]
    depth16 = {r.benchmark: r.depth for r in records if r.num_qubits == 16}
    fusion16 = {name: fusion_x[name, 16] for name in FIG_BENCHMARKS}
    if fusion16["BV"] < max(fusion16.values()):
        failures.append("BV-16 does not have the largest fusion improvement")
    if fusion16["QFT"] > min(fusion16.values()):
        failures.append("QFT-16 does not have the smallest fusion improvement")
    if depth16["BV"] > min(depth16.values()):
        failures.append("BV-16 does not have the smallest 16-qubit depth")
    for name in ("QFT", "QAOA", "RCA"):
        if fusion_x[name, 36] < 0.5 * fusion16[name]:
            failures.append(
                f"{name}-36's fusion improvement is under half of {name}-16's"
            )
    if fusion_x["BV", 100] <= fusion16["BV"]:
        failures.append("BV-100's fusion improvement does not exceed BV-16's")
    return failures


def _fig15_claims(records: Sequence[RunRecord]) -> List[str]:
    per_label: Dict[str, List[Tuple[int, int]]] = {}
    for r in records:
        per_label.setdefault(r.label, []).append((r.area or 0, r.depth))
    failures = []
    for label, points in per_label.items():
        (smallest, small_depth), (largest, large_depth) = (
            min(points), max(points),
        )
        if small_depth < large_depth:
            failures.append(
                f"{label}: depth at area {smallest} is below depth at "
                f"area {largest}"
            )
    return failures


def summarize_survival(records: Sequence[RunRecord]) -> Dict:
    """Aggregate a survival sweep into its headline numbers.

    Groups rows by (benchmark, scenario, severity) and counts, per
    group, whether ``survive`` failed and which policy rescued it.  The
    returned dict is what :func:`check_recovery` gates on and what
    ``repro degrade-sweep`` prints as its one-line summary.
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


#: Monte-Carlo rows may fall at most this many binomial standard errors
#: below their per-site analytic yield.
SIGMA_GATE = 3.0


def check_recovery(
    records: Sequence[RunRecord], shots: int = 0
) -> List[str]:
    """The degradation gate: real recoveries, and sampled yields that
    agree with the per-site closed form.

    Returns a list of failure messages (empty = pass).  Checks:

    * at least one scenario group where ``survive`` fails and
      ``reroute`` recovers;
    * at least one where ``survive`` fails and ``recompile`` recovers;
    * every severity-0 row reports ``recovered=True``;
    * every Monte-Carlo row sampled the program the degradation stage
      scored (its ``yield_analytic`` equals ``yield_degraded``) and its
      ``yield_mc`` is at most ``SIGMA_GATE`` binomial standard errors
      below that yield (benign faults can only push ``yield_mc``
      *above* the zero-fault probability, never below);
    * when the grid asked for *shots*, at least one row was sampled.
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

    sampled = 0
    for r in records:
        if not r.scenario or not r.shots or r.yield_mc is None:
            continue
        sampled += 1
        tag = f"{r.label}/{r.scenario}@{r.severity:g}[{r.policy}]"
        p = r.yield_analytic
        if (
            p is None
            or r.yield_degraded is None
            or abs(p - r.yield_degraded) > 1e-9
        ):
            failures.append(
                f"{tag}: MC sampled a different program than the "
                f"degradation stage (analytic={p}, "
                f"degraded={r.yield_degraded})"
            )
            continue
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / r.shots)
        if r.yield_mc < p - SIGMA_GATE * sigma:
            failures.append(
                f"{tag}: yield_mc={r.yield_mc:.4f} more than "
                f"{SIGMA_GATE:g} sigma below the per-site analytic "
                f"yield {p:.4f} (sigma={sigma:.4f})"
            )
    if shots > 0 and not sampled:
        failures.append(
            "no Monte-Carlo rows sampled despite shots > 0 — the "
            "per-site sampler never ran"
        )
    return failures


def check_claims(exhibit: str, records: Sequence[RunRecord]) -> List[str]:
    """The paper's claims on one exhibit's run-table records.

    Returns a list of failure messages (empty = pass).  Checks:

    * ``table2``: every row improves depth at least 5x and #fusions at
      least 10x; at 16 qubits BV has the largest fusion improvement,
      QFT the smallest, and BV the smallest depth; each benchmark's
      36-qubit fusion improvement is at least half its 16-qubit one;
      BV-100's fusion improvement exceeds BV-16's;
    * ``fig12``: every improvement exceeds 1;
    * ``fig15``: per benchmark, depth at the smallest area is at least
      depth at the largest;
    * ``degrade-sweep``: :func:`check_recovery` at the grid's
      ``DEGRADE_SHOTS``.

    ``fig13``, ``fig14``, ``ablation`` and ``noise-sweep`` carry no
    claim.
    """
    if exhibit == "table2":
        return _table2_claims(records)
    if exhibit == "fig12":
        return [
            f"{r.label} on {r.resource_state}: improvement depth "
            f"x{r.depth_improvement or 0:.2f} / #fusions "
            f"x{r.fusion_improvement or 0:.2f} is not above 1"
            for r in records
            if (r.depth_improvement or 0) <= 1
            or (r.fusion_improvement or 0) <= 1
        ]
    if exhibit == "fig15":
        return _fig15_claims(records)
    if exhibit == "degrade-sweep":
        return check_recovery(records, shots=DEGRADE_SHOTS)
    return []
