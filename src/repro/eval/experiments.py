"""Experiment runners: one per table/figure of the paper's evaluation.

Each ``run_*`` function regenerates the corresponding table or figure
data with our compiler stack; renderers in :mod:`repro.eval.reporting`
print them in the paper's format.  Absolute values are not expected to
match the paper (our baseline router and substrates differ) but the
shapes — who wins, by what order of magnitude, where trends bend — are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baseline.interpreter import BaselineResult, compile_baseline
from repro.baseline.metrics import BaselineAreas, physical_side
from repro.circuit.benchmarks import get_benchmark
from repro.core.compiler import CompiledProgram, OneQCompiler, OneQConfig
from repro.hardware.coupling import HardwareConfig
from repro.hardware.resource_state import (
    RESOURCE_STATES,
    THREE_LINE,
    ResourceStateType,
)

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


@dataclass
class ComparisonRow:
    """One Table 2 row: baseline vs OneQ on the same physical area."""

    name: str
    num_qubits: int
    baseline: BaselineResult
    oneq: CompiledProgram

    @property
    def label(self) -> str:
        return f"{self.name}-{self.num_qubits}"

    @property
    def depth_improvement(self) -> float:
        return self.baseline.depth / max(1, self.oneq.physical_depth)

    @property
    def fusion_improvement(self) -> float:
        return self.baseline.num_fusions / max(1, self.oneq.num_fusions)


def _hardware_for(
    num_qubits: int,
    resource_state: ResourceStateType,
    ratio: float = 1.0,
    area: Optional[int] = None,
    extension: int = 1,
) -> HardwareConfig:
    """Hardware sized like the baseline requires (Sec. 7.1), by default."""
    if area is None:
        side = physical_side(num_qubits, resource_state)
        area = side * side
    return HardwareConfig.with_area(
        area, ratio=ratio, resource_state=resource_state, extension=extension
    )


def compare_one(
    name: str,
    num_qubits: int,
    resource_state: ResourceStateType = THREE_LINE,
    ratio: float = 1.0,
    area: Optional[int] = None,
    seed: int = 7,
    **compiler_kwargs,
) -> ComparisonRow:
    """Compile one benchmark with both flows on the same physical area."""
    circuit = get_benchmark(name, num_qubits, seed=seed)
    baseline = compile_baseline(circuit, name=name, resource_state=resource_state)
    hardware = _hardware_for(num_qubits, resource_state, ratio=ratio, area=area)
    compiler = OneQCompiler(OneQConfig(hardware=hardware, **compiler_kwargs))
    oneq = compiler.compile(circuit, name=f"{name}-{num_qubits}")
    return ComparisonRow(
        name=name, num_qubits=num_qubits, baseline=baseline, oneq=oneq
    )


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def run_table1(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
) -> List[Tuple[str, BaselineAreas]]:
    """Benchmark programs and their baseline areas (Table 1).

    Defaults to the paper's own rows: the compile grid's extra
    100-qubit scaling rows have no Table-1 counterpart to compare
    against.
    """
    if benchmarks is None:
        benchmarks = [key for key in TABLE_BENCHMARKS if key in PAPER_TABLE2]
    return [
        (name, BaselineAreas.for_qubits(n)) for name, n in benchmarks
    ]


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
def run_table2(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
    resource_state: ResourceStateType = THREE_LINE,
) -> List[ComparisonRow]:
    """Baseline vs OneQ on every benchmark (Table 2)."""
    benchmarks = list(benchmarks or TABLE_BENCHMARKS)
    return [
        compare_one(name, n, resource_state=resource_state)
        for name, n in benchmarks
    ]


# ----------------------------------------------------------------------
# Figure 12: resource-state types
# ----------------------------------------------------------------------
def run_fig12(
    num_qubits: int = 16,
    benchmarks: Sequence[str] = ("QFT", "QAOA", "RCA", "BV"),
    resource_states: Optional[Sequence[str]] = None,
) -> Dict[str, List[ComparisonRow]]:
    """Improvement factors for each resource-state type (Fig. 12)."""
    names = list(resource_states or RESOURCE_STATES.keys())
    out: Dict[str, List[ComparisonRow]] = {}
    for rst_name in names:
        rst = RESOURCE_STATES[rst_name]
        out[rst_name] = [
            compare_one(bench, num_qubits, resource_state=rst)
            for bench in benchmarks
        ]
    return out


# ----------------------------------------------------------------------
# Figure 13: layer aspect ratio
# ----------------------------------------------------------------------
#: The paper's four layer shapes for 16-qubit benchmarks.
FIG13_SHAPES: List[Tuple[float, Tuple[int, int]]] = [
    (1.0, (16, 16)),
    (1.5, (13, 20)),
    (2.1, (11, 23)),
    (2.6, (10, 26)),
]


def run_fig13(
    num_qubits: int = 16,
    benchmarks: Sequence[str] = ("QFT", "QAOA", "RCA", "BV"),
    seed: int = 7,
) -> Dict[str, Dict[float, CompiledProgram]]:
    """OneQ on rectangular layers, keyed benchmark -> ratio (Fig. 13)."""
    out: Dict[str, Dict[float, CompiledProgram]] = {}
    for bench in benchmarks:
        circuit = get_benchmark(bench, num_qubits, seed=seed)
        per_ratio: Dict[float, CompiledProgram] = {}
        for ratio, (rows, cols) in FIG13_SHAPES:
            hardware = HardwareConfig(rows=rows, cols=cols)
            compiler = OneQCompiler(OneQConfig(hardware=hardware))
            per_ratio[ratio] = compiler.compile(
                circuit, name=f"{bench}-{num_qubits}@{ratio}"
            )
        out[bench] = per_ratio
    return out


# ----------------------------------------------------------------------
# Figure 15: physical area sweep
# ----------------------------------------------------------------------
def run_fig15(
    num_qubits: int = 16,
    benchmarks: Sequence[str] = ("QFT", "QAOA", "RCA", "BV"),
    areas: Sequence[int] = (100, 200, 256, 400, 600, 800, 1000),
    seed: int = 7,
) -> Dict[str, Dict[int, CompiledProgram]]:
    """OneQ across physical areas (Fig. 15; 256 is the baseline area)."""
    out: Dict[str, Dict[int, CompiledProgram]] = {}
    for bench in benchmarks:
        circuit = get_benchmark(bench, num_qubits, seed=seed)
        per_area: Dict[int, CompiledProgram] = {}
        for area in areas:
            hardware = HardwareConfig.with_area(area)
            compiler = OneQCompiler(OneQConfig(hardware=hardware))
            per_area[area] = compiler.compile(
                circuit, name=f"{bench}-{num_qubits}@{area}"
            )
        out[bench] = per_area
    return out


# ----------------------------------------------------------------------
# Fidelity estimate (paper Sec. 2.1 motivation, extension experiment)
# ----------------------------------------------------------------------
def run_fidelity(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
    model=None,
) -> List[Tuple[ComparisonRow, float, float, float]]:
    """Estimated log-fidelity of baseline vs OneQ programs.

    Returns ``(row, baseline_logF, oneq_logF, improvement_factor)`` per
    benchmark, quantifying the paper's claim that reducing fusions
    enhances overall fidelity.
    """
    from repro.hardware.noise import (
        DEFAULT_NOISE,
        baseline_log_fidelity,
        fidelity_improvement_factor,
        program_log_fidelity,
    )

    model = model or DEFAULT_NOISE
    benchmarks = list(benchmarks or [(n, 16) for n in ("QFT", "QAOA", "RCA", "BV")])
    out = []
    for name, n in benchmarks:
        row = compare_one(name, n)
        base_lf = baseline_log_fidelity(row.baseline, model)
        oneq_lf = program_log_fidelity(row.oneq, model)
        factor = fidelity_improvement_factor(row.oneq, row.baseline, model)
        out.append((row, base_lf, oneq_lf, factor))
    return out


# ----------------------------------------------------------------------
# Noise sweep: Monte-Carlo yield across noise x hardware coordinates
# ----------------------------------------------------------------------
#: Default 16-qubit grid for the noise sweep (one Clifford benchmark —
#: BV — gets full Monte-Carlo treatment; the rest are analytic-only).
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
):
    """Build the spec grid for :func:`run_noise_sweep`.

    One :class:`repro.eval.batch.RunSpec` per (benchmark, resource
    state, fusion_success, cycle_loss) coordinate; every spec carries
    ``shots`` Monte-Carlo shots and its noise overrides, so yields and
    throughput land in the run-table columns.
    """
    from repro.eval.batch import RunSpec

    benchmarks = list(benchmarks or NOISE_SWEEP_BENCHMARKS)
    specs = []
    for name, n in benchmarks:
        for rst_name in resource_states:
            for fs in fusion_success:
                for cl in cycle_loss:
                    specs.append(
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
                        )
                    )
    return specs


def run_noise_sweep(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
    fusion_success: Sequence[float] = (0.5, 0.75),
    cycle_loss: Sequence[float] = (0.001, 0.01),
    resource_states: Sequence[str] = ("3-line",),
    shots: int = 2000,
    seed: int = 7,
    jobs: Optional[int] = None,
    cache_dir=None,
    out_dir=None,
    stem: str = "noise_sweep",
    label: str = "noise_sweep",
):
    """Sweep noise-model and hardware coordinates, sampling yields.

    The paper's whole argument is hardware-physical: compiled-program
    quality is ultimately end-to-end success probability (Sec. 2.1,
    3.1).  This runner makes that a first-class sweepable workload:
    each benchmark is compiled per resource-state choice, its compiled
    fault counts feed the Monte-Carlo sampler per noise point, and the
    run table gains ``yield_mc`` / ``yield_analytic`` columns.  When
    *out_dir* is given, artifacts (``<stem>.json``/``.csv`` +
    ``BENCH_<label>.json``) are persisted there.

    Args mirror :func:`noise_sweep_specs`; ``jobs``/``cache_dir`` are
    forwarded to :class:`repro.eval.batch.BatchRunner`.
    """
    from repro.eval.batch import (
        BatchRunner,
        write_noise_sweep_json,
        write_run_table,
    )

    specs = noise_sweep_specs(
        benchmarks,
        fusion_success=fusion_success,
        cycle_loss=cycle_loss,
        resource_states=resource_states,
        shots=shots,
        seed=seed,
    )
    runner = BatchRunner(jobs=jobs, cache_dir=cache_dir)
    records = runner.run(specs)
    if out_dir is not None:
        meta = {
            "grid": "noise_sweep",
            "seed": seed,
            "shots": shots,
            "fusion_success": list(fusion_success),
            "cycle_loss": list(cycle_loss),
            "resource_states": list(resource_states),
        }
        write_run_table(records, out_dir, stem=stem, meta=meta)
        import pathlib

        write_noise_sweep_json(
            records,
            pathlib.Path(out_dir) / f"BENCH_{label}.json",
            label=label,
            meta=meta,
        )
    return records


# ----------------------------------------------------------------------
# Ablations: the design choices DESIGN.md calls out
# ----------------------------------------------------------------------
def run_ablation(
    name: str = "QFT",
    num_qubits: int = 16,
    seed: int = 7,
) -> Dict[str, CompiledProgram]:
    """Compile one benchmark under each compiler variant.

    Variants: ``default``, ``lemma1-scheduling`` (pure Lemma-1 layers,
    geometry scattered), ``no-embedding`` (ignore planar rotational
    order), ``no-hints`` (no cross-partition placement hints), and
    ``alpha-1`` (weak total-blockage penalty).
    """
    from repro.core.partition import PartitionConfig

    circuit = get_benchmark(name, num_qubits, seed=seed)
    hardware = _hardware_for(num_qubits, THREE_LINE)

    def compile_with(**kwargs) -> CompiledProgram:
        compiler = OneQCompiler(OneQConfig(hardware=hardware, **kwargs))
        return compiler.compile(circuit, name=f"{name}-{num_qubits}")

    return {
        "default": compile_with(),
        "lemma1-scheduling": compile_with(
            partition=PartitionConfig(scheduling="lemma1")
        ),
        "no-embedding": compile_with(use_embedding=False),
        "no-hints": compile_with(use_placement_hints=False),
        "alpha-1": compile_with(alpha=1.5),
    }


# ----------------------------------------------------------------------
# Figure 14: extended physical layers
# ----------------------------------------------------------------------
def run_fig14(
    num_qubits: int = 16, side: int = 13, extension: int = 3, seed: int = 7
) -> CompiledProgram:
    """QFT mapping on an extended layer (Fig. 14: 3 x 13x13 -> 13x39)."""
    circuit = get_benchmark("QFT", num_qubits, seed=seed)
    hardware = HardwareConfig(rows=side, cols=side, extension=extension)
    compiler = OneQCompiler(OneQConfig(hardware=hardware))
    return compiler.compile(circuit, name=f"QFT-{num_qubits}-ext{extension}")
