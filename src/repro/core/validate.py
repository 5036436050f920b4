"""Post-compilation validation against the hardware and circuit model.

The mapper tracks its own occupancy while placing; this module re-checks
the finished layouts against first principles — the formal coupling
graph of Sec. 3.1 and the photon budget of the resource states — so a
mapper bug cannot silently emit an unimplementable program.

Hardware checks:

* every cell hosts at most one resource state (node or auxiliary);
* every recorded fusion path steps along lattice-adjacent cells;
* no resource state participates in more fusions than it has photons;
* auxiliary cells carry exactly one path (small-resource-state planarity
  constraint, Sec. 3.2 'Additional Challenge').

Semantic checks (:func:`verify_pattern`): the translated measurement
pattern must implement the source circuit.  The engine is picked
automatically — Clifford-dominated patterns (every measurement at a
Pauli angle) run on the bit-packed stabilizer engine, which scales to
hundreds of qubits; everything else falls back to the dense pattern
simulator when the output register is small enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.circuit.circuit import Circuit
from repro.core.compiler import CompiledProgram
from repro.core.mapping import LayerLayout
from repro.hardware.coupling import HardwareConfig
from repro.mbqc.pattern import MeasurementPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.degradation import SiteNoiseMap, SiteProfile
    from repro.hardware.noise import NoiseModel
    from repro.sim.noisy import FaultCounts

Coord = Tuple[int, int]


class ValidationError(AssertionError):
    """A compiled program violates a hardware constraint."""


def _check_layer(
    layout: LayerLayout, hardware: HardwareConfig, errors: List[str]
) -> None:
    rows, cols = layout.shape
    size = hardware.resource_state.size

    overlap = set(layout.node_at) & layout.aux_cells
    if overlap:
        errors.append(
            f"layer {layout.index}: cells host both node and aux: "
            f"{sorted(overlap)[:3]}"
        )

    for coord in list(layout.node_at) + list(layout.aux_cells):
        r, c = coord
        if not (0 <= r < rows and 0 <= c < cols):
            errors.append(f"layer {layout.index}: {coord} outside {layout.shape}")

    fusion_load: Dict[Coord, int] = {}
    path_load: Dict[Coord, int] = {}
    for path in layout.paths:
        if len(path) < 2:
            errors.append(f"layer {layout.index}: degenerate path {path}")
            continue
        for a, b in zip(path, path[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                errors.append(
                    f"layer {layout.index}: non-adjacent step {a}->{b}"
                )
        for end in (path[0], path[-1]):
            fusion_load[end] = fusion_load.get(end, 0) + 1
        for cell in path[1:-1]:
            fusion_load[cell] = fusion_load.get(cell, 0) + 2
            path_load[cell] = path_load.get(cell, 0) + 1
            if cell not in layout.aux_cells:
                errors.append(
                    f"layer {layout.index}: path interior {cell} is not aux"
                )

    for coord, load in fusion_load.items():
        if load > size:
            errors.append(
                f"layer {layout.index}: cell {coord} burns {load} photons "
                f"but the resource state has {size}"
            )
    for coord, paths in path_load.items():
        if paths > 1:
            errors.append(
                f"layer {layout.index}: aux cell {coord} carries {paths} "
                "routing paths (max 1 for small resource states)"
            )


def validate_program(
    program: CompiledProgram, hardware: HardwareConfig
) -> Tuple[bool, List[str]]:
    """Check *program*'s layouts; returns ``(ok, error_list)``."""
    errors: List[str] = []
    expected_shape = hardware.extended_shape
    for layout in program.layouts:
        if layout.shape != expected_shape:
            errors.append(
                f"layer {layout.index}: shape {layout.shape} != hardware "
                f"{expected_shape}"
            )
        _check_layer(layout, hardware, errors)
    return (not errors), errors


def assert_valid(program: CompiledProgram, hardware: HardwareConfig) -> None:
    """Raise :class:`ValidationError` when the program is invalid."""
    ok, errors = validate_program(program, hardware)
    if not ok:
        raise ValidationError(
            f"{len(errors)} hardware violations; first: {errors[0]}"
        )


# ----------------------------------------------------------------------
# semantic verification: pattern implements circuit
# ----------------------------------------------------------------------
@dataclass
class PatternVerification:
    """Result of one :func:`verify_pattern` call.

    ``ok`` is ``None`` when no engine could handle the instance
    (``method == "skipped"``) — a skip must never read as a pass.

    The ``static`` method certifies *determinism and feed-forward
    consistency* (flow certificate + lint), not full circuit
    equivalence; ``detail`` says so explicitly.
    """

    ok: Optional[bool]
    method: str  # "stabilizer" | "statevector" | "static" | "skipped"
    detail: str = ""


def _verify_stabilizer(
    circuit: Circuit, pattern: MeasurementPattern, seed: Optional[int]
) -> Tuple[bool, str]:
    """Check the pattern's output state against the circuit's on the CHP
    engine.

    The pattern runs on the live-window tableau (one random outcome
    branch); every measured node's slot is freed, so what is left is
    the pure output state, fully determined by its stabilizer group.  It
    equals the circuit state iff every generator of the circuit's output
    stabilizer group, lifted onto the output slots, is a deterministic
    ``+1``-with-recorded-sign measurement there — ``n`` independent
    generators on ``n`` output qubits pin the state exactly.
    """
    from repro.sim.pattern_sim import StabilizerPatternSimulator
    from repro.sim.stabilizer import circuit_stabilizer_rows

    if len(pattern.outputs) != circuit.num_qubits:
        return False, (
            f"pattern has {len(pattern.outputs)} outputs for a "
            f"{circuit.num_qubits}-qubit circuit"
        )
    rows = circuit_stabilizer_rows(circuit)
    result = StabilizerPatternSimulator(pattern, seed=seed).run()
    violated = result.violated_generator(pattern.outputs, rows)
    if violated is not None:
        wire, observed = violated
        got = "random" if observed is None else f"sign {observed}"
        return False, (
            f"circuit stabilizer generator {wire} does not hold on the "
            f"pattern output state (expected sign {rows[wire][2]}, "
            f"got {got})"
        )
    return True, (
        f"{circuit.num_qubits} circuit stabilizers hold on the pattern "
        f"output (peak live window {result.peak_window} of "
        f"{pattern.num_nodes} nodes)"
    )


def _verify_statevector(
    circuit: Circuit, pattern: MeasurementPattern, seed: Optional[int]
) -> Tuple[bool, str]:
    from repro.sim.pattern_sim import simulate_pattern
    from repro.sim.statevector import fidelity, simulate, states_equal_up_to_phase

    reference = simulate(circuit)
    result = simulate_pattern(pattern, seed=seed)
    ok = states_equal_up_to_phase(reference, result.state)
    return ok, f"fidelity={fidelity(reference, result.state):.6f}"


def _verify_static(pattern: MeasurementPattern) -> Tuple[bool, str]:
    """Certify *pattern* statically: lint + flow determinism certificate.

    A pass means the pattern is structurally sound, carries a causal
    flow / gflow determinism certificate, and (under causal flow) its
    recorded feed-forward sets equal the flow-induced ones.  It does
    **not** check the measurement *angles* against the circuit — that
    needs an executing engine — so the detail string states the weaker
    claim explicitly.
    """
    from repro.analysis.lint import lint_pattern

    report = lint_pattern(pattern)
    if not report.ok:
        first = report.errors()[0]
        return False, (
            f"{len(report.errors())} lint error(s); first: {first.render()}"
        )
    assert report.certificate is not None
    return True, (
        f"determinism certified ({report.certificate.summary()}); "
        "angles not checked against the circuit (static method)"
    )


def verify_pattern(
    circuit: Circuit,
    pattern: Optional[MeasurementPattern] = None,
    seed: Optional[int] = 7,
    max_dense_outputs: int = 12,
    method: str = "auto",
) -> PatternVerification:
    """Check that *pattern* (default: the translation of *circuit*)
    implements *circuit*.

    ``method="auto"`` picks the strongest applicable engine: Clifford
    patterns go to the stabilizer engine regardless of size;
    non-Clifford patterns use the dense pattern simulator when the
    output register has at most ``max_dense_outputs`` qubits; everything
    else falls back to the ``static`` method — flow-based determinism
    certification plus the pattern lint — instead of a bare skip.
    ``method`` can also force one engine: ``"stabilizer"``,
    ``"statevector"`` or ``"static"``.
    """
    from repro.mbqc.translate import circuit_to_pattern
    from repro.sim.pattern_sim import pattern_is_clifford
    from repro.sim.stabilizer import circuit_is_clifford

    if method not in ("auto", "stabilizer", "statevector", "static"):
        raise ValueError(f"unknown verification method {method!r}")
    if pattern is None:
        pattern = circuit_to_pattern(circuit)
    if method == "static":
        ok, detail = _verify_static(pattern)
        return PatternVerification(ok, "static", detail)
    clifford = pattern_is_clifford(pattern) and circuit_is_clifford(circuit)
    if method == "stabilizer" and not clifford:
        raise ValueError(
            "stabilizer verification needs a Clifford circuit and pattern"
        )
    if clifford and method in ("auto", "stabilizer"):
        ok, detail = _verify_stabilizer(circuit, pattern, seed)
        return PatternVerification(ok, "stabilizer", detail)
    if method == "statevector" or len(pattern.outputs) <= max_dense_outputs:
        try:
            ok, detail = _verify_statevector(circuit, pattern, seed)
        except RuntimeError as exc:  # active-window blowup and kin
            return PatternVerification(None, "skipped", str(exc))
        return PatternVerification(ok, "statevector", detail)
    ok, detail = _verify_static(pattern)
    return PatternVerification(
        ok,
        "static",
        f"{len(pattern.outputs)} outputs exceed the dense limit "
        f"({max_dense_outputs}); fell back to static certification: "
        f"{detail}",
    )


# ----------------------------------------------------------------------
# Monte-Carlo yield estimation (noisy verification mode)
# ----------------------------------------------------------------------
@dataclass
class YieldEstimate:
    """Result of one :func:`estimate_yield` call.

    ``yield_analytic`` (the closed-form probability of a zero-fault
    execution) is always filled in; the Monte-Carlo fields are ``None``
    when no sampling engine applies (``method == "analytic-only"``, i.e.
    a non-Clifford program).

    Attributes:
        shots: sampled shots (0 when analytic-only).
        yield_mc: fraction of shots whose executed output state passed
            the circuit-stabilizer check.
        fault_free_yield: fraction of shots with zero fault events — the
            MC estimator of ``yield_analytic``.
        yield_analytic: closed-form zero-fault probability.
        sigma: binomial standard error of ``fault_free_yield``.
        attempts_per_fusion: mean sampled fusion attempts per required
            fusion under repeat-until-success (expected
            ``1 / fusion_success``), over the shots that completed their
            fusion sequence; the observable the ``fusion_success`` axis
            of a noise sweep moves.
        method: ``"mc-stabilizer"`` or ``"analytic-only"``.
        shots_per_second: sampling throughput; ``None`` when no sampling
            ran.
    """

    shots: int
    yield_mc: Optional[float]
    fault_free_yield: Optional[float]
    yield_analytic: float
    sigma: float
    method: str
    attempts_per_fusion: Optional[float] = None
    shots_per_second: Optional[float] = None
    detail: str = ""


def estimate_yield(
    circuit: Circuit,
    pattern: Optional[MeasurementPattern] = None,
    model: Optional["NoiseModel"] = None,
    shots: int = 2000,
    seed: Optional[int] = 7,
    counts: Optional["FaultCounts"] = None,
    site_map: Optional["SiteNoiseMap"] = None,
    site_profile: Optional["SiteProfile"] = None,
) -> YieldEstimate:
    """Estimate the end-to-end success probability of a compiled program.

    Clifford programs run *shots* Monte-Carlo shots on the bit-packed
    stabilizer engine (:class:`repro.sim.noisy.NoisySampler`): fusion
    Pauli errors and measurement flips are injected per sampled fault
    configuration, photon loss aborts the shot.  Non-Clifford programs
    fall back to the closed-form model only.

    Args:
        circuit: source circuit (defines the ideal output).
        pattern: measurement pattern; defaults to the translation of
            *circuit*.
        model: :class:`repro.hardware.noise.NoiseModel`; default
            ``DEFAULT_NOISE``.
        shots: Monte-Carlo shots (>= 2000 recommended for 3-sigma
            comparisons against the analytic prediction).
        seed: makes the whole estimate deterministic.
        counts: :class:`repro.sim.noisy.FaultCounts`; defaults to
            pattern-level accounting.  Pass
            ``FaultCounts.from_program(program)`` to use the compiled
            program's fusion tally and photon-cycle estimate.
        site_map: per-site degradation map
            (:class:`repro.hardware.degradation.SiteNoiseMap`); when
            given, fault configurations are sampled from the per-cell
            rates and *model* is ignored in favour of the map.  A
            non-Clifford program gets the map's closed form: the scalar
            model of a uniform map, the per-site product
            (:func:`repro.hardware.degradation.site_analytic_yield`) of
            a heterogeneous one.
        site_profile: event→site assignment for *site_map*; required for
            heterogeneous maps, sampled or not (``program_site_profile``
            builds one from a compiled program).

    Raises:
        ValueError: a heterogeneous *site_map* without *site_profile*,
            or any argument the sampler rejects.
    """
    from repro.hardware.degradation import site_analytic_yield
    from repro.hardware.noise import DEFAULT_NOISE
    from repro.mbqc.translate import circuit_to_pattern
    from repro.sim.noisy import (
        SITE_PROFILE_REQUIRED,
        FaultCounts,
        NoisySampler,
    )
    from repro.sim.pattern_sim import pattern_is_clifford
    from repro.sim.stabilizer import circuit_is_clifford

    model = model or DEFAULT_NOISE
    heterogeneous = False
    if site_map is not None:
        uniform = site_map.as_uniform_model()
        heterogeneous = uniform is None
        model = uniform or site_map.base
    if pattern is None:
        pattern = circuit_to_pattern(circuit)
    if counts is None:
        counts = FaultCounts.from_pattern(pattern)
    if not (pattern_is_clifford(pattern) and circuit_is_clifford(circuit)):
        if not heterogeneous:
            yield_analytic = counts.analytic_yield(model)
        elif site_profile is None:
            raise ValueError(SITE_PROFILE_REQUIRED)
        else:
            # no scalar model describes the map: take the per-site
            # product (exactly 0 for a dead-assigned program)
            assert site_map is not None
            yield_analytic = site_analytic_yield(
                site_profile, site_map, counts.measurements
            )
        return YieldEstimate(
            shots=0,
            yield_mc=None,
            fault_free_yield=None,
            yield_analytic=yield_analytic,
            sigma=0.0,
            method="analytic-only",
            detail="non-Clifford program; closed-form estimate only",
        )
    sampler = NoisySampler(
        circuit,
        pattern=pattern,
        model=model,
        counts=counts,
        seed=seed,
        site_map=site_map,
        site_profile=site_profile,
    )
    result = sampler.run(shots)
    return YieldEstimate(
        shots=shots,
        yield_mc=result.yield_mc,
        fault_free_yield=result.fault_free_yield,
        yield_analytic=result.yield_analytic,
        sigma=result.sigma,
        method="mc-stabilizer",
        attempts_per_fusion=result.attempts_per_fusion,
        shots_per_second=result.shots_per_second,
        detail=result.summary(),
    )
