"""Graceful degradation: recovery policies for damaged hardware.

Given a compiled program and a per-site degradation scenario
(:class:`repro.hardware.degradation.SiteNoiseMap`), this module answers
the operational question: *can the program still run on this device,
and what is the cheapest intervention that saves it?*  Three policies
form a ladder, cheapest first:

* ``survive`` — run the program exactly as compiled.  Dead or heavily
  degraded cells under active sites collapse the yield (a fusion on a
  dead site never succeeds: yield exactly 0).
* ``reroute`` — local surgery on the existing layouts: node placements
  sitting on avoided cells are relocated to the nearest healthy free
  cell, and every fusion path touching an avoided cell (or a moved
  endpoint) is re-routed through healthy cells with the same bit-packed
  shortest-path kernel the mapper uses.  Pairs that no longer fit in
  their layer fall back to freshly allocated shuffle layers with the
  avoided cells pre-blocked.  No recompilation, no global re-layout.
* ``recompile`` — full compile with the avoided cells pre-blocked in
  the mapper (:attr:`repro.core.compiler.OneQConfig.blocked_cells`);
  the most expensive option, and the only one that can raise
  :class:`repro.core.mapping.NoViableSitesError` when the device has no
  usable cells left.

Yields are the per-site closed form
(:func:`repro.hardware.degradation.site_analytic_yield`) over each
candidate program's own site assignment, so a policy is credited
exactly for the bad cells it vacates.  ``recover`` walks the ladder and
returns a :class:`DegradationReport`; ``apply_policy`` evaluates one
policy for sweep harnesses that grid over policies explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.circuit.circuit import Circuit
from repro.core.compiler import (
    CompiledProgram,
    OneQCompiler,
    OneQConfig,
    settle_photon_budget,
)
from repro.core.mapping import LayerLayout, NoViableSitesError
from repro.core.shuffling import connect_pairs
from repro.hardware.degradation import (
    SiteNoiseMap,
    program_site_profile,
    site_analytic_yield,
)
from repro.hardware.fusion import FusionTally
from repro.sim.noisy import FaultCounts
from repro.utils.bitgrid import lexmin_path, nearest_free, spec_for

Coord = Tuple[int, int]

#: The recovery ladder, cheapest intervention first.
POLICIES: Tuple[str, ...] = ("survive", "reroute", "recompile")

#: A policy counts as a recovery when it retains at least this fraction
#: of the clean-hardware yield (and the yield is not exactly 0).
RECOVERY_THRESHOLD = 0.5


@dataclass
class PolicyOutcome:
    """One policy's result on one (program, scenario) instance."""

    policy: str
    program: Optional[CompiledProgram]
    yield_degraded: float
    #: fusions living on re-routed paths / re-allocated shuffle routes
    #: (0 for ``survive``; for ``recompile`` every fusion is re-placed,
    #: so the count is the recompiled program's fusion total)
    rerouted_fusions: int = 0
    #: fusion-count change versus the input program (detour cost)
    fusion_delta: int = 0
    error: Optional[str] = None


@dataclass
class DegradationReport:
    """Outcome of running the recovery ladder on one scenario."""

    scenario: str
    severity: float
    dead_fraction: float
    #: the chosen policy (first ladder rung meeting the recovery bar,
    #: else the best-yield rung attempted)
    policy: str
    recovered: bool
    yield_clean: float
    yield_degraded: float
    #: the as-compiled yield under the scenario (the ``survive`` rung),
    #: kept separately so reports can show the collapse being recovered
    yield_survive: float
    rerouted_fusions: int = 0
    fusion_delta: int = 0
    attempted: Tuple[str, ...] = ()
    policy_yields: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    #: the chosen rung's program (``None`` when that rung failed)
    program: Optional[CompiledProgram] = None

    def summary(self) -> str:
        """One-line human-readable digest."""
        verdict = "recovered" if self.recovered else "LOST"
        return (
            f"{self.scenario}@{self.severity:g}: {verdict} via "
            f"{self.policy} (clean={self.yield_clean:.4f} "
            f"survive={self.yield_survive:.4f} "
            f"degraded={self.yield_degraded:.4f}, "
            f"rerouted={self.rerouted_fusions}, "
            f"fusion_delta={self.fusion_delta:+d})"
        )


def program_yield(program: CompiledProgram, site_map: SiteNoiseMap) -> float:
    """Per-site analytic yield of *program* under *site_map*."""
    profile = program_site_profile(program, site_map.shape)
    return site_analytic_yield(profile, site_map, program.pattern_nodes)


def clean_yield(program: CompiledProgram, site_map: SiteNoiseMap) -> float:
    """The program's yield on pristine hardware (the scenario's base
    scalar model) — the reference every recovery is measured against."""
    return FaultCounts.from_program(program).analytic_yield(site_map.base)


# ----------------------------------------------------------------------
# reroute: local surgery on the compiled layouts
# ----------------------------------------------------------------------
def reroute_program(
    program: CompiledProgram,
    site_map: SiteNoiseMap,
    config: OneQConfig,
) -> Tuple[CompiledProgram, int]:
    """Re-route *program* around the scenario's avoided cells.

    Per mapped layer: node placements on avoided cells move to the
    nearest healthy free cell (bit-packed nearest-free scan, so the
    choice is deterministic), then every fusion path that touches an
    avoided cell or a moved endpoint is re-routed with the mapper's
    lexicographically-minimal shortest-path kernel over healthy free
    cells.  Pairs with no in-layer route left fall back to new shuffle
    layers allocated with the avoided cells pre-blocked.  Returns
    ``(program, rerouted_fusions)`` where the count covers every fusion
    living on a re-routed in-layer path or fallback shuffle route.  The
    returned program is a new object (layouts, tally and photon
    bookkeeping all rebuilt); the input is never mutated.

    Raises RuntimeError when a displaced node has no healthy free cell
    in its layer or a fallback pair cannot be shuffled — the caller
    should escalate to ``recompile``.
    """
    shape = site_map.shape
    if program.layouts and program.layouts[0].shape != shape:
        raise ValueError(
            f"program layer shape {program.layouts[0].shape} != site map "
            f"shape {shape}"
        )
    avoid = set(site_map.avoid_cells())
    spec = spec_for(shape)
    stride = spec.stride
    avoid_bits = 0
    for (r, c) in avoid:
        avoid_bits |= spec.bit[r * stride + c]

    new_layouts: List[LayerLayout] = []
    shuffle_pairs: List[Tuple[Coord, Coord]] = []
    rerouted_fusions = 0
    routing_delta = 0
    edge_removed = 0
    aux_delta = 0
    for layout in program.layouts:
        moves: Dict[Coord, Coord] = {}
        occupied_bits = 0
        for cell in list(layout.node_at) + list(layout.aux_cells):
            occupied_bits |= spec.bit[cell[0] * stride + cell[1]]
        # 1. relocate displaced nodes, nearest healthy free cell first
        for cell in sorted(set(layout.node_at) & avoid):
            near_idx = cell[0] * stride + cell[1]
            hit = nearest_free(
                spec, occupied_bits | avoid_bits, near_idx
            )
            if hit is None:
                raise RuntimeError(
                    f"layer {layout.index}: no healthy free cell left to "
                    f"relocate the node at {cell}"
                )
            target = spec.coord[hit]
            moves[cell] = target
            occupied_bits |= spec.bit[hit]
            occupied_bits &= ~spec.bit[near_idx]
        # 2. split paths into kept and affected
        affected: List[List[Coord]] = []
        kept: List[List[Coord]] = []
        for path in layout.paths:
            if any(c in avoid for c in path) or path[0] in moves or (
                path[-1] in moves
            ):
                affected.append(path)
            else:
                kept.append(path)
        node_at = {
            moves.get(cell, cell): node
            for cell, node in layout.node_at.items()
        }
        aux_cells = {c for p in kept for c in p[1:-1]}
        if not moves and not affected:
            new_layouts.append(
                LayerLayout(
                    index=layout.index,
                    shape=layout.shape,
                    node_at=node_at,
                    aux_cells=set(layout.aux_cells),
                    paths=[list(p) for p in layout.paths],
                    incomplete=set(layout.incomplete),
                )
            )
            continue
        occupied_bits = 0
        for cell in list(node_at) + list(aux_cells):
            occupied_bits |= spec.bit[cell[0] * stride + cell[1]]
        # 3. re-route affected paths through healthy free cells
        new_paths = [list(p) for p in kept]
        for path in sorted(affected):
            a = moves.get(path[0], path[0])
            b = moves.get(path[-1], path[-1])
            old_interior = len(path) - 2
            idx_path = lexmin_path(
                spec,
                spec.full & ~(occupied_bits | avoid_bits),
                a[0] * stride + a[1],
                b[0] * stride + b[1],
            )
            if idx_path is None:
                # no in-layer route left: realize the pair on a shuffle
                # layer instead (its edge fusion moves to shuffling)
                shuffle_pairs.append((a, b))
                routing_delta -= old_interior
                aux_delta -= old_interior
                edge_removed += 1
                continue
            new_path = [spec.coord[i] for i in idx_path]
            interior = new_path[1:-1]
            for cell in interior:
                occupied_bits |= spec.bit[cell[0] * stride + cell[1]]
            aux_cells.update(interior)
            new_paths.append(new_path)
            # 1 edge fusion + one routing fusion per new aux cell
            rerouted_fusions += 1 + len(interior)
            routing_delta += len(interior) - old_interior
            aux_delta += len(interior) - old_interior
        new_layouts.append(
            LayerLayout(
                index=layout.index,
                shape=layout.shape,
                node_at=node_at,
                aux_cells=aux_cells,
                paths=new_paths,
                incomplete=set(layout.incomplete),
            )
        )

    # 4. shuffle-layer fallback for pairs that lost their in-layer route
    extra_shuffle_layers = 0
    shuffle_fusions_added = 0
    shuffle_states_added = 0
    if shuffle_pairs:
        result = connect_pairs(shuffle_pairs, shape, blocked=avoid)
        extra_shuffle_layers = result.num_layers
        shuffle_fusions_added = result.fusions
        shuffle_states_added = result.resource_states

    # 5. rebuild the tally and the photon budget
    old = program.fusions
    edge = old.edge
    synthesis = old.synthesis
    removed = min(edge_removed, edge)
    edge -= removed
    # chain-edge paths, if any, were tallied as synthesis
    synthesis = max(0, synthesis - (edge_removed - removed))
    tally = FusionTally(
        synthesis=synthesis,
        edge=edge,
        routing=old.routing + routing_delta,
        shuffling=old.shuffling + shuffle_fusions_added,
        extra=dict(old.extra),
    )
    resource_states = (
        program.resource_states_used + aux_delta + shuffle_states_added
    )
    tally.z_measurements, photon_deficit = settle_photon_budget(
        tally,
        resource_states,
        config.hardware.resource_state.size,
        program.pattern_nodes,
        name=f"{program.name}(rerouted)",
    )
    rerouted_fusions += shuffle_fusions_added
    rerouted = replace(
        program,
        name=f"{program.name}(rerouted)",
        mapping_layers=len(new_layouts),
        shuffle_layers=program.shuffle_layers + extra_shuffle_layers,
        fusions=tally,
        layouts=new_layouts,
        resource_states_used=resource_states,
        photon_deficit=photon_deficit,
        stage_seconds=dict(program.stage_seconds),
    )
    return rerouted, rerouted_fusions


# ----------------------------------------------------------------------
# the policy ladder
# ----------------------------------------------------------------------
def apply_policy(
    policy: str,
    circuit: Circuit,
    program: CompiledProgram,
    site_map: SiteNoiseMap,
    config: OneQConfig,
) -> PolicyOutcome:
    """Evaluate one recovery policy; never raises on recovery failure.

    A policy that cannot produce a runnable program (re-route with no
    healthy cells left, recompile on an all-dead device) reports yield
    0 with the failure message in ``error`` instead of raising, so
    sweep harnesses can grid over policies uniformly.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; use one of {', '.join(POLICIES)}"
        )
    baseline_fusions = program.num_fusions
    try:
        if policy == "survive":
            return PolicyOutcome(
                policy=policy,
                program=program,
                yield_degraded=program_yield(program, site_map),
            )
        if policy == "reroute":
            candidate, rerouted = reroute_program(
                program, site_map, config
            )
        else:  # recompile: every fusion is re-placed from scratch
            avoid = site_map.avoid_cells()
            blocked = tuple(
                sorted(set(config.blocked_cells) | set(avoid))
            )
            candidate = OneQCompiler(
                replace(config, blocked_cells=blocked)
            ).compile(circuit, name=f"{program.name}(recompiled)")
            rerouted = candidate.num_fusions
    except (NoViableSitesError, RuntimeError) as exc:
        return PolicyOutcome(
            policy=policy, program=None, yield_degraded=0.0, error=str(exc)
        )
    return PolicyOutcome(
        policy=policy,
        program=candidate,
        yield_degraded=program_yield(candidate, site_map),
        rerouted_fusions=rerouted,
        fusion_delta=candidate.num_fusions - baseline_fusions,
    )


def recover(
    circuit: Circuit,
    program: CompiledProgram,
    site_map: SiteNoiseMap,
    config: OneQConfig,
    scenario: str = "custom",
    severity: float = 0.0,
    policies: Tuple[str, ...] = POLICIES,
) -> DegradationReport:
    """Walk the recovery ladder and report the cheapest rescue.

    Policies are attempted in ladder order; the first whose degraded
    yield retains ``RECOVERY_THRESHOLD`` of the clean yield (and is
    non-zero) wins.  If none qualifies, the best-yield attempt is reported with
    ``recovered=False`` (its error message, if any, is carried along).
    """
    if not policies:
        raise ValueError("need at least one policy to attempt")
    reference = clean_yield(program, site_map)
    bar = RECOVERY_THRESHOLD * reference
    attempted: List[str] = []
    outcomes: List[PolicyOutcome] = []
    yield_survive = None
    chosen: Optional[PolicyOutcome] = None
    for policy in policies:
        outcome = apply_policy(policy, circuit, program, site_map, config)
        attempted.append(policy)
        outcomes.append(outcome)
        if policy == "survive":
            yield_survive = outcome.yield_degraded
        if outcome.yield_degraded > 0.0 and outcome.yield_degraded >= bar:
            chosen = outcome
            break
    recovered = chosen is not None
    if chosen is None:
        chosen = max(outcomes, key=lambda o: o.yield_degraded)
    if yield_survive is None:
        # ladder started past "survive": evaluate it for the report
        yield_survive = program_yield(program, site_map)
    return DegradationReport(
        scenario=scenario,
        severity=severity,
        dead_fraction=site_map.dead_fraction,
        policy=chosen.policy,
        recovered=recovered,
        yield_clean=reference,
        yield_degraded=chosen.yield_degraded,
        yield_survive=yield_survive,
        rerouted_fusions=chosen.rerouted_fusions,
        fusion_delta=chosen.fusion_delta,
        attempted=tuple(attempted),
        policy_yields={
            o.policy: o.yield_degraded for o in outcomes
        },
        error=chosen.error,
        program=chosen.program,
    )
