"""Per-site hardware degradation: site noise maps and fault scenarios.

The uniform :class:`repro.hardware.noise.NoiseModel` treats every
resource-state generator (RSG) of the machine as identical.  Real
photonic hardware is not: RSGs die, fusion sites degrade unevenly, and
delay lines have spatially heterogeneous loss (the FBQC architecture the
paper targets is an array of physical devices, Sec. 2.1).  This module
is the per-site refinement:

* :class:`SiteNoiseMap` — per-physical-cell ``fusion_success`` /
  ``fusion_error`` / ``cycle_loss`` arrays over one (possibly extended)
  physical layer, plus a dead-site mask.  A dead site is unusable: no
  fusion there ever succeeds and every photon parked there is lost.
* scenario generators (:func:`make_scenario`) — parameterized hardware
  degradation families sharing one ``severity in [0, 1]`` axis: random
  dead-RSG fractions, spatial loss gradients and hotspots, per-site
  degraded fusion success.  Severity 0 is always the pristine uniform
  map.
* :class:`SiteProfile` / :func:`program_site_profile` — the bridge to a
  compiled program: a per-fault-event site assignment derived from the
  program's layer layouts, consumed by the Monte-Carlo sampler
  (:mod:`repro.sim.noisy`) and the analytic per-site yield
  (:func:`site_analytic_yield`).

The attribution model is first-order: each fusion / photon-cycle event
is assigned round-robin over the cells the compiled program actually
occupies (node cells and auxiliary routing cells, in layer order), so
unoccupied cells host no events and a program that avoids a bad region
genuinely escapes its noise.  A uniform map reproduces the scalar
``NoiseModel`` yield exactly, and the sampler pins the uniform case
bit-identical to the scalar path at a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.hardware.noise import DEFAULT_NOISE, NoiseModel

Coord = Tuple[int, int]

#: Scenario families accepted by :func:`make_scenario`, one severity
#: axis each (severity 0 = pristine uniform map in every family).
SCENARIOS: Tuple[str, ...] = (
    "dead-rsg",
    "loss-gradient",
    "loss-hotspot",
    "degraded-fusion",
)

#: Added cycle loss at the far edge of a severity-1 loss gradient.
LOSS_GRADIENT_SPAN = 0.02
#: Added cycle loss at the core of a severity-1 hotspot.
LOSS_HOTSPOT_PEAK = 0.1
#: Cells at or above this absolute cycle loss are worth routing around
#: even though they are not dead (see :meth:`SiteNoiseMap.avoid_mask`).
AVOID_CYCLE_LOSS = 0.05
#: Cells at or below this fusion success are worth routing around.
AVOID_FUSION_SUCCESS = 0.1


def _as_plane(value: Union[float, np.ndarray], shape: Coord) -> np.ndarray:
    """Broadcast *value* to a read-only float64 plane of *shape*."""
    plane = np.broadcast_to(np.asarray(value, dtype=np.float64), shape)
    plane = np.array(plane, dtype=np.float64)  # own the memory
    plane.setflags(write=False)
    return plane


@dataclass
class SiteNoiseMap:
    """Per-site noise rates over one (extended) physical layer.

    Attributes:
        shape: ``(rows, cols)`` of the layer grid
            (``HardwareConfig.extended_shape``).
        base: the scalar model the map degrades; supplies the (scalar)
            ``measurement_error`` channel and the pristine rates.
        fusion_success: per-site fusion success probability plane.
        fusion_error: per-site fusion Pauli-error probability plane.
        cycle_loss: per-site per-photon per-cycle loss probability plane.
        dead: boolean dead-site mask.  Dead sites are normalized to
            ``fusion_success=0`` / ``cycle_loss=1`` (nothing survives a
            dead RSG) at construction.
    """

    shape: Coord
    base: NoiseModel = DEFAULT_NOISE
    fusion_success: Optional[np.ndarray] = None
    fusion_error: Optional[np.ndarray] = None
    cycle_loss: Optional[np.ndarray] = None
    dead: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if rows <= 0 or cols <= 0:
            raise ValueError("site map shape must be positive")
        if self.fusion_success is None:
            self.fusion_success = _as_plane(self.base.fusion_success, self.shape)
        if self.fusion_error is None:
            self.fusion_error = _as_plane(self.base.fusion_error, self.shape)
        if self.cycle_loss is None:
            self.cycle_loss = _as_plane(self.base.cycle_loss, self.shape)
        if self.dead is None:
            dead = np.zeros(self.shape, dtype=bool)
        else:
            dead = np.array(self.dead, dtype=bool)
        if dead.shape != tuple(self.shape):
            raise ValueError(
                f"dead mask shape {dead.shape} != map shape {self.shape}"
            )
        planes = {}
        for name in ("fusion_success", "fusion_error", "cycle_loss"):
            plane = np.array(getattr(self, name), dtype=np.float64)
            if plane.shape != tuple(self.shape):
                raise ValueError(
                    f"{name} plane shape {plane.shape} != map shape "
                    f"{self.shape}"
                )
            if np.any(plane < 0.0) or np.any(plane > 1.0):
                raise ValueError(f"{name} entries must be probabilities")
            planes[name] = plane
        # dead-site semantics: no fusion ever succeeds there and every
        # photon parked there is lost
        planes["fusion_success"][dead] = 0.0
        planes["cycle_loss"][dead] = 1.0
        for name, plane in planes.items():
            plane.setflags(write=False)
            setattr(self, name, plane)
        dead.setflags(write=False)
        self.dead = dead

    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls, model: NoiseModel, shape: Coord
    ) -> "SiteNoiseMap":
        """The pristine map: every site at the scalar model's rates."""
        return cls(shape=shape, base=model)

    @property
    def n_sites(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def dead_fraction(self) -> float:
        assert self.dead is not None
        return float(self.dead.sum()) / self.n_sites

    @property
    def dead_cells(self) -> Tuple[Coord, ...]:
        """Dead-site coordinates in (row, col) order."""
        assert self.dead is not None
        return tuple(
            (int(r), int(c)) for r, c in np.argwhere(self.dead)
        )

    def as_uniform_model(self) -> Optional[NoiseModel]:
        """The scalar model this map reduces to, or None.

        A map with any dead site is never uniform (dead semantics are
        not expressible as one scalar rate plus a healthy grid).  The
        Monte-Carlo sampler uses this to delegate uniform maps to the
        scalar path so they stay bit-identical to ``NoiseModel`` runs.
        """
        assert self.dead is not None
        if bool(self.dead.any()):
            return None
        planes = (self.fusion_success, self.fusion_error, self.cycle_loss)
        values = []
        for plane in planes:
            assert plane is not None
            if float(np.ptp(plane)) != 0.0:
                return None
            values.append(float(plane.flat[0]))
        return NoiseModel(
            fusion_success=values[0],
            fusion_error=values[1],
            cycle_loss=values[2],
            measurement_error=self.base.measurement_error,
        )

    def avoid_mask(
        self,
        max_cycle_loss: float = AVOID_CYCLE_LOSS,
        min_fusion_success: float = AVOID_FUSION_SUCCESS,
    ) -> np.ndarray:
        """Sites recovery policies should route around.

        Dead sites plus alive-but-degraded ones past the absolute
        thresholds: cells losing ``max_cycle_loss`` of their photons per
        cycle, or fusing successfully at most ``min_fusion_success`` of
        the time, hurt yield more than the detour costs.
        """
        assert self.dead is not None
        assert self.cycle_loss is not None
        assert self.fusion_success is not None
        return (
            self.dead
            | (self.cycle_loss >= max_cycle_loss)
            | (self.fusion_success <= min_fusion_success)
        )

    def avoid_cells(
        self,
        max_cycle_loss: float = AVOID_CYCLE_LOSS,
        min_fusion_success: float = AVOID_FUSION_SUCCESS,
    ) -> Tuple[Coord, ...]:
        """:meth:`avoid_mask` as sorted (row, col) coordinates."""
        mask = self.avoid_mask(max_cycle_loss, min_fusion_success)
        return tuple((int(r), int(c)) for r, c in np.argwhere(mask))


# ----------------------------------------------------------------------
# scenario generators
# ----------------------------------------------------------------------
def scenario_dead_rsg(
    shape: Coord,
    severity: float,
    base: NoiseModel = DEFAULT_NOISE,
    seed: int = 7,
) -> SiteNoiseMap:
    """Random dead-RSG fraction: ``severity`` IS the dead fraction.

    ``round(severity * n_sites)`` uniformly chosen sites die outright;
    severity 1 kills the whole array (the degenerate no-viable-sites
    case recompilation must reject cleanly).
    """
    rows, cols = shape
    n = rows * cols
    k = int(round(severity * n))
    dead = np.zeros(shape, dtype=bool)
    if k > 0:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(n, size=min(k, n), replace=False)
        dead.flat[chosen] = True
    return SiteNoiseMap(shape=shape, base=base, dead=dead)


def scenario_loss_gradient(
    shape: Coord,
    severity: float,
    base: NoiseModel = DEFAULT_NOISE,
    seed: int = 7,
) -> SiteNoiseMap:
    """Spatial loss gradient along the column axis.

    Cycle loss ramps linearly from the base rate at column 0 to
    ``base + severity * LOSS_GRADIENT_SPAN`` at the far edge — the
    delay-line-length asymmetry of a real interleaved module.
    """
    del seed  # deterministic family; signature shared with the others
    rows, cols = shape
    ramp = np.linspace(0.0, 1.0, cols) if cols > 1 else np.zeros(1)
    loss = base.cycle_loss + severity * LOSS_GRADIENT_SPAN * ramp
    plane = np.clip(np.tile(loss, (rows, 1)), 0.0, 1.0)
    return SiteNoiseMap(shape=shape, base=base, cycle_loss=plane)


def scenario_loss_hotspot(
    shape: Coord,
    severity: float,
    base: NoiseModel = DEFAULT_NOISE,
    seed: int = 7,
) -> SiteNoiseMap:
    """Gaussian loss hotspot centred on the layer.

    Peak added loss is ``severity * LOSS_HOTSPOT_PEAK`` with a spatial
    sigma of a quarter of the short side — a localized thermal/alignment
    failure.  The mapper seeds placements at the grid centre, so this is
    the adversarial worst case for the survive policy.
    """
    del seed
    rows, cols = shape
    r0, c0 = (rows - 1) / 2.0, (cols - 1) / 2.0
    sigma = max(1.0, min(rows, cols) / 4.0)
    rr, cc = np.meshgrid(
        np.arange(rows, dtype=np.float64),
        np.arange(cols, dtype=np.float64),
        indexing="ij",
    )
    bump = np.exp(-((rr - r0) ** 2 + (cc - c0) ** 2) / (2.0 * sigma**2))
    plane = np.clip(
        base.cycle_loss + severity * LOSS_HOTSPOT_PEAK * bump, 0.0, 1.0
    )
    return SiteNoiseMap(shape=shape, base=base, cycle_loss=plane)


def scenario_degraded_fusion(
    shape: Coord,
    severity: float,
    base: NoiseModel = DEFAULT_NOISE,
    seed: int = 7,
) -> SiteNoiseMap:
    """Per-site degraded fusion success with correlated error inflation.

    Each site draws a degradation depth ``u ~ U[0, 1)``: its fusion
    success shrinks by ``severity * u`` (relative) while its fusion
    error inflates by ``1 + 9 * severity * u`` — a badly aligned fusion
    site both fails more often and errs more when it succeeds.
    """
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    success = np.clip(base.fusion_success * (1.0 - severity * u), 0.0, 1.0)
    error = np.clip(base.fusion_error * (1.0 + 9.0 * severity * u), 0.0, 1.0)
    return SiteNoiseMap(
        shape=shape, base=base, fusion_success=success, fusion_error=error
    )


_SCENARIO_FNS = {
    "dead-rsg": scenario_dead_rsg,
    "loss-gradient": scenario_loss_gradient,
    "loss-hotspot": scenario_loss_hotspot,
    "degraded-fusion": scenario_degraded_fusion,
}


def make_scenario(
    name: str,
    shape: Coord,
    severity: float,
    base: NoiseModel = DEFAULT_NOISE,
    seed: int = 7,
) -> SiteNoiseMap:
    """Build one named degradation scenario at the given severity.

    All families share the ``severity in [0, 1]`` axis and degrade the
    same *base* model; severity 0 returns the pristine uniform map in
    every family, so survival curves all start from the clean yield.
    """
    if name not in _SCENARIO_FNS:
        raise ValueError(
            f"unknown scenario {name!r}; use one of {', '.join(SCENARIOS)}"
        )
    if not 0.0 <= severity <= 1.0:
        raise ValueError(f"severity must be in [0, 1], got {severity}")
    return _SCENARIO_FNS[name](shape, severity, base=base, seed=seed)


# ----------------------------------------------------------------------
# compiled-program site assignment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SiteProfile:
    """Per-fault-event site assignment of one compiled program.

    ``fusion_sites[i]`` / ``cycle_sites[i]`` is the flat site index
    (``row * cols + col``) hosting the i-th fusion / photon-cycle event
    of :class:`repro.sim.noisy.FaultCounts` accounting.  Built by
    :func:`program_site_profile`; consumed by the sampler's per-site
    fault-configuration path and :func:`site_analytic_yield`.
    """

    shape: Coord
    fusion_sites: np.ndarray = field(repr=False)
    cycle_sites: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        rows, cols = self.shape
        for name in ("fusion_sites", "cycle_sites"):
            sites = np.asarray(getattr(self, name), dtype=np.int64)
            if sites.size and (
                sites.min() < 0 or sites.max() >= rows * cols
            ):
                raise ValueError(f"{name} contains out-of-grid site indices")
            sites.setflags(write=False)
            object.__setattr__(self, name, sites)

    @property
    def active_sites(self) -> np.ndarray:
        """Sorted unique flat site indices hosting any event."""
        return np.unique(
            np.concatenate([self.fusion_sites, self.cycle_sites])
        )


def active_cells(program: object) -> List[Coord]:
    """Cells a compiled program occupies, in layer-major order.

    Per mapped layer: node cells first (sorted), then auxiliary routing
    cells (sorted).  These are the cells that host fusions and parked
    photons; everything else on the grid is idle for this program.
    """
    cells: List[Coord] = []
    for layout in getattr(program, "layouts", []):
        cells.extend(sorted(layout.node_at.keys()))
        cells.extend(sorted(layout.aux_cells))
    return cells


def program_site_profile(
    program: object, shape: Optional[Coord] = None
) -> SiteProfile:
    """Derive the per-event site assignment of a compiled program.

    Fault events (``FaultCounts.from_program`` accounting: the mapper's
    fusion tally and three photon-cycles per resource state) are
    distributed round-robin over :func:`active_cells` in deterministic
    order — a first-order spatial attribution that preserves the key
    invariant: cells the program does not occupy host no events, so
    re-routing or recompiling around a bad region genuinely escapes it.
    """
    layouts = getattr(program, "layouts", [])
    if shape is None:
        if not layouts:
            raise ValueError(
                "program has no layer layouts; pass shape explicitly"
            )
        shape = layouts[0].shape
    rows, cols = shape
    cells = active_cells(program)
    if not cells:
        raise ValueError("program occupies no cells; nothing to profile")
    for r, c in cells:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(
                f"program cell {(r, c)} is outside the {shape} site map"
            )
    flat = np.array([r * cols + c for r, c in cells], dtype=np.int64)
    fusions = int(getattr(program, "num_fusions"))
    cycles = int(getattr(program, "resource_states_used")) * 3
    return SiteProfile(
        shape=shape,
        fusion_sites=np.resize(flat, fusions) if fusions else flat[:0],
        cycle_sites=np.resize(flat, cycles) if cycles else flat[:0],
    )


def site_analytic_yield(
    profile: SiteProfile,
    site_map: SiteNoiseMap,
    measurements: int,
) -> float:
    """Closed-form zero-fault probability under a per-site map.

    The per-site companion of
    :func:`repro.hardware.noise.success_probability`: the product over
    assigned fusion events of ``1 - fusion_error[site]``, over assigned
    photon-cycle events of ``1 - cycle_loss[site]``, and the scalar
    measurement channel.  Any assigned event at a certain-failure site
    (dead cell, rate 1) or any fusion at a zero-success site makes the
    yield exactly 0: the program cannot complete there.
    """
    if profile.shape != site_map.shape:
        raise ValueError(
            f"profile shape {profile.shape} != site map shape "
            f"{site_map.shape}"
        )
    if measurements < 0:
        raise ValueError("measurements cannot be negative")
    assert site_map.fusion_error is not None
    assert site_map.cycle_loss is not None
    assert site_map.fusion_success is not None
    fe = site_map.fusion_error.ravel()[profile.fusion_sites]
    cl = site_map.cycle_loss.ravel()[profile.cycle_sites]
    fs = site_map.fusion_success.ravel()[profile.fusion_sites]
    if fs.size and bool((fs <= 0.0).any()):
        return 0.0  # repeat-until-success never terminates at the site
    log_yield = 0.0
    for rates in (fe, cl):
        if rates.size == 0:
            continue
        if bool((rates >= 1.0).any()):
            return 0.0
        log_yield += float(np.log1p(-rates).sum())
    me = site_map.base.measurement_error
    if me >= 1.0:
        if measurements > 0:
            return 0.0
    elif me > 0.0:
        log_yield += measurements * math.log1p(-me)
    return math.exp(log_yield)


def dead_assigned_fusions(
    profile: SiteProfile, site_map: SiteNoiseMap
) -> int:
    """Fusion events assigned to dead / zero-success sites.

    Non-zero means the program cannot run to completion on this
    hardware as mapped: repeat-until-success never terminates at those
    sites, so the yield is exactly 0 and there is nothing to sample —
    the case the recovery policies (re-route / recompile) exist for.
    """
    assert site_map.fusion_success is not None
    fs = site_map.fusion_success.ravel()[profile.fusion_sites]
    return int((fs <= 0.0).sum())
