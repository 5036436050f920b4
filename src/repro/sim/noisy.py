"""Monte-Carlo noisy execution of Clifford measurement patterns.

The closed-form :mod:`repro.hardware.noise` model predicts the
probability that one execution of a compiled program sees *zero* error
events.  This module samples the actual fault process of every shot and
executes the pattern under each sampled fault configuration as
bit-packed Pauli frames, producing two yields per run:

* ``fault_free_yield`` — the fraction of shots in which no error event
  fired at all.  Its expectation is exactly the analytic
  :func:`repro.hardware.noise.success_probability`, which makes the two
  code paths cross-validate each other (the CI gate in
  ``tests/sim/test_noisy.py`` enforces 3-sigma binomial agreement).
* ``yield_mc`` — the fraction of shots whose *executed* output state
  still satisfies every stabilizer generator of the ideal circuit
  output.  This is new information the closed form cannot provide:
  faults that land in the output state's stabilizer group (e.g. Z errors
  on a basis-state output) are benign, so ``yield_mc >=
  fault_free_yield`` and the gap measures the benign-fault fraction.

Sampled fault channels, per shot (probabilities are per event):

* **fusion failure** (``p = 1 - fusion_success``): linear-optics fusions
  herald failure; with repeat-until-success the shot still proceeds but
  burns extra attempts, tallied in ``fusion_attempts`` (expected
  ``fusions / fusion_success``).
* **photon loss** (``cycle_loss`` per photon per clock cycle in a delay
  line): loss is heralded by the fusion/measurement detectors, so a lost
  photon aborts the shot outright (``loss_aborts``).
* **fusion Pauli error** (``fusion_error`` per fusion): a uniformly
  random X/Y/Z on a uniformly random cluster photon, acting on the
  prepared graph state (before that photon is measured).
* **measurement flip** (``measurement_error`` per measurement, counting
  output readout): a measured node's *recorded* outcome bit is
  complemented — feed-forward and byproduct corrections then act on the
  wrong bit.  Flips that land on output-readout slots corrupt the
  classical result directly and fail the shot.

Faulty shots run on the bit-packed Pauli-frame engine
(:mod:`repro.sim.frame`), which each sampler builds once, in
``__init__``.  Every supported fault channel is a sign-only
perturbation of one fixed Clifford execution, so after a single
reference run on the live-window tableau
(:class:`repro.sim.pattern_sim.StabilizerPatternSimulator`, as wide as
the peak number of live qubits) each faulty shot reduces to an X/Z flip frame
XOR-propagated 64 shots per ``uint64`` word — per-shot cost is
independent of qubit count.  Frames never leave the engine and no
output check reads a measured qubit's frame row, so the engine needs no
Stim-style gauge reseed after each measurement.

That one reference run is also the sampler's calibration: the engine
raises unless the noiseless execution passes every output stabilizer
check.  So shots with zero fault events never execute — they pass
deterministically — and only faulty shots pay for execution.

Nor do they pay for sampling: the draw costs per fault, not per shot.
A channel's per-event Bernoulli trials over all shots form one
sequence, and the positions of its successes are cumulative sums of
geometric gaps — the joint law of per-shot binomials, sampled the way
Stim skips between sparse error events.  Repeat-until-success retries
reach the tally only as a sum, so each retry rate group is a single
negative binomial over the shots that ran their fusions.  At realistic
error rates this makes large shot counts cheap.

Sampling is separated from execution: :meth:`NoisySampler._draw_faults`
draws every shot's fault configuration up front, and pass/fail per shot
is a deterministic function of that configuration (random measurement
outcomes are a gauge the feed-forward corrections cancel).  The
one-tableau-per-shot executor :meth:`NoisySampler._execute_shot` stays
as the test oracle.  It hands a shot's faults to the same live-window
executor (``faults=``), which applies each once its node is entangled
and before the node is measured, so the oracle pins the frame tallies
through tableau execution, independently of the frame algebra.
:meth:`NoisySampler._run_per_shot` replays the same
draw shot by shot, and ``tests/sim/test_noisy.py`` pins its tallies
bit-identical to :meth:`NoisySampler.run` across seeds, chunk
boundaries and noise grids (``TestOracleEquivalence``).  Sampling speed
is tracked by the ``yield-clifford`` workload of ``perfbench/run.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.circuit.circuit import Circuit
from repro.hardware.degradation import (
    SiteNoiseMap,
    SiteProfile,
    dead_assigned_fusions,
    site_analytic_yield,
)
from repro.hardware.noise import DEFAULT_NOISE, NoiseModel, success_probability
from repro.mbqc.pattern import MeasurementPattern
from repro.sim.frame import PauliFrameSimulator
from repro.sim.pattern_sim import StabilizerPatternSimulator, pattern_is_clifford
from repro.sim.stabilizer import non_clifford_gate_counts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompiledProgram

#: Shots per frame-engine chunk.  Frames pack 64 shots per uint64 word,
#: and each measurement step costs a handful of word-vector XORs
#: regardless of chunk size — so much larger chunks amortize the
#: per-step Python dispatch; 64k shots is ~1k words, i.e.
#: ``(2n + steps) * 8`` KB of frame matrices.  Tallies do not depend on
#: it: the fault draw never reads it.
FRAME_CHUNK_SHOTS = 1 << 16

#: Why a heterogeneous site map without a site profile is rejected (by
#: the sampler and by the closed-form fallback of ``estimate_yield``).
SITE_PROFILE_REQUIRED = (
    "a heterogeneous site_map needs a site_profile assigning each fault "
    "event to its site (see "
    "repro.hardware.degradation.program_site_profile)"
)

#: ``(rate, events)`` groups of one fault channel: events sharing a
#: per-event probability are drawn as one Bernoulli sequence (and one
#: negative binomial for retries) per group.
_RateGroups = Tuple[Tuple[float, int], ...]

#: Most geometric gaps drawn per call when placing one rate group's
#: events, and most fault shots ranked per search, so the draw's
#: ``int64`` transients stay at 512 KB however many shots run.
_GAP_BLOCK = 1 << 16


@dataclass(frozen=True)
class FaultCounts:
    """Error-prone event counts of one program execution.

    Attributes:
        fusions: fusion operations (units: fusions; each may fail or
            introduce a Pauli error).
        measurements: single-photon measurements *including* the final
            readout of output photons (units: measurements).
        photon_cycles: photon x clock-cycle waits in delay lines (units:
            photon-cycles; each may lose the photon).
    """

    fusions: int
    measurements: int
    photon_cycles: int

    def __post_init__(self) -> None:
        if min(self.fusions, self.measurements, self.photon_cycles) < 0:
            raise ValueError("event counts cannot be negative")

    @classmethod
    def from_pattern(cls, pattern: MeasurementPattern) -> "FaultCounts":
        """Pattern-level accounting: one fusion per graph edge, one
        measurement per node (outputs are read out), one cycle of delay
        per photon.  The leanest consistent estimate for a pattern that
        has not been mapped to hardware."""
        n = pattern.graph.number_of_nodes()
        return cls(
            fusions=pattern.graph.number_of_edges(),
            measurements=n,
            photon_cycles=n,
        )

    @classmethod
    def from_program(cls, program: "CompiledProgram") -> "FaultCounts":
        """Compiled-program accounting, matching
        :func:`repro.hardware.noise.program_log_fidelity`: the mapper's
        fusion tally, one measurement per pattern node, and a pessimistic
        three photon-cycles per resource state consumed."""
        return cls(
            fusions=program.num_fusions,
            measurements=program.pattern_nodes,
            photon_cycles=program.resource_states_used * 3,
        )

    def analytic_yield(self, model: NoiseModel = DEFAULT_NOISE) -> float:
        """Closed-form probability of a zero-fault execution."""
        return success_probability(
            self.fusions, self.measurements, self.photon_cycles, model
        )


@dataclass
class NoisySampleResult:
    """Tally of one :meth:`NoisySampler.run` call.

    All counters are shot counts except ``fusion_attempts`` (total
    fusion attempts, including repeat-until-success retries, over the
    shots that actually ran their fusion sequence — loss-aborted shots
    stop before their fusions and contribute nothing) and ``seconds``
    (wall time of the run).
    """

    shots: int
    successes: int
    fault_free: int
    loss_aborts: int
    logical_failures: int
    executed: int
    fusion_attempts: int
    counts: FaultCounts
    model: NoiseModel
    seconds: float = 0.0
    #: Per-site closed-form zero-fault probability when the run sampled
    #: a heterogeneous :class:`repro.hardware.degradation.SiteNoiseMap`
    #: (None for scalar/uniform runs, where ``counts`` + ``model``
    #: already determine the analytic yield).
    analytic_override: Optional[float] = None

    @property
    def yield_mc(self) -> float:
        """Fraction of shots whose output state passed the stabilizer
        check (fault-free shots pass by calibration)."""
        return self.successes / self.shots

    @property
    def fault_free_yield(self) -> float:
        """Fraction of shots with zero sampled fault events — the
        Monte-Carlo estimator of :meth:`FaultCounts.analytic_yield`."""
        return self.fault_free / self.shots

    @property
    def yield_analytic(self) -> float:
        """Closed-form prediction for ``fault_free_yield`` (the
        per-site product when the run used a heterogeneous site map)."""
        if self.analytic_override is not None:
            return self.analytic_override
        return self.counts.analytic_yield(self.model)

    @property
    def sigma(self) -> float:
        """Binomial standard error of ``fault_free_yield`` at the
        analytic success probability."""
        p = self.yield_analytic
        return math.sqrt(p * (1.0 - p) / self.shots)

    @property
    def completed(self) -> int:
        """Shots that ran their full fusion sequence — everything except
        heralded loss aborts (which stop before their fusions)."""
        return self.shots - self.loss_aborts

    @property
    def shots_per_second(self) -> float:
        """Sampling throughput of the run (shots / wall seconds)."""
        if self.seconds <= 0.0:
            return float("inf")
        return self.shots / self.seconds

    @property
    def attempts_per_fusion(self) -> float:
        """Mean sampled fusion attempts per required fusion over the
        shots that completed their fusion sequence (expected
        ``1 / fusion_success`` under repeat-until-success; vacuously 1.0
        when no fusions completed)."""
        total = self.completed * self.counts.fusions
        if total == 0:
            return 1.0
        return self.fusion_attempts / total

    def agrees_with_analytic(self, k: float = 3.0) -> bool:
        """True when the sampled fault-free rate is within ``k`` binomial
        standard errors of the closed-form prediction (exact match
        required when the prediction is degenerate, i.e. 0 or 1)."""
        return abs(self.fault_free_yield - self.yield_analytic) <= k * self.sigma

    def summary(self) -> str:
        """One-line human-readable digest of the tally."""
        return (
            f"shots={self.shots} yield_mc={self.yield_mc:.4f} "
            f"fault_free={self.fault_free_yield:.4f} "
            f"analytic={self.yield_analytic:.4f} "
            f"(loss_aborts={self.loss_aborts}, "
            f"logical_failures={self.logical_failures}, "
            f"executed={self.executed}, "
            f"attempts/fusion={self.attempts_per_fusion:.3f})"
        )


def _one_group(rate: float, events: int) -> _RateGroups:
    """A scalar channel: all *events* share one *rate*."""
    return ((rate, events),) if events else ()


def _rate_groups(rates: np.ndarray) -> _RateGroups:
    """Per-event rates grouped by value (site maps have few distinct
    values).  ``np.unique`` sorts, so the draw order — hence the tally
    at a fixed seed — is a pure function of the rate multiset."""
    values, sizes = np.unique(rates, return_counts=True)
    return tuple((float(v), int(k)) for v, k in zip(values, sizes))


def _event_positions(
    rng: np.random.Generator, rate: float, trials: int
) -> Iterator[np.ndarray]:
    """Ascending positions of the successes among *trials*
    Bernoulli(*rate*) trials, in blocks.

    The gaps between successive successes are i.i.d. geometric, so
    their cumulative sums place every success with the exact joint law
    of the trials, at a cost per success rather than per trial.  Every
    block draws the same number of gaps, set by *rate* and *trials*
    alone (a few standard deviations above the mean count, at most
    ``_GAP_BLOCK``), so how many values the stream yields never depends
    on how a caller chunks its shots.
    """
    mean = rate * trials
    block = int(min(_GAP_BLOCK, mean + 6.0 * math.sqrt(mean) + 64.0))
    # a gap is clipped at trials + 1 (that long ends the sequence
    # anyway), which keeps a block's cumulative sum inside int64
    block = max(1, min(block, (1 << 62) // (trials + 1)))
    last = -1
    while True:
        gaps = rng.geometric(rate, size=block)
        np.minimum(gaps, trials + 1, out=gaps)
        positions = np.cumsum(gaps, out=gaps)
        positions += last
        if positions[-1] >= trials:
            yield positions[: np.searchsorted(positions, trials)]
            return
        last = int(positions[-1])
        yield positions  # the caller may reuse the block in place


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of sorted *values* (``np.unique`` without its
    hash table or re-sort)."""
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _rank(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Index of each of *values* in the sorted, distinct *keys* (in the
    keys' dtype), and whether the value is there at all.  Searched one
    ``_GAP_BLOCK`` of values at a time, so the ``int64`` search indices
    never outgrow a block."""
    rank = np.zeros(values.size, dtype=keys.dtype)
    hit = np.zeros(values.size, dtype=bool)
    if keys.size == 0:
        return rank, hit
    for lo in range(0, values.size, _GAP_BLOCK):
        part = values[lo : lo + _GAP_BLOCK]
        index = np.searchsorted(keys, part)
        # a clipped miss still compares unequal below
        np.minimum(index, keys.size - 1, out=index)
        rank[lo : lo + _GAP_BLOCK] = index
        hit[lo : lo + _GAP_BLOCK] = keys[index] == part
    return rank, hit


@dataclass(frozen=True)
class _FaultDraw:
    """Every shot's sampled fault configuration (``_draw_faults``).

    Shot counts classify the draw: loss aborts, fault-free shots,
    faulty shots failed outright by a flipped output readout, and the
    ``executed`` rest.  The flat ``(fault_shot, fault_qubit,
    fault_kind)`` entries (kind indexes ``"xyz"``) and ``(flip_shot,
    flip_qubit)`` entries place each executed shot's Pauli faults and
    measurement flips on fault qubits (qubit ``i`` is the ``i``-th
    pattern node in sorted order, the frame program's row); shot
    indices run over the
    executed shots and are sorted, and no shot flips one qubit twice.

    The arrays hold one entry per fault, in narrow dtypes: shot indices
    are ``int32`` (``int64`` past 2**31 - 1 shots), qubits the smallest
    unsigned type that holds a node index, kinds ``uint8``.
    Nothing in the draw is sized by the shot count.
    """

    shots: int
    fault_free: int
    loss_aborts: int
    readout_failures: int
    executed: int
    fusion_attempts: int
    fault_shot: np.ndarray
    fault_qubit: np.ndarray
    fault_kind: np.ndarray
    flip_shot: np.ndarray
    flip_qubit: np.ndarray


class NoisySampler:
    """Monte-Carlo noisy executor for Clifford patterns.

    Args:
        circuit: the source circuit (defines the ideal output stabilizer
            group the per-shot check tests against).  Must be Clifford.
        pattern: the measurement pattern to execute; defaults to the
            translation of *circuit*.  Must be Clifford (every
            measurement at a Pauli angle).
        model: per-event error probabilities (see
            :class:`repro.hardware.noise.NoiseModel`).  The degenerate
            ``fusion_success=0`` bound is rejected here (with fusions to
            perform, repeat-until-success never terminates: the yield is
            exactly 0 and attempts diverge — nothing to sample).
        counts: fault-event counts per shot; defaults to
            :meth:`FaultCounts.from_pattern`.  Pass
            :meth:`FaultCounts.from_program` for compiled-program
            accounting.
        seed: seeds the fault sampling and the reference run; two
            samplers with equal arguments and seed produce identical
            tallies bit for bit.
        site_map: optional per-site
            :class:`repro.hardware.degradation.SiteNoiseMap`.  When
            given it takes precedence over *model*: a map that is
            uniform (no dead sites, constant planes) collapses to its
            scalar model — bit-identical to passing that ``NoiseModel``
            directly — while a heterogeneous map draws each channel
            from its per-event rates, indexed by *site_profile*.
            A map assigning any fusion to a dead / zero-success site is
            rejected here (repeat-until-success never terminates there;
            the yield is exactly 0 — re-route or recompile instead).
        site_profile: per-event site assignment
            (:func:`repro.hardware.degradation.program_site_profile`);
            required with a heterogeneous *site_map*, and its event
            counts must match *counts*.

    Fault events for all shots are sampled vectorized up front, at a
    cost per event, and the shot classification (loss abort / fault
    free / readout flip) is set algebra over the events' shot indices —
    fault-free shots cost nothing at all.  Only shots with at least one
    non-loss, non-readout fault event execute, as bit-packed Pauli flip
    frames (:class:`repro.sim.frame.PauliFrameSimulator`; per-shot cost
    independent of qubit count).

    Raises:
        RuntimeError: the noiseless reference run fails an output
            stabilizer check — the pattern does not implement the
            circuit.
    """

    def __init__(
        self,
        circuit: Circuit,
        pattern: Optional[MeasurementPattern] = None,
        model: NoiseModel = DEFAULT_NOISE,
        counts: Optional[FaultCounts] = None,
        seed: Optional[int] = None,
        site_map: Optional[SiteNoiseMap] = None,
        site_profile: Optional[SiteProfile] = None,
    ) -> None:
        from repro.mbqc.translate import circuit_to_pattern

        offenders = non_clifford_gate_counts(circuit)
        if offenders:
            listing = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(
                    offenders.items(), key=lambda item: (-item[1], item[0])
                )
            )
            raise ValueError(
                f"NoisySampler needs a Clifford circuit; found "
                f"{sum(offenders.values())} non-Clifford gate(s): "
                f"{listing} — non-Clifford programs have no scalable "
                "exact reference"
            )
        if pattern is None:
            pattern = circuit_to_pattern(circuit)
        if not pattern_is_clifford(pattern):
            raise ValueError(
                "NoisySampler needs a Clifford pattern (every measurement "
                "at a Pauli angle)"
            )
        if len(pattern.outputs) != circuit.num_qubits:
            raise ValueError(
                f"pattern has {len(pattern.outputs)} outputs for a "
                f"{circuit.num_qubits}-qubit circuit"
            )
        self.circuit = circuit
        self.pattern = pattern
        self.counts = counts or FaultCounts.from_pattern(pattern)
        self._analytic_override: Optional[float] = None
        heterogeneous = False
        if site_map is not None:
            uniform = site_map.as_uniform_model()
            if uniform is not None:
                # uniform map == scalar model: the tallies stay
                # bit-identical to passing that NoiseModel directly
                model = uniform
            else:
                heterogeneous = True
                if site_profile is None:
                    raise ValueError(SITE_PROFILE_REQUIRED)
                if site_profile.shape != site_map.shape:
                    raise ValueError(
                        f"site_profile shape {site_profile.shape} != "
                        f"site_map shape {site_map.shape}"
                    )
                if (
                    site_profile.fusion_sites.size != self.counts.fusions
                    or site_profile.cycle_sites.size
                    != self.counts.photon_cycles
                ):
                    raise ValueError(
                        "site_profile event counts "
                        f"({site_profile.fusion_sites.size} fusions, "
                        f"{site_profile.cycle_sites.size} photon-cycles) "
                        f"do not match FaultCounts ({self.counts.fusions} "
                        f"fusions, {self.counts.photon_cycles} "
                        "photon-cycles)"
                    )
                dead = dead_assigned_fusions(site_profile, site_map)
                if dead:
                    raise ValueError(
                        f"{dead} fusion(s) assigned to dead / "
                        "zero-fusion-success sites: repeat-until-success "
                        "never terminates there and the yield is exactly "
                        "0 — re-route or recompile around the dead cells "
                        "(repro.core.recovery) instead of sampling"
                    )
                self._analytic_override = site_analytic_yield(
                    site_profile, site_map, self.counts.measurements
                )
                model = site_map.base
        self.model = model
        # per-channel (rate, events) groups, drawn in this order: a
        # scalar model is one group per channel; a heterogeneous map
        # groups its per-event rates.  The measurement channel is always
        # the scalar model.measurement_error — readout is not a grid
        # operation.
        counts = self.counts
        if heterogeneous:
            assert site_map is not None and site_profile is not None
            assert site_map.fusion_error is not None
            assert site_map.cycle_loss is not None
            assert site_map.fusion_success is not None
            fusion_sites = site_profile.fusion_sites
            self._loss_groups = _rate_groups(
                site_map.cycle_loss.ravel()[site_profile.cycle_sites]
            )
            self._error_groups = _rate_groups(
                site_map.fusion_error.ravel()[fusion_sites]
            )
            self._success_groups = _rate_groups(
                site_map.fusion_success.ravel()[fusion_sites]
            )
        else:
            self._loss_groups = _one_group(
                model.cycle_loss, counts.photon_cycles
            )
            self._error_groups = _one_group(model.fusion_error, counts.fusions)
            self._success_groups = _one_group(
                model.fusion_success, counts.fusions
            )
        if model.fusion_success == 0.0 and counts.fusions > 0:
            raise ValueError(
                f"fusion_success=0 with {counts.fusions} fusions to "
                "perform: repeat-until-success never terminates, the "
                "yield is exactly 0 and fusion attempts diverge "
                "(expected_fusion_attempts reports inf) — nothing to "
                "sample"
            )
        self.seed = seed
        self._outputs = frozenset(pattern.outputs)
        # fault qubit i is node self._nodes[i], the frame program's row
        # order (FrameProgram.compile sorts the nodes the same way)
        self._nodes: List[int] = sorted(pattern.graph.nodes())
        # measurement slot -> does a flip there corrupt the classical
        # readout directly?  Slots land on fault qubits in order; slots
        # at or beyond the node count model extra hardware readouts,
        # which are classical by definition.
        slot_readout = np.ones(self.counts.measurements, dtype=bool)
        for slot in range(min(self.counts.measurements, len(self._nodes))):
            slot_readout[slot] = self._nodes[slot] in self._outputs
        self._slot_readout = slot_readout
        # the engine's reference run is the calibration: it raises
        # unless a fault-free execution passes every output check, which
        # is what lets zero-fault shots count as passes unexecuted
        self._frame_sim = PauliFrameSimulator(pattern, circuit, seed=seed)

    # ------------------------------------------------------------------
    def _execute_shot(
        self,
        rng: np.random.Generator,
        faults: Tuple[Tuple[int, str], ...],
        outcome_flips: frozenset,
    ) -> bool:
        """Run one shot on its own window tableau; True on success.

        *faults* are ``(node, 'x'|'y'|'z')`` Pauli faults, *rng* draws
        the shot's random outcomes."""
        simulator = StabilizerPatternSimulator(
            self.pattern, seed=rng, outcome_flips=outcome_flips, faults=faults
        )
        result = simulator.run()
        return (
            result.violated_generator(
                self.pattern.outputs, self._frame_sim.circuit_rows
            )
            is None
        )

    # ------------------------------------------------------------------
    def _draw_faults(self, shots: int, rng: np.random.Generator) -> _FaultDraw:
        """Sample and place every shot's faults from the master *rng*.

        Execution never feeds back into sampling, so the tally of any
        executor consuming this draw cannot depend on how it executes
        or chunks the faulty shots.

        Each rate group's ``events x shots`` Bernoulli trials form one
        sequence indexed ``shot * events + slot``, whose successes
        :func:`_event_positions` places directly — the joint law of
        per-shot binomials at a cost per fault, not per shot.  The
        calls run channel by channel (loss, fusion error, measurement
        flip), rate group by rate group, then one negative binomial per
        retry group, then the Pauli kind and last the qubit of every
        executed fault.  Nothing is held per shot: lost, faulty and
        readout-failed shots are sorted ``int32`` index sets, and every
        array holds one entry per fault.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        shot_dtype = np.dtype(
            np.int32 if shots <= np.iinfo(np.int32).max else np.int64
        )

        def event_shots(groups: _RateGroups, distinct: bool) -> np.ndarray:
            # sorted shot of every event (of every shot at most once
            # when *distinct*)
            parts = [np.zeros(0, dtype=shot_dtype)]
            for rate, events in groups:
                if rate > 0.0:
                    for pos in _event_positions(
                        rng, min(rate, 1.0), events * shots
                    ):
                        pos //= events
                        hit = pos.astype(shot_dtype)
                        parts.append(_distinct(hit) if distinct else hit)
            merged = np.concatenate(parts)
            merged.sort()
            return _distinct(merged) if distinct else merged

        # a lost photon aborts the shot whatever else it drew
        lost = event_shots(self._loss_groups, distinct=True)
        error_shot = event_shots(self._error_groups, distinct=False)
        # measurement slots of one shot are distinct positions of the
        # sequence, so flips never repeat a slot
        m_slots = self.counts.measurements
        slot_dtype = np.min_scalar_type(max(0, m_slots - 1))
        flip_parts = [np.zeros(0, dtype=shot_dtype)]
        slot_parts = [np.zeros(0, dtype=slot_dtype)]
        if self.model.measurement_error > 0.0 and m_slots:
            for pos in _event_positions(
                rng, self.model.measurement_error, m_slots * shots
            ):
                slot_parts.append((pos % m_slots).astype(slot_dtype))
                pos //= m_slots
                flip_parts.append(pos.astype(shot_dtype))
        meas_shot = np.concatenate(flip_parts)
        meas_slot = np.concatenate(slot_parts)

        # repeat-until-success: each fusion's retries are geometric, so
        # a group's retries over the shots that ran their fusion
        # sequence (loss-aborted shots stop before it) are one negative
        # binomial
        kept = shots - lost.size
        fusion_attempts = self.counts.fusions * kept
        for rate, events in self._success_groups:
            if rate < 1.0 and kept:  # init rejects 0-success fusions
                fusion_attempts += int(
                    rng.negative_binomial(events * kept, rate)
                )

        # shot classification is set algebra over the faults: a shot
        # with zero non-loss events is tally-only
        error_shot = error_shot[~_rank(lost, error_shot)[1]]
        alive = ~_rank(lost, meas_shot)[1]
        meas_shot, meas_slot = meas_shot[alive], meas_slot[alive]
        faulty = np.concatenate((error_shot, meas_shot))
        faulty.sort()
        faulty = _distinct(faulty)
        # a flipped output readout is classically wrong whatever the
        # quantum state, so those shots skip execution outright
        readout = _distinct(meas_shot[self._slot_readout[meas_slot]])
        executed = faulty[~_rank(readout, faulty)[1]]
        fault_free = shots - lost.size - faulty.size
        del alive, faulty

        # faults and flips of executed shots, by executed-shot rank
        num_qubits = len(self._nodes)
        qubit_dtype = np.min_scalar_type(num_qubits - 1)
        rank, hit = _rank(executed, meas_shot)
        flip_shot = rank[hit]
        flip_qubit = meas_slot[hit].astype(qubit_dtype)
        rank, hit = _rank(executed, error_shot)
        fault_shot = rank[hit]
        del rank, hit, meas_shot, meas_slot, error_shot
        fault_kind = rng.integers(0, 3, size=fault_shot.size, dtype=np.uint8)
        # the uniform qubit draw is the last one, so placing each fault
        # on the qubits its fusion touches can replace it without moving
        # any other draw
        fault_qubit = rng.integers(
            0, num_qubits, size=fault_shot.size, dtype=qubit_dtype
        )
        return _FaultDraw(
            shots=shots,
            fault_free=fault_free,
            loss_aborts=int(lost.size),
            readout_failures=int(readout.size),
            executed=int(executed.size),
            fusion_attempts=fusion_attempts,
            fault_shot=fault_shot,
            fault_qubit=fault_qubit,
            fault_kind=fault_kind,
            flip_shot=flip_shot,
            flip_qubit=flip_qubit,
        )

    def _tally(
        self, draw: _FaultDraw, passed: int, t0: float
    ) -> NoisySampleResult:
        """Result of a run whose executed shots *passed* the check."""
        return NoisySampleResult(
            shots=draw.shots,
            successes=draw.fault_free + passed,
            fault_free=draw.fault_free,
            loss_aborts=draw.loss_aborts,
            logical_failures=draw.readout_failures + draw.executed - passed,
            executed=draw.executed,
            fusion_attempts=draw.fusion_attempts,
            counts=self.counts,
            model=self.model,
            seconds=time.perf_counter() - t0,
            analytic_override=self._analytic_override,
        )

    def run(self, shots: int) -> NoisySampleResult:
        """Sample and execute *shots* (> 0) noisy shots; returns the
        tally.  Faulty shots run on the frame engine in chunks of
        :data:`FRAME_CHUNK_SHOTS`.

        The tally is a pure function of the arguments and the seed:

        >>> from repro.circuit import get_benchmark
        >>> result = NoisySampler(get_benchmark("BV", 4), seed=7).run(70_000)
        >>> (result.successes, result.fault_free, result.loss_aborts,
        ...  result.logical_failures, result.executed, result.fusion_attempts)
        (67151, 64736, 627, 2222, 4362, 555242)
        """
        t0 = time.perf_counter()
        draw = self._draw_faults(shots, np.random.default_rng(self.seed))
        passed = 0
        for start in range(0, draw.executed, FRAME_CHUNK_SHOTS):
            stop = min(start + FRAME_CHUNK_SHOTS, draw.executed)
            f_lo, f_hi = np.searchsorted(draw.fault_shot, (start, stop))
            l_lo, l_hi = np.searchsorted(draw.flip_shot, (start, stop))
            ok = self._frame_sim.run_shots(
                stop - start,
                draw.fault_qubit[f_lo:f_hi],
                draw.fault_kind[f_lo:f_hi],
                draw.fault_shot[f_lo:f_hi] - start,
                draw.flip_qubit[l_lo:l_hi],
                draw.flip_shot[l_lo:l_hi] - start,
            )
            passed += int(ok.sum())
        return self._tally(draw, passed, t0)

    def _run_per_shot(self, shots: int) -> NoisySampleResult:
        """The test oracle for :meth:`run`: the same fault draw, each
        faulty shot executed on its own window tableau.

        Tallies are bit-identical to :meth:`run` at a fixed seed; the
        per-shot cost grows with the pattern size, so this is for
        equivalence tests and the speed gate only.
        """
        t0 = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        draw = self._draw_faults(shots, rng)
        shot_ids = np.arange(draw.executed + 1)
        f_bounds = np.searchsorted(draw.fault_shot, shot_ids)
        l_bounds = np.searchsorted(draw.flip_shot, shot_ids)
        passed = 0
        for j in range(draw.executed):
            f_lo, f_hi = f_bounds[j], f_bounds[j + 1]
            l_lo, l_hi = l_bounds[j], l_bounds[j + 1]
            faults = tuple(
                (self._nodes[int(q)], "xyz"[int(k)])
                for q, k in zip(
                    draw.fault_qubit[f_lo:f_hi], draw.fault_kind[f_lo:f_hi]
                )
            )
            flips = frozenset(
                self._nodes[int(q)] for q in draw.flip_qubit[l_lo:l_hi]
            )
            passed += self._execute_shot(rng, faults, flips)
        return self._tally(draw, passed, t0)

