"""Monte-Carlo noisy execution of Clifford measurement patterns.

The closed-form :mod:`repro.hardware.noise` model predicts the
probability that one execution of a compiled program sees *zero* error
events.  This module samples the actual fault process shot by shot and
executes the pattern under each sampled fault configuration on the
bit-packed stabilizer tableau, producing two yields per run:

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
  random X/Y/Z on a uniformly random cluster photon, injected into the
  tableau as a sign update before the measurement sequence runs.
* **measurement flip** (``measurement_error`` per measurement, counting
  output readout): a measured node's *recorded* outcome bit is
  complemented — feed-forward and byproduct corrections then act on the
  wrong bit.  Flips that land on output-readout slots corrupt the
  classical result directly and fail the shot.

Faulty shots run on the bit-packed Pauli-frame engine
(:mod:`repro.sim.frame`), which each sampler builds once, in
``__init__``.  Every supported fault channel is a sign-only
perturbation of one fixed Clifford execution, so after a single
reference tableau run each faulty shot reduces to an X/Z flip frame
XOR-propagated 64 shots per ``uint64`` word — per-shot cost is
independent of qubit count.  Frames never leave the engine and no
output check reads a measured qubit's frame row, so the engine needs no
Stim-style gauge reseed after each measurement.

That one reference run is also the sampler's calibration: the engine
raises unless the noiseless execution passes every output stabilizer
check.  So shots with zero fault events never execute — they pass
deterministically — and only faulty shots pay for execution.  At
realistic error rates this makes large shot counts cheap.

Sampling is separated from execution: :meth:`NoisySampler._draw_faults`
draws every shot's fault configuration up front, and pass/fail per shot
is a deterministic function of that configuration (random measurement
outcomes are a gauge the feed-forward corrections cancel).  The
one-tableau-per-shot executor :meth:`NoisySampler._execute_shot` stays
as the test oracle: :meth:`NoisySampler._run_per_shot` replays the same
draw shot by shot, and ``tests/sim/test_noisy.py`` pins its tallies
bit-identical to :meth:`NoisySampler.run` across seeds, chunk
boundaries and noise grids (``TestOracleEquivalence``).  Sampling speed
is tracked by the ``yield-clifford`` workload of ``perfbench/run.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

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
from repro.sim.stabilizer import StabilizerState, non_clifford_gate_counts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompiledProgram

#: Shots per block, for both the fault draw and the frame engine.  The
#: draw samples each per-shot channel this many shots at a time and
#: reduces every block at once into narrow per-shot counts, so its
#: transients stay at a few MB however many shots run.  Faulty shots run
#: on the frame engine in chunks of this size: frames pack 64 shots per
#: uint64 word, and each measurement step costs a handful of word-vector
#: XORs regardless of chunk size — so much larger chunks amortize the
#: per-step Python dispatch; 64k shots is ~1k words, i.e.
#: ``(2n + steps) * 8`` KB of frame matrices.  Tallies do not depend on
#: it.
FRAME_CHUNK_SHOTS = 1 << 16

#: ``(rate, events)`` groups of one fault channel: events sharing a
#: per-event probability are drawn as one binomial (or negative
#: binomial) per group.
_RateGroups = Tuple[Tuple[float, int], ...]

#: Random-key matrix budget (elements) per block when placing distinct
#: measurement-flip slots.  Each element costs 8 B of float64 key, 8 B
#: of int64 argsort index and 1 B of selection mask, so a block's
#: transient stays at ~4.5 MB however many shots carry flips.
_FLIP_KEY_BLOCK = 1 << 18


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


@dataclass(frozen=True)
class _FaultDraw:
    """Every shot's sampled fault configuration (``_draw_faults``).

    Shot counts classify the draw: loss aborts, fault-free shots,
    faulty shots failed outright by a flipped output readout, and the
    ``executed`` rest.  The flat ``(fault_shot, fault_qubit,
    fault_kind)`` entries (kind indexes ``"xyz"``) and ``(flip_shot,
    flip_qubit)`` entries place each executed shot's Pauli faults and
    measurement flips on tableau qubits; shot indices run over the
    executed shots and are sorted.

    The arrays hold one entry per fault, in narrow dtypes: shot indices
    are ``int32`` (``int64`` past 2**31 - 1 shots), qubits the smallest
    unsigned type that holds a tableau qubit index, kinds ``uint8``.
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
        seed: seeds the fault sampling and all tableau RNGs; two
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

    Fault configurations for all shots are sampled vectorized up front,
    and the shot classification (loss abort / fault free / readout
    flip) is pure numpy mask algebra — tally-only shots never cost a
    Python iteration.  Only shots with at least one non-loss,
    non-readout fault event execute, as bit-packed Pauli flip frames
    (:class:`repro.sim.frame.PauliFrameSimulator`; per-shot cost
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
                    raise ValueError(
                        "a heterogeneous site_map needs a site_profile "
                        "assigning each fault event to its site (see "
                        "repro.hardware.degradation.program_site_profile)"
                    )
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
        # groups its per-event rates (the measurement channel stays
        # scalar — readout is not a grid operation)
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
        self._meas_groups = _one_group(
            model.measurement_error, counts.measurements
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
        # node list in tableau-qubit order: graph_state sorts nodes, so
        # qubit i of the base tableau hosts self._nodes[i]
        self._nodes: List[int] = sorted(pattern.graph.nodes())
        self._base, self._index = StabilizerState.graph_state(
            pattern.graph, zero_nodes=pattern.inputs
        )
        # measurement slot -> does a flip there corrupt the classical
        # readout directly?  Slots land on tableau qubits in order (the
        # node list is sorted exactly like the graph-state qubits);
        # slots at or beyond the node count model extra hardware
        # readouts, which are classical by definition.
        slot_readout = np.ones(self.counts.measurements, dtype=bool)
        for slot in range(min(self.counts.measurements, len(self._nodes))):
            slot_readout[slot] = self._nodes[slot] in self._outputs
        self._slot_readout = slot_readout
        circuit_state = StabilizerState(circuit.num_qubits)
        circuit_state.apply_circuit(circuit)
        self._circuit_rows = circuit_state.stabilizer_rows()
        # the engine's reference run is the calibration: it raises
        # unless a fault-free execution passes every output check, which
        # is what lets zero-fault shots count as passes unexecuted
        self._frame_sim = PauliFrameSimulator(
            pattern,
            circuit_rows=self._circuit_rows,
            prepared=(self._base.copy(), self._index),
            seed=seed,
        )

    # ------------------------------------------------------------------
    def _execute_shot(
        self,
        rng: np.random.Generator,
        pauli_faults: Tuple[Tuple[int, str], ...],
        outcome_flips: frozenset,
    ) -> bool:
        """Run one shot on a copy of the base tableau; True on success."""
        state = self._base.copy()
        state.rng = rng
        for qubit, kind in pauli_faults:
            getattr(state, f"{kind}_gate")(qubit)
        simulator = StabilizerPatternSimulator(
            self.pattern, outcome_flips=outcome_flips
        )
        result = simulator.run(prepared=(state, self._index))
        return (
            result.violated_generator(self.pattern.outputs, self._circuit_rows)
            is None
        )

    def _place_flips(
        self,
        n_meas: np.ndarray,
        rng: np.random.Generator,
        shot_dtype: np.dtype,
        qubit_dtype: np.dtype,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Place each faulty shot's erring-measurement slots, in bulk.

        The binomial event count is the number of *distinct* erring
        measurements, so slots are placed without replacement: every
        shot with flips gets a row of random keys over the measurement
        slots and takes its ``n_meas`` smallest (drawn in fixed-size
        blocks to bound the key matrix at ``_FLIP_KEY_BLOCK``
        elements).  Returns ``(readout, flip_shot, flip_qubit)``:
        ``readout`` flags faulty rows with a flip on an output-readout
        slot (classically wrong whatever the quantum state — those
        shots never execute); the flat, shot-sorted ``(flip_shot,
        flip_qubit)`` entries are the remaining rows' flips on
        measured, non-output tableau qubits.
        """
        readout = np.zeros(n_meas.size, dtype=bool)
        rows = np.flatnonzero(n_meas)
        shot_parts = [np.zeros(0, dtype=shot_dtype)]
        qubit_parts = [np.zeros(0, dtype=qubit_dtype)]
        m_slots = self.counts.measurements
        block = max(1, _FLIP_KEY_BLOCK // max(1, m_slots))
        for start in range(0, rows.size, block):
            sub = rows[start : start + block]
            keys = rng.random((sub.size, m_slots))
            order = np.argsort(keys, axis=1)
            chosen = np.arange(m_slots)[None, :] < n_meas[sub][:, None]
            local = np.nonzero(chosen)[0]  # block-row per chosen slot
            slots = order[chosen]
            block_readout = np.zeros(sub.size, dtype=bool)
            np.logical_or.at(block_readout, local, self._slot_readout[slots])
            readout[sub] = block_readout
            keep = ~block_readout[local]
            shot_parts.append(sub[local[keep]].astype(shot_dtype))
            qubit_parts.append(slots[keep].astype(qubit_dtype))
        return readout, np.concatenate(shot_parts), np.concatenate(qubit_parts)

    # ------------------------------------------------------------------
    def _draw_faults(self, shots: int, rng: np.random.Generator) -> _FaultDraw:
        """Sample and place every shot's faults from the master *rng*.

        Execution never feeds back into sampling, so the tally of any
        executor consuming this draw cannot depend on how it executes
        or chunks the faulty shots.

        Every per-shot channel is drawn ``FRAME_CHUNK_SHOTS`` shots at a
        time, channel by channel and rate group by rate group, each
        block reduced at once: loss to a "lost" flag, fusion errors and
        measurement flips to counts in the narrowest unsigned dtype that
        holds the channel's event total, retries to a running sum.
        Consecutive blocks of one distribution call return exactly the
        values of a single ``size=shots`` call and leave the generator
        in the same state, so the stream — and every tally — does not
        depend on the block size.  Memory is ~3 B per shot while the
        channels are drawn and ~7 B per placed fault after.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        blocks = [
            (lo, min(lo + FRAME_CHUNK_SHOTS, shots))
            for lo in range(0, shots, FRAME_CHUNK_SHOTS)
        ]

        def event_counts(groups: _RateGroups, total: int) -> np.ndarray:
            # Poisson-binomial draw: one binomial per rate group
            out = np.zeros(shots, dtype=np.min_scalar_type(total))
            for rate, events in groups:
                if rate > 0.0:
                    for lo, hi in blocks:
                        drawn = rng.binomial(
                            events, min(rate, 1.0), size=hi - lo
                        )
                        out[lo:hi] += drawn.astype(out.dtype)
            return out

        # a lost photon aborts the shot whatever else it drew
        lost = np.zeros(shots, dtype=bool)
        for rate, events in self._loss_groups:
            if rate > 0.0:
                for lo, hi in blocks:
                    lost[lo:hi] |= (
                        rng.binomial(events, min(rate, 1.0), size=hi - lo) > 0
                    )
        fusion_errors = event_counts(self._error_groups, self.counts.fusions)
        meas_errors = event_counts(self._meas_groups, self.counts.measurements)
        loss_aborts = int(lost.sum())
        # repeat-until-success: each fusion's retries are geometric.
        # Loss-aborted shots stop before their fusion sequence, so only
        # the retries of the shots that ran count.
        fusion_attempts = self.counts.fusions * (shots - loss_aborts)
        for rate, events in self._success_groups:
            if rate < 1.0:  # init rejects 0-success fusions
                for lo, hi in blocks:
                    retries = rng.negative_binomial(events, rate, size=hi - lo)
                    fusion_attempts += int(retries.sum(where=~lost[lo:hi]))

        # shot classification is pure mask algebra: a shot with zero
        # non-loss events is tally-only — neither class costs a Python
        # iteration.  Only the faulty rows' counts outlive this step.
        faulty = (fusion_errors > 0) | (meas_errors > 0)
        faulty &= ~lost
        fault_free = shots - loss_aborts - int(faulty.sum())
        n_fus = fusion_errors[faulty]
        n_meas = meas_errors[faulty]
        del lost, fusion_errors, meas_errors, faulty

        # fault placement for every faulty shot, in bulk
        shot_dtype = np.dtype(
            np.int32 if shots <= np.iinfo(np.int32).max else np.int64
        )
        qubit_dtype = np.min_scalar_type(self._base.n - 1)
        fault_shot = np.repeat(np.arange(n_fus.size, dtype=shot_dtype), n_fus)
        fault_qubit = np.empty(fault_shot.size, dtype=qubit_dtype)
        fault_kind = np.empty(fault_shot.size, dtype=np.uint8)  # "xyz" index
        for out, high in ((fault_qubit, self._base.n), (fault_kind, 3)):
            for lo in range(0, out.size, FRAME_CHUNK_SHOTS):
                hi = min(lo + FRAME_CHUNK_SHOTS, out.size)
                out[lo:hi] = rng.integers(0, high, size=hi - lo)
        readout, flip_shot, flip_qubit = self._place_flips(
            n_meas, rng, shot_dtype, qubit_dtype
        )

        # a flipped output readout is classically wrong whatever the
        # quantum state, so those shots skip execution outright
        readout_failures = int(readout.sum())
        # faulty row -> executed slot
        position = np.cumsum(~readout, dtype=shot_dtype) - 1
        keep = ~readout[fault_shot]
        return _FaultDraw(
            shots=shots,
            fault_free=fault_free,
            loss_aborts=loss_aborts,
            readout_failures=readout_failures,
            executed=n_fus.size - readout_failures,
            fusion_attempts=fusion_attempts,
            fault_shot=position[fault_shot[keep]],
            fault_qubit=fault_qubit[keep],
            fault_kind=fault_kind[keep],
            flip_shot=position[flip_shot],  # flips land on executed rows
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

        The tally is a pure function of the arguments and the seed; this
        run draws its faults in two blocks:

        >>> from repro.circuit import get_benchmark
        >>> result = NoisySampler(get_benchmark("BV", 4), seed=7).run(70_000)
        >>> (result.successes, result.fault_free, result.loss_aborts,
        ...  result.logical_failures, result.executed, result.fusion_attempts)
        (67267, 64925, 585, 2148, 4262, 555340)
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
        faulty shot executed on its own copy of the base tableau.

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
            pauli_faults = tuple(
                (int(q), "xyz"[int(k)])
                for q, k in zip(
                    draw.fault_qubit[f_lo:f_hi], draw.fault_kind[f_lo:f_hi]
                )
            )
            flips = frozenset(
                self._nodes[int(q)] for q in draw.flip_qubit[l_lo:l_hi]
            )
            passed += self._execute_shot(rng, pauli_faults, flips)
        return self._tally(draw, passed, t0)

