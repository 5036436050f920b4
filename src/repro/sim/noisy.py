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

Shots with zero fault events never execute: a fault-free execution
deterministically passes the stabilizer check (verified once per sampler
as a calibration shot), so only faulty shots pay for execution.  At
realistic error rates this makes large shot counts cheap.

Faulty shots run on the bit-packed Pauli-frame engine
(:mod:`repro.sim.frame`).  Every supported fault channel is a sign-only
perturbation of one fixed Clifford execution, so after a single
reference tableau run each faulty shot reduces to an X/Z flip frame
XOR-propagated 64 shots per ``uint64`` word — per-shot cost is
independent of qubit count.

Sampling is separated from execution: :meth:`NoisySampler._draw_faults`
draws every shot's fault configuration up front, and pass/fail per shot
is a deterministic function of that configuration (random measurement
outcomes are a gauge the feed-forward corrections cancel).  The
one-tableau-per-shot executor :meth:`NoisySampler._execute_shot` stays
as the test oracle: :meth:`NoisySampler._run_per_shot` replays the same
draw shot by shot, and ``tests/sim/test_noisy.py`` pins its tallies
bit-identical to :meth:`NoisySampler.run` across seeds, chunk sizes and
noise grids (``benchmarks/bench_noisy.py`` gates the frame engine's
speed against it).
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
from repro.sim.pattern_sim import (
    StabilizerPatternResult,
    StabilizerPatternSimulator,
    pattern_is_clifford,
)
from repro.sim.stabilizer import StabilizerState, non_clifford_gate_counts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompiledProgram
    from repro.sim.frame import PauliFrameSimulator

#: Default faulty shots per frame-engine chunk.  Frames pack 64 shots
#: per uint64 word, and each measurement step costs a handful of
#: word-vector XORs regardless of chunk size — so much larger chunks
#: amortize the per-step Python dispatch; 64k shots is ~1k words, i.e.
#: ``(2n + steps) * 8`` KB of frame matrices.
DEFAULT_FRAME_CHUNK_SHOTS = 1 << 16

#: Random-key matrix budget (elements) per block when placing distinct
#: measurement-flip slots; bounds peak memory at ~32 MB of float64 keys
#: however many shots carry flips.
_FLIP_KEY_BLOCK = 1 << 22


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
            scalar model and runs the unchanged scalar sampling path —
            bit-identical to passing that ``NoiseModel`` directly —
            while a heterogeneous map switches the fault-config sampler
            to per-event probability vectors indexed by *site_profile*.
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
        # per-site sampling state: probability vectors indexed per fault
        # event (None -> scalar path), plus the per-site closed form
        self._site_rates: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self._analytic_override: Optional[float] = None
        if site_map is not None:
            uniform = site_map.as_uniform_model()
            if uniform is not None:
                # uniform map == scalar model: run the unchanged scalar
                # path so the tallies stay bit-identical to NoiseModel
                model = uniform
            else:
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
                assert site_map.fusion_error is not None
                assert site_map.cycle_loss is not None
                assert site_map.fusion_success is not None
                self._site_rates = (
                    site_map.fusion_error.ravel()[site_profile.fusion_sites],
                    site_map.cycle_loss.ravel()[site_profile.cycle_sites],
                    site_map.fusion_success.ravel()[
                        site_profile.fusion_sites
                    ],
                )
                self._analytic_override = site_analytic_yield(
                    site_profile, site_map, self.counts.measurements
                )
                model = site_map.base
        self.model = model
        if model.fusion_success == 0.0 and self.counts.fusions > 0:
            raise ValueError(
                f"fusion_success=0 with {self.counts.fusions} fusions to "
                "perform: repeat-until-success never terminates, the "
                "yield is exactly 0 and fusion attempts diverge "
                "(expected_fusion_attempts reports inf) — nothing to "
                "sample"
            )
        self.seed = seed
        self._frame_sim = None  # compiled lazily by the first faulty run
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
        # calibration: a fault-free execution must pass the stabilizer
        # check, or counting zero-fault shots as successes would be wrong
        if not self._execute_shot(
            np.random.default_rng(self.seed), (), frozenset()
        ):
            raise RuntimeError(
                "fault-free execution failed the stabilizer check; "
                "the pattern does not implement the circuit"
            )

    # ------------------------------------------------------------------
    def _stabilizers_hold(self, result: StabilizerPatternResult) -> bool:
        """All ideal-circuit stabilizer generators hold, with sign, on
        the pattern's output qubits."""
        for gx, gz, gr in self._circuit_rows:
            pauli = result.output_pauli(self.pattern.outputs, gx, gz)
            if result.state.expectation(pauli) != gr:
                return False
        return True

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
        return self._stabilizers_hold(result)

    def _place_flips(
        self, n_meas: np.ndarray, rng: np.random.Generator
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
        if rows.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return readout, empty, empty
        m_slots = self.counts.measurements
        shot_parts = []
        qubit_parts = []
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
            shot_parts.append(sub[local[keep]])
            qubit_parts.append(slots[keep])
        return (
            readout,
            np.concatenate(shot_parts),
            np.concatenate(qubit_parts),
        )

    def _frame_simulator(self) -> "PauliFrameSimulator":
        """Compile (once) and return the bit-packed frame engine.

        The simulator stays self-contained: its own reference run
        re-checks the calibration this sampler's ``__init__`` already
        proved (one extra scalar pattern execution, once per sampler)
        and its gauge reseeds stay enabled even though this caller only
        consumes the tally-invariant pass mask — the frames it would
        hand out are distribution-correct either way.
        """
        if self._frame_sim is None:
            from repro.sim.frame import PauliFrameSimulator

            self._frame_sim = PauliFrameSimulator(
                self.pattern,
                circuit_rows=self._circuit_rows,
                prepared=(self._base.copy(), self._index),
                seed=self.seed,
            )
        return self._frame_sim

    # ------------------------------------------------------------------
    def _draw_faults(self, shots: int, rng: np.random.Generator) -> _FaultDraw:
        """Sample and place every shot's faults from the master *rng*.

        Execution never feeds back into sampling, so the tally of any
        executor consuming this draw cannot depend on how it executes
        or chunks the faulty shots.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        counts, model = self.counts, self.model

        def event_counts(n_events: int, rate: float) -> np.ndarray:
            if n_events == 0 or rate <= 0.0:
                return np.zeros(shots, dtype=np.int64)
            return rng.binomial(n_events, min(rate, 1.0), size=shots)

        def hetero_event_counts(rates: np.ndarray) -> np.ndarray:
            # Poisson-binomial draw over per-event probabilities: group
            # events by unique rate (site maps have few distinct values)
            # and draw one binomial per group.  np.unique sorts, so the
            # draw order — hence the tally at a fixed seed — is a pure
            # function of the rate multiset.
            out = np.zeros(shots, dtype=np.int64)
            for value, group in zip(*np.unique(rates, return_counts=True)):
                if value > 0.0:
                    out += rng.binomial(
                        int(group), min(float(value), 1.0), size=shots
                    )
            return out

        if self._site_rates is not None:
            # heterogeneous site map: per-fusion / per-cycle rates are
            # vectors indexed by the program's site assignment (the
            # measurement channel stays scalar — readout is not a grid
            # operation).  Execution downstream is untouched: it
            # consumes fault placements, never probabilities.
            fe_rates, cl_rates, fs_rates = self._site_rates
            losses = hetero_event_counts(cl_rates)
            fusion_errors = hetero_event_counts(fe_rates)
            meas_errors = event_counts(
                counts.measurements, model.measurement_error
            )
            attempts = np.full(shots, counts.fusions, dtype=np.int64)
            for value, group in zip(*np.unique(fs_rates, return_counts=True)):
                if value < 1.0:  # init rejects 0-success assignments
                    attempts += rng.negative_binomial(
                        int(group), float(value), size=shots
                    )
        else:
            losses = event_counts(counts.photon_cycles, model.cycle_loss)
            fusion_errors = event_counts(counts.fusions, model.fusion_error)
            meas_errors = event_counts(
                counts.measurements, model.measurement_error
            )
            if counts.fusions and model.fusion_success < 1.0:
                attempts = counts.fusions + rng.negative_binomial(
                    counts.fusions, model.fusion_success, size=shots
                )
            else:
                attempts = np.full(shots, counts.fusions, dtype=np.int64)

        # shot classification is pure mask algebra: a lost shot aborts
        # whatever else it drew, and a shot with zero non-loss events is
        # tally-only — neither costs a Python iteration
        loss_mask = losses > 0
        faulty_mask = ~loss_mask & ((fusion_errors > 0) | (meas_errors > 0))
        loss_aborts = int(loss_mask.sum())
        fault_free = int(shots - loss_aborts - faulty_mask.sum())

        # fault placement for every faulty shot, in bulk
        n_fus = fusion_errors[faulty_mask]
        fault_shot = np.repeat(np.arange(n_fus.size), n_fus)
        fault_qubit = rng.integers(0, self._base.n, size=fault_shot.size)
        fault_kind = rng.integers(0, 3, size=fault_shot.size)  # "xyz" index
        readout, flip_shot, flip_qubit = self._place_flips(
            meas_errors[faulty_mask], rng
        )

        # a flipped output readout is classically wrong whatever the
        # quantum state, so those shots skip execution outright
        readout_failures = int(readout.sum())
        position = np.cumsum(~readout) - 1  # faulty row -> executed slot
        keep = ~readout[fault_shot]
        return _FaultDraw(
            shots=shots,
            fault_free=fault_free,
            loss_aborts=loss_aborts,
            readout_failures=readout_failures,
            executed=n_fus.size - readout_failures,
            # loss-aborted shots stop before their fusion sequence, so
            # their pre-sampled attempt counts never happened
            fusion_attempts=int(attempts[losses == 0].sum()),
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

    def run(
        self, shots: int, chunk_size: Optional[int] = None
    ) -> NoisySampleResult:
        """Sample and execute *shots* noisy shots; returns the tally.

        Args:
            shots: number of Monte-Carlo shots (> 0).
            chunk_size: faulty shots per frame-engine chunk (default
                64k, ~1k uint64 words per frame row); tallies do not
                depend on it.
        """
        if chunk_size is None:
            chunk_size = DEFAULT_FRAME_CHUNK_SHOTS
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        t0 = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        draw = self._draw_faults(shots, rng)
        passed = 0
        if draw.executed:
            frame_sim = self._frame_simulator()
            for start in range(0, draw.executed, chunk_size):
                stop = min(start + chunk_size, draw.executed)
                f_lo, f_hi = np.searchsorted(draw.fault_shot, (start, stop))
                l_lo, l_hi = np.searchsorted(draw.flip_shot, (start, stop))
                ok = frame_sim.run_shots(
                    stop - start,
                    draw.fault_qubit[f_lo:f_hi],
                    draw.fault_kind[f_lo:f_hi],
                    draw.fault_shot[f_lo:f_hi] - start,
                    draw.flip_qubit[l_lo:l_hi],
                    draw.flip_shot[l_lo:l_hi] - start,
                    rng,
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


def sample_yield(
    circuit: Circuit,
    shots: int = 2000,
    pattern: Optional[MeasurementPattern] = None,
    model: NoiseModel = DEFAULT_NOISE,
    counts: Optional[FaultCounts] = None,
    seed: Optional[int] = 7,
    chunk_size: Optional[int] = None,
    site_map: Optional[SiteNoiseMap] = None,
    site_profile: Optional[SiteProfile] = None,
) -> NoisySampleResult:
    """One-call convenience wrapper around :class:`NoisySampler`."""
    sampler = NoisySampler(
        circuit,
        pattern=pattern,
        model=model,
        counts=counts,
        seed=seed,
        site_map=site_map,
        site_profile=site_profile,
    )
    return sampler.run(shots, chunk_size=chunk_size)
