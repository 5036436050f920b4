"""Tests for the Monte-Carlo noisy-execution sampler.

The agreement gate in :class:`TestAnalyticAgreement` is the CI-enforced
cross-validation between the sampled and closed-form noise models: the
Monte-Carlo fault-free shot rate must reproduce
``repro.hardware.noise.success_probability`` within 3-sigma binomial
error on Clifford benchmarks at >= 2000 shots.
"""

import pytest

from repro.circuit import get_benchmark
from repro.core import compile_circuit, estimate_yield
from repro.hardware import HardwareConfig
from repro.hardware.noise import DEFAULT_NOISE, NoiseModel
from repro.mbqc.translate import circuit_to_pattern
from repro.sim import noisy
from repro.sim.noisy import FaultCounts, NoisySampler

QUIET = NoiseModel(
    fusion_success=1.0, fusion_error=0.0, cycle_loss=0.0, measurement_error=0.0
)


class TestFaultCounts:
    def test_from_pattern(self):
        pattern = circuit_to_pattern(get_benchmark("BV", 8))
        counts = FaultCounts.from_pattern(pattern)
        assert counts.fusions == pattern.num_edges
        assert counts.measurements == pattern.num_nodes
        assert counts.photon_cycles == pattern.num_nodes

    def test_from_program_matches_program_log_fidelity(self):
        from repro.hardware.noise import program_log_fidelity

        program = compile_circuit(
            get_benchmark("BV", 8), HardwareConfig.square(8)
        )
        counts = FaultCounts.from_program(program)
        assert counts.fusions == program.num_fusions
        assert counts.measurements == program.pattern_nodes
        assert counts.photon_cycles == program.resource_states_used * 3
        import math

        assert counts.analytic_yield(DEFAULT_NOISE) == pytest.approx(
            math.exp(program_log_fidelity(program, DEFAULT_NOISE))
        )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            FaultCounts(fusions=-1, measurements=0, photon_cycles=0)


class TestAnalyticAgreement:
    """CI gate: sampled vs closed-form yields must cross-validate."""

    def test_fault_free_rate_within_3_sigma(self):
        """>= 2000 shots on a Clifford benchmark, default noise model."""
        result = NoisySampler(get_benchmark("BV", 16), seed=11).run(2500)
        assert result.shots == 2500
        assert result.agrees_with_analytic(3.0), result.summary()
        # executed logical yield can only improve on the fault-free rate
        # (benign faults pass the stabilizer check, malignant ones fail)
        assert result.yield_mc >= result.fault_free_yield

    def test_loss_only_yield_agrees_exactly(self):
        """With loss as the only channel every fault aborts, so the
        executed Monte-Carlo yield IS the fault-free rate and must agree
        with the analytic prediction directly."""
        model = NoiseModel(
            fusion_error=0.0, cycle_loss=0.02, measurement_error=0.0
        )
        result = NoisySampler(
            get_benchmark("BV", 16), model=model, seed=3
        ).run(5000)
        assert result.yield_mc == result.fault_free_yield
        assert result.executed == 0  # heralded aborts never hit the tableau
        assert result.agrees_with_analytic(3.0), result.summary()

    def test_compiled_program_counts_agree(self):
        """The bench plumbing path: fault counts from a compiled program."""
        circuit = get_benchmark("BV", 8)
        program = compile_circuit(circuit, HardwareConfig.square(8))
        result = NoisySampler(
            circuit, counts=FaultCounts.from_program(program), seed=17
        ).run(2000)
        assert result.agrees_with_analytic(3.0), result.summary()

    def test_expected_fusion_attempts(self):
        """Repeat-until-success attempts average 1/fusion_success."""
        result = NoisySampler(get_benchmark("BV", 16), seed=5).run(2000)
        expected = 1.0 / DEFAULT_NOISE.fusion_success
        assert result.attempts_per_fusion == pytest.approx(expected, rel=0.05)

    def test_attempts_per_fusion_unbiased_on_lossy_model(self):
        """Regression: loss-aborted shots stop before their fusion
        sequence, so their pre-sampled attempts must not be tallied —
        attempts per *completed* fusion still averages 1/fusion_success
        even when a macroscopic fraction of shots aborts."""
        model = NoiseModel(
            fusion_success=0.5,
            fusion_error=0.0,
            cycle_loss=0.01,
            measurement_error=0.0,
        )
        result = NoisySampler(
            get_benchmark("BV", 16), model=model, seed=13
        ).run(3000)
        assert result.loss_aborts > 300  # the lossy regime is active
        assert result.completed == result.shots - result.loss_aborts
        assert result.attempts_per_fusion == pytest.approx(2.0, rel=0.05)
        # the tally covers completed shots only: it must be bounded by
        # what those shots could have drawn, not by the all-shots total
        assert result.fusion_attempts >= result.completed * result.counts.fusions


class TestDeterminism:
    def test_seeded_runs_identical(self):
        """Same circuit, model and seed -> bit-identical tallies."""
        circuit = get_benchmark("BV", 12)
        a = NoisySampler(circuit, seed=42).run(800)
        b = NoisySampler(circuit, seed=42).run(800)
        assert (
            a.successes,
            a.fault_free,
            a.loss_aborts,
            a.logical_failures,
            a.executed,
            a.fusion_attempts,
        ) == (
            b.successes,
            b.fault_free,
            b.loss_aborts,
            b.logical_failures,
            b.executed,
            b.fusion_attempts,
        )

    def test_different_seeds_differ(self):
        circuit = get_benchmark("BV", 12)
        a = NoisySampler(circuit, seed=1).run(800)
        b = NoisySampler(circuit, seed=2).run(800)
        assert (a.successes, a.fusion_attempts) != (b.successes, b.fusion_attempts)


class TestEdgeCases:
    def test_zero_noise_always_succeeds(self):
        result = NoisySampler(
            get_benchmark("BV", 8), model=QUIET, seed=1
        ).run(300)
        assert result.yield_mc == 1.0
        assert result.fault_free == 300
        assert result.executed == 0
        assert result.fusion_attempts == 300 * result.counts.fusions
        assert result.agrees_with_analytic()

    def test_certain_loss_aborts_everything(self):
        model = NoiseModel(cycle_loss=1.0)
        result = NoisySampler(
            get_benchmark("BV", 8), model=model, seed=1
        ).run(200)
        assert result.yield_mc == 0.0
        assert result.loss_aborts == 200
        assert result.yield_analytic == 0.0
        assert result.agrees_with_analytic()

    def test_certain_measurement_error_fails_everything(self):
        model = NoiseModel(
            fusion_error=0.0, cycle_loss=0.0, measurement_error=1.0
        )
        result = NoisySampler(
            get_benchmark("BV", 8), model=model, seed=1
        ).run(100)
        # every readout slot flips too, so no shot can succeed
        assert result.yield_mc == 0.0
        assert result.fault_free == 0
        assert result.yield_analytic == 0.0

    def test_heavy_fusion_errors_corrupt_output(self):
        """Injected Pauli faults must actually fail the stabilizer check
        for a macroscopic fraction of shots."""
        model = NoiseModel(
            fusion_error=0.5, cycle_loss=0.0, measurement_error=0.0
        )
        result = NoisySampler(
            get_benchmark("BV", 8), model=model, seed=9
        ).run(300)
        assert result.logical_failures > 0
        assert result.yield_mc < 1.0
        assert result.yield_mc >= result.fault_free_yield

    def test_non_clifford_circuit_rejected(self):
        with pytest.raises(ValueError, match="Clifford"):
            NoisySampler(get_benchmark("QFT", 4))

    def test_non_clifford_rejection_names_offending_gates(self):
        """The rejection must say *which* gates are non-Clifford and how
        many, not just that something somewhere is."""
        from repro.sim.stabilizer import non_clifford_gate_counts

        circuit = get_benchmark("QFT", 4)
        offenders = non_clifford_gate_counts(circuit)
        assert offenders  # QFT carries non-Clifford phase rotations
        with pytest.raises(ValueError) as exc:
            NoisySampler(circuit)
        message = str(exc.value)
        assert f"{sum(offenders.values())} non-Clifford gate(s)" in message
        for name, count in offenders.items():
            assert f"{name} x{count}" in message

    def test_clifford_angle_rotations_not_named_as_offenders(self):
        """rz/p at quarter-turn angles are stabilizer-simulable and must
        not be counted."""
        import math

        from repro.circuit.circuit import Circuit
        from repro.sim.stabilizer import non_clifford_gate_counts

        circuit = Circuit(2)
        circuit.h(0)
        circuit.rz(math.pi / 2, 0)
        circuit.p(math.pi, 1)
        circuit.rz(math.pi / 3, 1)
        assert non_clifford_gate_counts(circuit) == {"rz": 1}

    def test_nonpositive_shots_rejected(self):
        sampler = NoisySampler(get_benchmark("BV", 8), seed=1)
        with pytest.raises(ValueError):
            sampler.run(0)

    def test_zero_fusion_success_rejected_with_clear_message(self):
        """Regression: fusion_success=0 used to crash inside
        rng.negative_binomial; the sampler must reject the degenerate
        bound up front (RUS never terminates -> nothing to sample)."""
        model = NoiseModel(fusion_success=0.0)
        with pytest.raises(ValueError, match="never terminates"):
            NoisySampler(get_benchmark("BV", 8), model=model, seed=1)

    def test_zero_fusion_success_without_fusions_is_fine(self):
        """With no fusions to perform the degenerate bound is vacuous."""
        from repro.sim.noisy import FaultCounts

        model = NoiseModel(
            fusion_success=0.0, fusion_error=0.0, cycle_loss=0.0,
            measurement_error=0.0,
        )
        result = NoisySampler(
            get_benchmark("BV", 8),
            model=model,
            counts=FaultCounts(fusions=0, measurements=10, photon_cycles=10),
            seed=1,
        ).run(50)
        assert result.yield_mc == 1.0
        assert result.fusion_attempts == 0
        assert result.attempts_per_fusion == 1.0

    @pytest.mark.parametrize("seed", [0, 3, 7, None])
    def test_pattern_of_another_circuit_fails_calibration(self, seed):
        """The frame engine's reference run is the sampler's
        calibration: a pattern that does not implement the circuit is
        rejected at construction, before any shot is counted."""
        with pytest.raises(RuntimeError, match="does not implement"):
            NoisySampler(
                get_benchmark("BV", 8, seed=1),
                pattern=circuit_to_pattern(get_benchmark("BV", 8, seed=2)),
                seed=seed,
            )


HEAVY = NoiseModel(
    fusion_success=0.5, fusion_error=0.2, cycle_loss=0.0005,
    measurement_error=0.02,
)


def tallies(result):
    return (
        result.shots,
        result.successes,
        result.fault_free,
        result.loss_aborts,
        result.logical_failures,
        result.executed,
        result.fusion_attempts,
    )


#: Noise grid for the frame-vs-oracle property sweep.  ``all-faulty``
#: makes every shot execute (each fusion errs with certainty, nothing is
#: lost or flipped); ``zero-faulty`` executes nothing; the rest mix all
#: channels at different strengths.
EQUIVALENCE_NOISE = {
    "default": DEFAULT_NOISE,
    "heavy": HEAVY,
    "all-faulty": NoiseModel(
        fusion_success=1.0, fusion_error=1.0, cycle_loss=0.0,
        measurement_error=0.0,
    ),
    "zero-faulty": QUIET,
    "flip-dominated": NoiseModel(
        fusion_success=1.0, fusion_error=0.0, cycle_loss=0.0,
        measurement_error=0.1,
    ),
}


#: Frame-engine tallies of BV-12 under HEAVY noise at (seed, shots) =
#: (0, 2000), (7, 2000), (123, 5000), in ``tallies`` order, as drawn by
#: the sparse fault draw (fault events placed by geometric gaps).
PINNED_TALLIES = [
    (2000, 271, 26, 15, 1714, 1550, 71782),
    (2000, 279, 23, 25, 1696, 1512, 70718),
    (5000, 639, 49, 68, 4293, 3809, 177342),
]


class TestOracleEquivalence:
    """The frame engine must reproduce the per-shot tableau oracle's
    tallies bit for bit at a fixed seed: pass/fail per shot is a
    deterministic function of the sampled fault configuration, and both
    consume the same fault draw — sampling is separated from
    execution."""

    @pytest.mark.parametrize("noise", sorted(EQUIVALENCE_NOISE))
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("shots", [1, 137])
    def test_frame_matches_oracle_across_noise_grid(self, noise, seed, shots):
        """Swept over seeds, shot counts (including the degenerate
        single shot) and noise regimes (including all-faulty and
        zero-faulty)."""
        circuit = get_benchmark("BV", 10)
        model = EQUIVALENCE_NOISE[noise]
        reference = NoisySampler(
            circuit, model=model, seed=seed
        )._run_per_shot(shots)
        result = NoisySampler(circuit, model=model, seed=seed).run(shots)
        assert tallies(result) == tallies(reference), noise
        if noise == "all-faulty":
            assert reference.executed == shots
        if noise == "zero-faulty":
            assert reference.executed == 0

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_frame_matches_oracle_heavy_noise_with_s_gates(self, seed):
        """A Clifford circuit with S gates measures in the Y basis too —
        the frame recurrence's (basis==Y)*s feed-forward term must agree
        with the tableau oracle there."""
        import numpy as np

        from repro.circuit.circuit import Circuit

        rng = np.random.default_rng(seed)
        circuit = Circuit(5)
        for _ in range(30):
            kind = int(rng.integers(4))
            q = int(rng.integers(5))
            if kind == 0:
                circuit.h(q)
            elif kind == 1:
                circuit.s(q)
            elif kind == 2:
                circuit.x(q)
            else:
                other = int(rng.integers(5))
                if other != q:
                    circuit.cz(q, other)
        scalar = NoisySampler(
            circuit, model=HEAVY, seed=seed
        )._run_per_shot(300)
        assert scalar.executed > 150  # heavy noise exercises execution
        result = NoisySampler(circuit, model=HEAVY, seed=seed).run(300)
        assert tallies(result) == tallies(scalar)

    def test_chunk_boundaries_do_not_change_tallies(self, monkeypatch):
        """Shots not divisible by the chunk size, chunk sizes of 1 and
        larger-than-the-run: all bit-identical to the oracle."""
        circuit = get_benchmark("BV", 10)
        reference = NoisySampler(
            circuit, model=HEAVY, seed=3
        )._run_per_shot(137)
        for chunk_size in (1, 16, 137, 10_000):
            monkeypatch.setattr(noisy, "FRAME_CHUNK_SHOTS", chunk_size)
            result = NoisySampler(circuit, model=HEAVY, seed=3).run(137)
            assert tallies(result) == tallies(reference), chunk_size

    @pytest.mark.parametrize(
        "seed, shots, expected",
        [
            (0, 2000, PINNED_TALLIES[0]),
            (7, 2000, PINNED_TALLIES[1]),
            (123, 5000, PINNED_TALLIES[2]),
        ],
    )
    def test_tallies_pinned_at_fixed_seeds(self, seed, shots, expected):
        """Regression pin: BV-12 under HEAVY noise at fixed seeds.  A
        change here changes every committed yield."""
        result = NoisySampler(
            get_benchmark("BV", 12), model=HEAVY, seed=seed
        ).run(shots)
        assert tallies(result) == expected

    def test_run_reports_throughput(self):
        result = NoisySampler(get_benchmark("BV", 8), seed=5).run(100)
        assert result.shots_per_second > 0.0


def draw(sampler, shots, seed=0):
    import numpy as np

    return sampler._draw_faults(shots, np.random.default_rng(seed))


class TestFaultDraw:
    """The fault draw both executors consume: shot classification and
    Pauli-fault / measurement-flip placement, separated from execution."""

    def test_draw_is_deterministic_at_fixed_seed(self):
        import numpy as np

        sampler = NoisySampler(get_benchmark("BV", 10), model=HEAVY, seed=3)
        first, second = draw(sampler, 300), draw(sampler, 300)
        for field in first.__dataclass_fields__:
            a, b = getattr(first, field), getattr(second, field)
            assert np.array_equal(a, b), field

    @pytest.mark.parametrize("noise", sorted(EQUIVALENCE_NOISE))
    def test_shot_classes_partition_the_run(self, noise):
        """Every shot lands in exactly one class, and the tally both
        executors report is built from those classes."""
        sampler = NoisySampler(
            get_benchmark("BV", 10), model=EQUIVALENCE_NOISE[noise], seed=3
        )
        faults = draw(sampler, 137, seed=3)
        assert faults.shots == 137
        assert min(
            faults.fault_free, faults.loss_aborts,
            faults.readout_failures, faults.executed,
        ) >= 0
        assert (
            faults.fault_free + faults.loss_aborts
            + faults.readout_failures + faults.executed
        ) == 137
        result = sampler.run(137)
        assert (result.fault_free, result.loss_aborts, result.executed) == (
            faults.fault_free, faults.loss_aborts, faults.executed
        )
        assert result.fusion_attempts == faults.fusion_attempts

    def test_placements_index_executed_shots(self):
        """Shot indices are sorted and run over the executed shots;
        faults land on tableau qubits, flips on measured non-outputs."""
        import numpy as np

        sampler = NoisySampler(get_benchmark("BV", 10), model=HEAVY, seed=3)
        faults = draw(sampler, 500)
        assert faults.executed > 0 and faults.fault_shot.size > 0
        assert faults.flip_shot.size > 0
        for shots in (faults.fault_shot, faults.flip_shot):
            assert np.all(np.diff(shots) >= 0)
            assert shots.min() >= 0 and shots.max() < faults.executed
        assert faults.fault_qubit.shape == faults.fault_shot.shape
        assert faults.fault_kind.shape == faults.fault_shot.shape
        assert set(np.unique(faults.fault_kind)) <= {0, 1, 2}
        assert faults.fault_qubit.max() < len(sampler._nodes)
        outputs = set(sampler.pattern.outputs)
        assert not {
            sampler._nodes[int(q)] for q in faults.flip_qubit
        } & outputs

    def test_quiet_model_draws_no_faults(self):
        faults = draw(NoisySampler(get_benchmark("BV", 8), model=QUIET), 64)
        assert faults.fault_free == 64
        assert faults.executed == faults.loss_aborts == 0
        assert faults.fault_shot.size == faults.flip_shot.size == 0

    def test_oracle_rejects_nonpositive_shots(self):
        sampler = NoisySampler(get_benchmark("BV", 8), seed=1)
        with pytest.raises(ValueError, match="shots must be positive"):
            sampler._run_per_shot(0)

    def test_draw_memory_grows_with_faults_not_shots(self):
        """The draw is sparse: each channel's Bernoulli trials are placed
        fault by fault and every array holds one narrow entry per fault,
        nothing per shot, so a million BV-16 shots trace well under the
        ~60 MiB of full-length int64 per-shot arrays."""
        import tracemalloc

        sampler = NoisySampler(get_benchmark("BV", 16, seed=7), seed=7)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            sampler.run(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_draw_dtypes_are_narrow(self):
        import numpy as np

        faults = draw(NoisySampler(get_benchmark("BV", 10), model=HEAVY), 500)
        assert faults.fault_shot.dtype == faults.flip_shot.dtype == np.int32
        assert faults.fault_qubit.dtype == faults.flip_qubit.dtype == np.uint8
        assert faults.fault_kind.dtype == np.uint8


class TestEstimateYield:
    def test_clifford_runs_monte_carlo(self):
        estimate = estimate_yield(get_benchmark("BV", 8), shots=400, seed=7)
        assert estimate.method == "mc-stabilizer"
        assert estimate.shots == 400
        assert 0.0 <= estimate.yield_mc <= 1.0
        assert estimate.fault_free_yield is not None
        assert estimate.sigma > 0.0

    def test_non_clifford_falls_back_to_analytic(self):
        estimate = estimate_yield(get_benchmark("QFT", 4), shots=400, seed=7)
        assert estimate.method == "analytic-only"
        assert estimate.shots == 0
        assert estimate.yield_mc is None
        assert estimate.fault_free_yield is None
        assert 0.0 < estimate.yield_analytic < 1.0

    def test_custom_model_and_counts(self):
        model = NoiseModel(
            fusion_error=0.0, cycle_loss=0.005, measurement_error=0.0
        )
        counts = FaultCounts(fusions=10, measurements=20, photon_cycles=100)
        estimate = estimate_yield(
            get_benchmark("BV", 8),
            model=model,
            shots=2000,
            seed=7,
            counts=counts,
        )
        assert estimate.yield_analytic == pytest.approx(0.995**100)
        assert abs(estimate.fault_free_yield - estimate.yield_analytic) <= (
            3.0 * estimate.sigma
        )
