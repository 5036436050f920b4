"""Per-site noise sampling: uniform bit-identity and hetero equivalence.

The contract the degradation layer rides on: a *uniform* SiteNoiseMap
must be indistinguishable from the scalar ``NoiseModel`` path — same
RNG consumption, bit-identical tallies at a fixed seed, on the frame
engine and the per-shot tableau oracle alike.  Heterogeneous maps sample
per-site rates (one sparse event draw per rate group); the frame engine
must still match the oracle at every chunk size and the tally must
agree with the per-site closed form within 3 sigma.  Non-Clifford
programs, which cannot be sampled, get that per-site closed form from
``estimate_yield``.
"""

import numpy as np
import pytest

from repro.circuit import get_benchmark
from repro.core import compile_circuit
from repro.hardware import HardwareConfig
from repro.hardware.degradation import (
    SiteNoiseMap,
    make_scenario,
    program_site_profile,
    site_analytic_yield,
)
from repro.hardware.noise import NoiseModel
from repro.sim import noisy
from repro.sim.noisy import FaultCounts, NoisySampler

MODEL = NoiseModel(
    fusion_success=0.75,
    fusion_error=0.01,
    cycle_loss=0.002,
    measurement_error=0.001,
)


def tally(result):
    return {
        "shots": result.shots,
        "successes": result.successes,
        "fault_free": result.fault_free,
        "loss_aborts": result.loss_aborts,
        "logical_failures": result.logical_failures,
        "executed": result.executed,
        "fusion_attempts": result.fusion_attempts,
    }


@pytest.fixture(scope="module")
def compiled():
    hardware = HardwareConfig.square(6)
    circuit = get_benchmark("BV", 8)
    program = compile_circuit(circuit, hardware)
    return hardware, circuit, program


#: the production frame path and the per-shot tableau oracle
RUNNERS = {
    "frame": lambda sampler, shots: sampler.run(shots),
    "oracle": lambda sampler, shots: sampler._run_per_shot(shots),
}


def site_sampler(circuit, program, site_map, seed=7):
    return NoisySampler(
        circuit,
        counts=FaultCounts.from_program(program),
        seed=seed,
        site_map=site_map,
        site_profile=program_site_profile(program, site_map.shape),
    )


class TestUniformBitIdentity:
    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_uniform_map_bit_identical_to_scalar_model(
        self, compiled, runner
    ):
        hardware, circuit, program = compiled
        counts = FaultCounts.from_program(program)
        run = RUNNERS[runner]
        scalar = run(
            NoisySampler(circuit, model=MODEL, counts=counts, seed=7), 400
        )
        site_map = SiteNoiseMap.uniform(MODEL, hardware.extended_shape)
        mapped = run(site_sampler(circuit, program, site_map), 400)
        assert tally(mapped) == tally(scalar)

    def test_uniform_map_needs_no_profile(self, compiled):
        hardware, circuit, program = compiled
        site_map = SiteNoiseMap.uniform(MODEL, hardware.extended_shape)
        sampler = NoisySampler(
            circuit,
            counts=FaultCounts.from_program(program),
            seed=7,
            site_map=site_map,
        )
        assert sampler.model == MODEL


class TestHeterogeneousSampling:
    @pytest.fixture(scope="class")
    def hetero(self, compiled):
        hardware, circuit, program = compiled
        site_map = make_scenario(
            "degraded-fusion",
            hardware.extended_shape,
            0.5,
            base=MODEL,
            seed=3,
        )
        return circuit, program, site_map

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_frame_matches_oracle(self, hetero, seed, monkeypatch):
        circuit, program, site_map = hetero
        reference = site_sampler(
            circuit, program, site_map, seed=seed
        )._run_per_shot(400)
        assert reference.executed > 0  # the oracle comparison has teeth
        for chunk_size in (1, 16, noisy.FRAME_CHUNK_SHOTS):
            monkeypatch.setattr(noisy, "FRAME_CHUNK_SHOTS", chunk_size)
            result = site_sampler(circuit, program, site_map, seed=seed).run(
                400
            )
            assert tally(result) == tally(reference), chunk_size

    def test_agrees_with_per_site_closed_form(self, hetero):
        circuit, program, site_map = hetero
        result = site_sampler(circuit, program, site_map).run(4000)
        assert result.analytic_override is not None
        assert result.agrees_with_analytic(k=3.0)

    def test_deterministic_at_fixed_seed(self, hetero):
        circuit, program, site_map = hetero
        a = site_sampler(circuit, program, site_map, seed=11).run(300)
        b = site_sampler(circuit, program, site_map, seed=11).run(300)
        assert tally(a) == tally(b)

    def test_hetero_map_requires_profile(self, hetero):
        circuit, program, site_map = hetero
        with pytest.raises(ValueError, match="site_profile"):
            NoisySampler(
                circuit,
                counts=FaultCounts.from_program(program),
                seed=7,
                site_map=site_map,
            )

    def test_dead_assigned_fusions_rejected(self, compiled):
        hardware, circuit, program = compiled
        dead = np.ones(hardware.extended_shape, dtype=bool)
        site_map = SiteNoiseMap(
            shape=hardware.extended_shape, base=MODEL, dead=dead
        )
        with pytest.raises(ValueError, match="re-route or recompile"):
            site_sampler(circuit, program, site_map)


class TestNonCliffordClosedForm:
    """``estimate_yield`` cannot sample a non-Clifford program; under a
    heterogeneous site map its closed-form fallback must still be the
    per-site product, not the base model's scalar yield."""

    @pytest.fixture(scope="class")
    def qft(self):
        from repro.eval.experiments import _hardware_for
        from repro.hardware.resource_state import THREE_LINE

        hardware = _hardware_for(8, THREE_LINE)
        circuit = get_benchmark("QFT", 8)
        return hardware, circuit, compile_circuit(circuit, hardware)

    def estimate(self, qft, site_map, profile=True):
        from repro.core import estimate_yield

        _, circuit, program = qft
        return estimate_yield(
            circuit,
            counts=FaultCounts.from_program(program),
            site_map=site_map,
            site_profile=(
                program_site_profile(program, site_map.shape)
                if profile
                else None
            ),
        )

    def test_heterogeneous_map_uses_per_site_product(self, qft):
        hardware, _, program = qft
        site_map = make_scenario(
            "loss-gradient", hardware.extended_shape, 0.8, seed=3
        )
        counts = FaultCounts.from_program(program)
        estimate = self.estimate(qft, site_map)
        assert estimate.method == "analytic-only"
        expected = site_analytic_yield(
            program_site_profile(program, site_map.shape),
            site_map,
            counts.measurements,
        )
        assert estimate.yield_analytic == expected
        # the base model alone reads ~1e11 times higher here
        assert estimate.yield_analytic < 1e-3 * counts.analytic_yield(
            site_map.base
        )

    def test_dead_assigned_program_has_zero_yield(self, qft):
        hardware, _, _ = qft
        dead = np.ones(hardware.extended_shape, dtype=bool)
        site_map = SiteNoiseMap(
            shape=hardware.extended_shape, base=MODEL, dead=dead
        )
        assert self.estimate(qft, site_map).yield_analytic == 0.0

    def test_uniform_map_needs_no_profile(self, qft):
        hardware, _, program = qft
        site_map = SiteNoiseMap.uniform(MODEL, hardware.extended_shape)
        estimate = self.estimate(qft, site_map, profile=False)
        assert estimate.yield_analytic == FaultCounts.from_program(
            program
        ).analytic_yield(MODEL)

    def test_heterogeneous_map_requires_profile(self, qft):
        hardware, _, _ = qft
        site_map = make_scenario(
            "loss-gradient", hardware.extended_shape, 0.8, seed=3
        )
        with pytest.raises(ValueError) as exc:
            self.estimate(qft, site_map, profile=False)
        assert str(exc.value) == noisy.SITE_PROFILE_REQUIRED
