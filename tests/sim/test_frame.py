"""Tests for the bit-packed Pauli-frame engine (`repro.sim.frame`).

Equivalence against the per-shot tableau oracle lives in
``tests/sim/test_noisy.py`` (the frame-vs-oracle property grid); this file
covers the frame machinery itself: program compilation, the reference
calibration, the flat vs list execution entry points, and the gauge
reseed invariance.
"""

import numpy as np
import pytest

from repro.circuit import get_benchmark
from repro.circuit.circuit import Circuit
from repro.mbqc.translate import circuit_to_pattern
from repro.sim.frame import PauliFrameSimulator
from repro.sim.noisy import NoisySampler
from repro.sim.stabilizer import StabilizerState


def _clifford_with_y_measurements(num_qubits=4, seed=3):
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    for _ in range(25):
        kind = int(rng.integers(4))
        q = int(rng.integers(num_qubits))
        if kind == 0:
            circuit.h(q)
        elif kind == 1:
            circuit.s(q)
        elif kind == 2:
            circuit.x(q)
        else:
            other = int(rng.integers(num_qubits))
            if other != q:
                circuit.cz(q, other)
    return circuit


class TestFrameProgram:
    def test_compile_covers_every_measured_node(self):
        circuit = get_benchmark("BV", 8)
        pattern = circuit_to_pattern(circuit)
        sim = PauliFrameSimulator(pattern, circuit=circuit, seed=1)
        program = sim.program
        assert len(program.steps) == len(pattern.measured_nodes())
        assert set(program.step_of_node) == set(pattern.measured_nodes())
        assert len(program.checks) == circuit.num_qubits
        # steps follow the pattern's measurement order exactly
        assert tuple(s.node for s in program.steps) == pattern.measurement_order()

    def test_y_basis_steps_appear_with_s_gates(self):
        circuit = _clifford_with_y_measurements()
        pattern = circuit_to_pattern(circuit)
        sim = PauliFrameSimulator(pattern, circuit=circuit, seed=1)
        assert any(step.y_basis for step in sim.program.steps)
        assert any(not step.y_basis for step in sim.program.steps)

    def test_dependencies_resolve_to_earlier_steps(self):
        circuit = get_benchmark("BV", 8)
        pattern = circuit_to_pattern(circuit)
        sim = PauliFrameSimulator(pattern, circuit=circuit)
        for k, step in enumerate(sim.program.steps):
            assert all(dep < k for dep in step.x_deps)
            assert all(dep < k for dep in step.z_deps)


class TestConstruction:
    def test_requires_exactly_one_reference_source(self):
        circuit = get_benchmark("BV", 8)
        pattern = circuit_to_pattern(circuit)
        with pytest.raises(ValueError, match="exactly one"):
            PauliFrameSimulator(pattern)
        state = StabilizerState(circuit.num_qubits)
        state.apply_circuit(circuit)
        with pytest.raises(ValueError, match="exactly one"):
            PauliFrameSimulator(
                pattern, circuit=circuit, circuit_rows=state.stabilizer_rows()
            )

    def test_circuit_rows_path_matches_circuit_path(self):
        circuit = get_benchmark("BV", 8)
        pattern = circuit_to_pattern(circuit)
        state = StabilizerState(circuit.num_qubits)
        state.apply_circuit(circuit)
        via_rows = PauliFrameSimulator(
            pattern, circuit_rows=state.stabilizer_rows(), seed=2
        )
        via_circuit = PauliFrameSimulator(pattern, circuit=circuit, seed=2)
        assert via_rows.program == via_circuit.program

    def test_wrong_circuit_fails_calibration(self):
        """The reference run must catch a pattern that does not
        implement the claimed circuit."""
        circuit = get_benchmark("BV", 8)
        pattern = circuit_to_pattern(circuit)
        wrong = Circuit(circuit.num_qubits)
        wrong.x(0)  # |10...0> is not the BV output state
        with pytest.raises(RuntimeError, match="does not implement"):
            PauliFrameSimulator(pattern, circuit=wrong)

    def test_non_clifford_pattern_rejected(self):
        circuit = get_benchmark("QFT", 4)
        pattern = circuit_to_pattern(circuit)
        with pytest.raises(ValueError, match="Clifford"):
            PauliFrameSimulator(pattern, circuit=circuit)

    def test_reference_outcomes_cover_measured_nodes(self):
        circuit = get_benchmark("BV", 8)
        pattern = circuit_to_pattern(circuit)
        sim = PauliFrameSimulator(pattern, circuit=circuit, seed=5)
        assert set(sim.reference_outcomes) == set(pattern.measured_nodes())
        assert all(bit in (0, 1) for bit in sim.reference_outcomes.values())


class TestExecution:
    def _simulator(self, seed=7, reseed=True):
        circuit = _clifford_with_y_measurements(num_qubits=5, seed=11)
        pattern = circuit_to_pattern(circuit)
        return PauliFrameSimulator(
            pattern, circuit=circuit, seed=seed, reseed=reseed
        )

    def test_empty_chunk(self):
        sim = self._simulator()
        assert sim.run_chunk([]).shape == (0,)

    def test_zero_frame_shots_pass(self):
        """A shot with no faults at all is the reference itself."""
        sim = self._simulator()
        ok = sim.run_chunk([((), ())] * 70)
        assert ok.all()

    def test_benign_fault_passes_malignant_fails(self):
        """A Z fault on a |0>-like output wire lands in the output
        stabilizer group (benign) while a Y on the same wire must fail;
        cross-checked against NoisySampler's per-shot tableau path by
        the equivalence grid, so here we only pin non-triviality: a
        dense chunk of random faults yields both passes and failures."""
        sim = self._simulator()
        rng = np.random.default_rng(0)
        n = sim.program.num_qubits
        chunk = [
            (
                tuple(
                    (int(rng.integers(n)), "xyz"[int(rng.integers(3))])
                    for _ in range(2)
                ),
                (),
            )
            for _ in range(256)
        ]
        ok = sim.run_chunk(chunk)
        assert 0 < int(ok.sum()) < 256

    def test_pass_mask_deterministic_across_calls(self):
        """Repeated executions of the same chunk agree even though the
        gauge reseed consumes fresh randomness each call."""
        sim = self._simulator()
        rng = np.random.default_rng(42)
        n = sim.program.num_qubits
        measured = [step.node for step in sim.program.steps]
        chunk = []
        for _ in range(130):
            faults = tuple(
                (int(rng.integers(n)), "xyz"[int(rng.integers(3))])
                for _ in range(int(rng.integers(3)))
            )
            flips = tuple(
                measured[int(rng.integers(len(measured)))]
                for _ in range(int(rng.integers(2)))
            )
            chunk.append((faults, flips))
        a = sim.run_chunk(chunk)
        b = sim.run_chunk(chunk)
        assert np.array_equal(a, b)

    def test_reseed_does_not_change_pass_mask(self):
        """The gauge reseed randomizes frame components along measured
        operators only; measured qubits never feed the output checks,
        so the pass mask is invariant — reseed on and off must agree."""
        with_reseed = self._simulator(seed=1, reseed=True)
        without = self._simulator(seed=99, reseed=False)
        rng = np.random.default_rng(8)
        n = with_reseed.program.num_qubits
        chunk = [
            (
                tuple(
                    (int(rng.integers(n)), "xyz"[int(rng.integers(3))])
                    for _ in range(int(rng.integers(4)))
                ),
                (),
            )
            for _ in range(200)
        ]
        assert np.array_equal(
            with_reseed.run_chunk(chunk), without.run_chunk(chunk)
        )

    def test_flip_on_output_qubit_rejected(self):
        """Output readout flips are classical failures the caller
        tallies without executing; handing one to the frame engine is a
        contract violation, not a silent wrong answer."""
        circuit = get_benchmark("BV", 8)
        pattern = circuit_to_pattern(circuit)
        sim = PauliFrameSimulator(pattern, circuit=circuit)
        output_qubit = max(
            set(range(sim.program.num_qubits))
            - {step.qubit for step in sim.program.steps}
        )
        with pytest.raises(ValueError, match="never measures"):
            sim.run_shots(
                1,
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.array([output_qubit]),
                np.array([0]),
            )


class TestNoisySamplerIntegration:
    def test_frame_simulator_compiled_once_and_reused(self):
        sampler = NoisySampler(get_benchmark("BV", 8), seed=3)
        sampler.run(50)
        first = sampler._frame_sim
        assert first is not None
        sampler.run(50)
        assert sampler._frame_sim is first

    def test_oracle_does_not_compile_the_frame_program(self):
        sampler = NoisySampler(get_benchmark("BV", 8), seed=3)
        sampler._run_per_shot(50)
        assert sampler._frame_sim is None
