"""Tests for the bit-packed Pauli-frame engine (`repro.sim.frame`).

Equivalence against the per-shot tableau oracle lives in
``tests/sim/test_noisy.py`` (the frame-vs-oracle property grid); this file
covers the frame machinery itself: program compilation, the reference
calibration, shot execution through ``run_shots`` (the entry point
``NoisySampler`` uses), and the sampler's single reference run.
"""

import numpy as np
import pytest

from repro.circuit import get_benchmark
from repro.circuit.circuit import Circuit
from repro.mbqc.translate import circuit_to_pattern
from repro.sim.frame import PauliFrameSimulator
from repro.sim.noisy import NoisySampler
from repro.sim.pattern_sim import StabilizerPatternSimulator


def _run(sim, shots):
    """``sim.run_shots`` over per-shot ``(faults, flips)``: *faults* holds
    ``(frame_row, 'x'|'y'|'z')`` Paulis, *flips* measured frame rows."""
    faults = [
        (shot, row, "xyz".index(kind))
        for shot, (paulis, _) in enumerate(shots)
        for row, kind in paulis
    ]
    flips = [
        (shot, row) for shot, (_, rows) in enumerate(shots) for row in rows
    ]
    f = np.array(faults, dtype=np.int64).reshape(-1, 3)
    g = np.array(flips, dtype=np.int64).reshape(-1, 2)
    return sim.run_shots(len(shots), f[:, 1], f[:, 2], f[:, 0], g[:, 1], g[:, 0])


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
    def test_wrong_circuit_fails_calibration(self):
        """The reference run must catch a pattern that does not
        implement the claimed circuit."""
        circuit = get_benchmark("BV", 8)
        pattern = circuit_to_pattern(circuit)
        wrong = Circuit(circuit.num_qubits)
        wrong.x(0)  # |10...0> is not the BV output state
        with pytest.raises(RuntimeError, match="does not implement"):
            PauliFrameSimulator(pattern, circuit=wrong)

    def test_constructor_type_hints_resolve(self):
        """Regression: the ``circuit`` annotation named an unimported
        ``Circuit``, so resolving the hints raised NameError."""
        import typing

        hints = typing.get_type_hints(PauliFrameSimulator.__init__)
        assert hints["circuit"] is Circuit

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
    def _simulator(self, seed=7):
        circuit = _clifford_with_y_measurements(num_qubits=5, seed=11)
        pattern = circuit_to_pattern(circuit)
        return PauliFrameSimulator(pattern, circuit=circuit, seed=seed)

    def test_empty_chunk(self):
        sim = self._simulator()
        assert _run(sim, []).shape == (0,)

    def test_zero_frame_shots_pass(self):
        """A shot with no faults at all is the reference itself."""
        sim = self._simulator()
        ok = _run(sim, [((), ())] * 70)
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
        ok = _run(sim, chunk)
        assert 0 < int(ok.sum()) < 256

    def test_pass_mask_deterministic_across_calls(self):
        """Repeated executions of the same chunk agree: the pass mask
        is a function of the faults alone."""
        sim = self._simulator()
        rng = np.random.default_rng(42)
        n = sim.program.num_qubits
        measured = [step.qubit for step in sim.program.steps]
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
        a = _run(sim, chunk)
        b = _run(sim, chunk)
        assert np.array_equal(a, b)

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
    def test_frame_engine_built_in_init_and_reused(self):
        sampler = NoisySampler(get_benchmark("BV", 8), seed=3)
        engine = sampler._frame_sim
        assert isinstance(engine, PauliFrameSimulator)
        sampler.run(50)
        sampler.run(50)
        assert sampler._frame_sim is engine

    def test_one_reference_run_per_sampler(self, monkeypatch):
        """The engine's reference run is the sampler's calibration:
        construction plus two runs execute the scalar pattern once."""
        calls = []
        original = StabilizerPatternSimulator.run

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(StabilizerPatternSimulator, "run", counting)
        sampler = NoisySampler(get_benchmark("BV", 8), seed=3)
        sampler.run(50)
        sampler.run(50)
        assert len(calls) == 1
