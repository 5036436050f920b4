"""Tests for post-compilation hardware validation."""

import pytest

from repro.circuit import get_benchmark, qft
from repro.core import compile_circuit
from repro.core.mapping import LayerLayout
from repro.core.validate import (
    ValidationError,
    assert_valid,
    validate_program,
    verify_pattern,
)
from repro.hardware import FOUR_STAR, HardwareConfig


class TestCompiledProgramsAreValid:
    @pytest.mark.parametrize("name", ["QFT", "QAOA", "RCA", "BV"])
    def test_benchmarks_validate(self, name):
        hardware = HardwareConfig.square(16)
        program = compile_circuit(get_benchmark(name, 16), hardware)
        ok, errors = validate_program(program, hardware)
        assert ok, errors[:5]

    def test_extended_layers_validate(self):
        hardware = HardwareConfig(rows=10, cols=10, extension=3)
        program = compile_circuit(qft(8), hardware)
        assert_valid(program, hardware)

    def test_star_resource_state_validates(self):
        hardware = HardwareConfig.square(12, resource_state=FOUR_STAR)
        program = compile_circuit(qft(6), hardware)
        assert_valid(program, hardware)

    def test_tight_grid_validates(self):
        """Heavy spill/shuffle paths still respect photon budgets."""
        hardware = HardwareConfig(rows=5, cols=5)
        program = compile_circuit(qft(6), hardware)
        assert_valid(program, hardware)


class TestViolationsDetected:
    def _program_with_layout(self, layout):
        hardware = HardwareConfig.square(8)
        program = compile_circuit(qft(3), hardware)
        program.layouts = [layout]
        return program, hardware

    def test_wrong_shape(self):
        layout = LayerLayout(index=0, shape=(4, 4))
        program, hardware = self._program_with_layout(layout)
        ok, errors = validate_program(program, hardware)
        assert not ok
        assert "shape" in errors[0]

    def test_out_of_bounds_cell(self):
        layout = LayerLayout(index=0, shape=(8, 8))
        layout.node_at[(9, 0)] = ("x", 0)
        program, hardware = self._program_with_layout(layout)
        ok, errors = validate_program(program, hardware)
        assert any("outside" in e for e in errors)

    def test_non_adjacent_path(self):
        layout = LayerLayout(index=0, shape=(8, 8))
        layout.paths.append([(0, 0), (2, 2)])
        program, hardware = self._program_with_layout(layout)
        ok, errors = validate_program(program, hardware)
        assert any("non-adjacent" in e for e in errors)

    def test_photon_budget_violation(self):
        layout = LayerLayout(index=0, shape=(8, 8))
        layout.node_at[(3, 3)] = ("x", 0)
        for nbr in [(2, 3), (4, 3), (3, 2), (3, 4)]:
            layout.node_at[nbr] = ("y", nbr[0])
            layout.paths.append([(3, 3), nbr])
        program, hardware = self._program_with_layout(layout)
        ok, errors = validate_program(program, hardware)
        assert any("photons" in e for e in errors)

    def test_double_path_through_aux(self):
        layout = LayerLayout(index=0, shape=(8, 8))
        layout.aux_cells.add((1, 1))
        layout.paths.append([(1, 0), (1, 1), (1, 2)])
        layout.paths.append([(0, 1), (1, 1), (2, 1)])
        program, hardware = self._program_with_layout(layout)
        ok, errors = validate_program(program, hardware)
        assert any("routing paths" in e for e in errors)

    def test_interior_not_aux(self):
        layout = LayerLayout(index=0, shape=(8, 8))
        layout.paths.append([(0, 0), (0, 1), (0, 2)])
        program, hardware = self._program_with_layout(layout)
        ok, errors = validate_program(program, hardware)
        assert any("not aux" in e for e in errors)

    def test_assert_valid_raises(self):
        layout = LayerLayout(index=0, shape=(3, 3))
        program, hardware = self._program_with_layout(layout)
        with pytest.raises(ValidationError):
            assert_valid(program, hardware)


class TestVerifyPattern:
    def test_clifford_circuit_uses_stabilizer_engine(self):
        from repro.circuit.benchmarks import get_benchmark

        circuit = get_benchmark("BV", 10, seed=7)
        report = verify_pattern(circuit)
        assert report.ok is True
        assert report.method == "stabilizer"

    def test_clifford_scales_past_dense_limits(self):
        from repro.circuit.benchmarks import get_benchmark

        circuit = get_benchmark("BV", 48, seed=7)
        report = verify_pattern(circuit)
        assert report.ok is True
        assert report.method == "stabilizer"

    def test_non_clifford_small_uses_statevector(self):
        from repro.circuit.benchmarks import get_benchmark

        circuit = get_benchmark("QFT", 4, seed=7)
        report = verify_pattern(circuit)
        assert report.ok is True
        assert report.method == "statevector"

    def test_non_clifford_large_falls_back_to_static(self):
        """Past the dense limit, auto now degrades to the static flow
        certificate (was: a bare skip) — and the detail must state the
        weaker claim so a static pass cannot read as full equivalence."""
        from repro.circuit.benchmarks import get_benchmark

        circuit = get_benchmark("QFT", 16, seed=7)
        report = verify_pattern(circuit)
        assert report.ok is True
        assert report.method == "static"
        assert "angles not checked" in report.detail

    def test_tampered_clifford_pattern_fails(self):
        """Basis changes (pi/2, X -> Y) that genuinely corrupt the
        pattern must be caught — and the stabilizer verdict must agree
        with the dense oracle node for node.

        Not every tamper is a bug: angle shifts on ``|0>``-input nodes
        are irrelevant, and injected Z byproducts act trivially on BV's
        computational-basis output, so those verify clean in *both*
        engines.
        """
        import math

        from repro.circuit.benchmarks import get_benchmark
        from repro.mbqc.translate import circuit_to_pattern
        from repro.sim.pattern_sim import simulate_pattern
        from repro.sim.statevector import simulate, states_equal_up_to_phase

        circuit = get_benchmark("BV", 8, seed=7)
        reference = simulate(circuit)
        caught = []
        for node in sorted(circuit_to_pattern(circuit).angles):
            pattern = circuit_to_pattern(circuit)
            pattern = pattern.replace(
                angles={**pattern.angles, node: pattern.angles[node] + math.pi / 2.0}
            )
            report = verify_pattern(circuit, pattern=pattern, seed=3)
            assert report.method == "stabilizer"
            dense_ok = states_equal_up_to_phase(
                reference, simulate_pattern(pattern, seed=3).state
            )
            assert report.ok == dense_ok, f"engines disagree on node {node}"
            if report.ok is False:
                caught.append(node)
        assert caught, "no tamper was caught"

    def test_tampered_dense_pattern_fails(self):
        from repro.circuit.benchmarks import get_benchmark
        from repro.mbqc.translate import circuit_to_pattern

        circuit = get_benchmark("QFT", 3, seed=7)
        caught = []
        for node in sorted(circuit_to_pattern(circuit).angles):
            pattern = circuit_to_pattern(circuit)
            pattern = pattern.replace(
                angles={**pattern.angles, node: pattern.angles[node] + 0.3}
            )
            report = verify_pattern(circuit, pattern=pattern)
            assert report.method == "statevector"
            if report.ok is False:
                caught.append(node)
        assert caught, "no tamper was caught"
