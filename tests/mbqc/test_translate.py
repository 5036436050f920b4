"""End-to-end correctness of circuit -> pattern translation.

The strongest test in the project: executing the translated measurement
pattern (with adaptive angles and byproduct corrections) must reproduce
the circuit's output state exactly, for every random outcome branch.
"""

import math

import pytest

from repro.circuit import Circuit, bernstein_vazirani, qaoa_maxcut, qft, ripple_carry_adder
from repro.mbqc import circuit_to_pattern
from repro.sim import simulate, simulate_pattern, states_equal_up_to_phase
from repro.sim.pattern_sim import PatternSimulator
from tests.conftest import random_circuit


def assert_pattern_equivalent(circuit, seeds=(0, 1, 2)):
    psi = simulate(circuit)
    pattern = circuit_to_pattern(circuit)
    for seed in seeds:
        result = simulate_pattern(pattern, seed=seed)
        assert states_equal_up_to_phase(psi, result.state), (
            f"pattern output diverged (seed {seed}) for "
            f"{[str(g) for g in circuit]}"
        )


class TestSingleGates:
    @pytest.mark.parametrize("name", ["h", "x", "y", "z", "s", "t", "sx"])
    def test_named_1q(self, name):
        assert_pattern_equivalent(Circuit(1).add(name, 0))

    @pytest.mark.parametrize("theta", [0.3, math.pi / 4, -0.9])
    @pytest.mark.parametrize("name", ["rx", "ry", "rz"])
    def test_rotations(self, name, theta):
        assert_pattern_equivalent(Circuit(1).add(name, 0, params=(theta,)))

    def test_cz(self):
        assert_pattern_equivalent(Circuit(2).h(0).h(1).cz(0, 1))

    def test_cx(self):
        assert_pattern_equivalent(Circuit(2).h(0).cx(0, 1))

    def test_empty_circuit(self):
        assert_pattern_equivalent(Circuit(2))


class TestCompositeCircuits:
    def test_bell_pair(self):
        assert_pattern_equivalent(Circuit(2).h(0).cx(0, 1))

    def test_ghz(self):
        assert_pattern_equivalent(Circuit(3).h(0).cx(0, 1).cx(1, 2))

    def test_teleport_like(self):
        c = Circuit(3).rz(0.4, 0).h(1).cx(1, 2).cx(0, 1).h(0)
        assert_pattern_equivalent(c)

    def test_adaptive_chain(self):
        """T gates force non-trivial X-dependencies."""
        c = Circuit(1).t(0).h(0).t(0).h(0).t(0)
        assert_pattern_equivalent(c, seeds=range(6))

    def test_deep_entangled_nonclifford(self):
        c = Circuit(2).h(0).t(0).cx(0, 1).t(1).cx(1, 0).rz(0.3, 0).cz(0, 1)
        assert_pattern_equivalent(c, seeds=range(6))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuits(self, seed):
        c = random_circuit(3, 10, seed + 500)
        assert_pattern_equivalent(c)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_4q(self, seed):
        c = random_circuit(4, 12, seed + 900)
        assert_pattern_equivalent(c, seeds=(seed,))


class TestBenchmarkPatterns:
    @pytest.mark.parametrize(
        "circuit",
        [qft(4), bernstein_vazirani(4), qaoa_maxcut(4), ripple_carry_adder(6)],
        ids=["qft4", "bv4", "qaoa4", "rca6"],
    )
    def test_equivalence(self, circuit):
        assert_pattern_equivalent(circuit, seeds=(0, 1))


class TestPatternStructure:
    def test_node_count_matches_j_count(self):
        from repro.circuit.library import to_jcz

        c = qft(5)
        pattern = circuit_to_pattern(c)
        jcz = to_jcz(c)
        num_j = jcz.count_ops().get("j", 0)
        assert pattern.graph.number_of_nodes() == num_j + c.num_qubits

    def test_inputs_and_outputs_sizes(self):
        pattern = circuit_to_pattern(qft(4))
        assert len(pattern.inputs) == 4
        assert len(pattern.outputs) == 4

    def test_clifford_circuit_has_no_adaptive_measurements(self):
        c = Circuit(3).h(0).cx(0, 1).s(1).cz(1, 2).h(2)
        pattern = circuit_to_pattern(c)
        assert all(not pattern.is_adaptive(v) for v in pattern.measured_nodes())

    def test_t_gate_creates_adaptive_measurement(self):
        c = Circuit(1).t(0).h(0).t(0)
        pattern = circuit_to_pattern(c)
        assert any(pattern.is_adaptive(v) for v in pattern.measured_nodes())

    def test_bv_graph_is_forest_like(self):
        """BV's graph state is acyclic (paper: why BV maps best)."""
        import networkx as nx

        pattern = circuit_to_pattern(bernstein_vazirani(8))
        assert nx.number_of_nodes(pattern.graph) > 0
        assert nx.is_forest(pattern.graph.to_networkx())

    def test_sequence_covers_measured_nodes(self):
        pattern = circuit_to_pattern(qft(3))
        assert set(pattern.sequence) == set(pattern.measured_nodes())

    def test_forced_outcomes(self):
        c = Circuit(1).t(0).h(0)
        pattern = circuit_to_pattern(c)
        forced = {v: 1 for v in pattern.measured_nodes()}
        sim = PatternSimulator(pattern, force_outcomes=forced)
        result = sim.run()
        assert all(v == 1 for v in result.outcomes.values())
        assert states_equal_up_to_phase(simulate(c), result.state)

    def test_input_state_override(self):
        c = Circuit(1).h(0)
        pattern = circuit_to_pattern(c)
        sim = PatternSimulator(pattern, seed=0)
        result = sim.run(input_state={pattern.inputs[0]: [0.0, 1.0]})
        # H|1> = |->
        import numpy as np

        expected = np.array([1, -1], dtype=complex) / np.sqrt(2)
        assert states_equal_up_to_phase(expected, result.state)
