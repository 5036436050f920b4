"""Equivalence tests pinning the bit-packed engine to the seed engine.

``tests/sim/reference_stabilizer.py`` carries the pre-optimization CHP
implementation verbatim (same contract as the reference classes in
``tests/core/test_mapping_equivalence.py``).  The packed engine must
reproduce its tableaux — x, z and sign bits — and, because both draw one
``rng.integers(2)`` per random measurement, its measurement outcomes
bit-for-bit at a fixed seed.
"""

import random

import networkx as nx
import numpy as np
import pytest

from repro.circuit import Circuit
from repro.sim.stabilizer import (
    PauliString,
    StabilizerState,
    _unpack_bits,
)
from tests.sim.reference_stabilizer import (
    PauliString as ReferencePauliString,
    StabilizerState as ReferenceStabilizerState,
)

#: (method name on both engines, number of qubit arguments)
_GATES = [("h", 1), ("s", 1), ("x_gate", 1), ("z_gate", 1), ("cnot", 2), ("cz", 2)]


def unpacked_tableau(state: StabilizerState):
    x = np.array([_unpack_bits(row, state.n) for row in state.x])
    z = np.array([_unpack_bits(row, state.n) for row in state.z])
    return x, z, state.r.copy()


def assert_same_tableau(packed: StabilizerState, ref: ReferenceStabilizerState):
    x, z, r = unpacked_tableau(packed)
    assert np.array_equal(x, ref.x)
    assert np.array_equal(z, ref.z)
    assert np.array_equal(r, ref.r)


def random_ops(rng: random.Random, n: int, length: int):
    ops = []
    for _ in range(length):
        name, arity = rng.choice(_GATES)
        if arity == 2 and n < 2:
            continue
        qubits = rng.sample(range(n), arity)
        ops.append((name, qubits))
    return ops


def random_pauli_ops(rng: random.Random, n: int):
    support = rng.sample(range(n), rng.randint(1, min(3, n)))
    return {q: rng.choice("xyz") for q in support}, rng.randint(0, 1)


class TestGateEquivalence:
    #: qubit counts straddling the 64-bit word boundary
    @pytest.mark.parametrize("n", [1, 3, 63, 64, 65, 130])
    def test_random_gate_sequences_identical(self, n):
        rng = random.Random(n)
        ref = ReferenceStabilizerState(n, seed=n)
        packed = StabilizerState(n, seed=n)
        for name, qubits in random_ops(rng, n, 80):
            getattr(ref, name)(*qubits)
            getattr(packed, name)(*qubits)
        assert_same_tableau(packed, ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_apply_circuit_matches_gate_by_gate(self, seed):
        rng = random.Random(seed)
        n = 6
        circuit = Circuit(n)
        ref = ReferenceStabilizerState(n)
        for _ in range(40):
            choice = rng.choice(["h", "s", "x", "y", "z", "cx", "cz", "swap"])
            if choice in ("h", "s", "x", "y", "z"):
                q = rng.randrange(n)
                getattr(circuit, choice)(q)
                if choice == "h":
                    ref.h(q)
                elif choice == "s":
                    ref.s(q)
                elif choice == "x":
                    ref.x_gate(q)
                elif choice == "y":  # Y = iXZ: conjugation flips X and Z
                    ref.z_gate(q)
                    ref.x_gate(q)
                else:
                    ref.z_gate(q)
            else:
                a, b = rng.sample(range(n), 2)
                getattr(circuit, choice)(a, b)
                if choice == "cx":
                    ref.cnot(a, b)
                elif choice == "cz":
                    ref.h(b)
                    ref.cnot(a, b)
                    ref.h(b)
                else:  # swap = three cnots
                    ref.cnot(a, b)
                    ref.cnot(b, a)
                    ref.cnot(a, b)
        packed = StabilizerState(n).apply_circuit(circuit)
        assert_same_tableau(packed, ref)


class TestMeasurementEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_gates_and_measurements_bit_identical(self, seed):
        rng = random.Random(seed)
        n = rng.choice([5, 40, 70])
        ref = ReferenceStabilizerState(n, seed=seed)
        packed = StabilizerState(n, seed=seed)
        for step in range(60):
            if rng.random() < 0.3:
                ops, sign = random_pauli_ops(rng, n)
                m_ref = ref.measure_pauli(
                    ReferencePauliString.from_ops(n, ops, sign=sign)
                )
                m_packed = packed.measure_pauli(
                    PauliString.from_ops(n, ops, sign=sign)
                )
                assert m_ref == m_packed, (seed, step, ops)
            else:
                for name, qubits in random_ops(rng, n, 1):
                    getattr(ref, name)(*qubits)
                    getattr(packed, name)(*qubits)
        assert_same_tableau(packed, ref)

    def test_forced_and_deterministic_semantics_match(self):
        for force in (0, 1):
            ref = ReferenceStabilizerState(2)
            packed = StabilizerState(2)
            for s in (ref, packed):
                s.h(0)
                s.cnot(0, 1)
            assert ref.measure_z(0, force=force) == packed.measure_z(
                0, force=force
            )
            assert ref.measure_z(1) == packed.measure_z(1)
        with pytest.raises(RuntimeError):
            StabilizerState(1).measure_z(0, force=1)


class TestGraphStateEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_bulk_construction_matches_gate_sequence(self, seed):
        graph = nx.gnm_random_graph(50, 2 * 50, seed=seed)
        ref, ref_index = ReferenceStabilizerState.graph_state(graph, seed=seed)
        packed, packed_index = StabilizerState.graph_state(graph, seed=seed)
        assert ref_index == packed_index
        assert_same_tableau(packed, ref)

    def test_zero_nodes_equal_unhadamarded_inputs(self):
        """``zero_nodes`` reproduces |0> inputs + H elsewhere + CZ edges."""
        graph = nx.path_graph(6)
        inputs = [0, 3]
        ref = ReferenceStabilizerState(6)
        for q in range(6):
            if q not in inputs:
                ref.h(q)
        for u, v in graph.edges():
            ref.cz(u, v)
        packed, _ = StabilizerState.graph_state(graph, zero_nodes=inputs)
        assert_same_tableau(packed, ref)

    def test_canonical_stabilizers_match(self):
        graph = nx.cycle_graph(9)
        ref, _ = ReferenceStabilizerState.graph_state(graph)
        packed, _ = StabilizerState.graph_state(graph)
        assert packed.canonical_stabilizers() == ref.canonical_stabilizers()

    def test_expectation_agrees_with_reference_measurement(self):
        graph = nx.star_graph(7)
        ref, index = ReferenceStabilizerState.graph_state(graph)
        packed, _ = StabilizerState.graph_state(graph)
        for node in graph.nodes():
            ops = {index[node]: "x"}
            for nbr in graph.neighbors(node):
                ops[index[nbr]] = "z"
            expected = ref.measure_pauli(
                ReferencePauliString.from_ops(ref.n, ops)
            )
            assert packed.expectation(
                PauliString.from_ops(packed.n, ops)
            ) == expected
        # a random (anticommuting) measurement has no expectation
        assert packed.expectation(
            PauliString.from_ops(packed.n, {0: "z"})
        ) is None


class TestDiscardEquivalence:
    def test_discard_matches_reference(self):
        graph = nx.path_graph(5)
        ref, _ = ReferenceStabilizerState.graph_state(graph)
        packed, _ = StabilizerState.graph_state(graph)
        for s, P in ((ref, ReferencePauliString), (packed, PauliString)):
            s.measure_pauli(P.from_ops(5, {0: "x", 1: "z"}), force=0)
            s.measure_pauli(P.from_ops(5, {0: "z", 1: "x"}), force=0)
        assert (
            packed.discard([0, 1]).canonical_stabilizers()
            == ref.discard([0, 1]).canonical_stabilizers()
        )


def _rng_state(state):
    return state.rng.bit_generator.state


class TestMeasureSingleEquivalence:
    """``measure_single`` (column path) against ``measure_pauli`` on the
    same engine and against the seed engine: outcome stream, rng
    consumption and ``(x, z, r)`` identical after every step."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_random_graph_state_sweeps(self, n):
        graph = nx.gnm_random_graph(n, 2 * n, seed=n)
        single, index = StabilizerState.graph_state(graph, seed=n)
        general, _ = StabilizerState.graph_state(graph, seed=n)
        ref, _ = ReferenceStabilizerState.graph_state(graph, seed=n)
        rng = random.Random(n)
        # revisit qubits so deterministic outcomes show up too
        steps = [rng.randrange(n) for _ in range(min(2 * n, 90))]
        for step, node in enumerate(steps):
            q, basis, sign = index[node], rng.choice("xyzXYZ"), rng.randint(0, 1)
            force = None
            if rng.random() < 0.4:
                # force only what is possible: any bit when random,
                # the determined bit otherwise
                expected = single.expectation(
                    PauliString.from_ops(n, {q: basis}, sign=sign)
                )
                force = rng.randint(0, 1) if expected is None else expected
            m_single = single.measure_single(q, basis, sign=sign, force=force)
            m_general = general.measure_pauli(
                PauliString.from_ops(n, {q: basis}, sign=sign), force=force
            )
            m_ref = ref.measure_pauli(
                ReferencePauliString.from_ops(n, {q: basis}, sign=sign),
                force=force,
            )
            assert m_single == m_general == m_ref, (n, step, q, basis)
            assert _rng_state(single) == _rng_state(general) == _rng_state(ref)
            assert np.array_equal(single.x, general.x)
            assert np.array_equal(single.z, general.z)
            assert np.array_equal(single.r, general.r)
            assert_same_tableau(single, ref)

    @pytest.mark.parametrize("basis", "xyz")
    def test_impossible_force_raises_like_measure_pauli(self, basis):
        # |0> rotated so that `basis` is determined with outcome 0
        prep = {"x": ("h",), "y": ("h", "s"), "z": ()}[basis]
        for method in ("single", "pauli"):
            state = StabilizerState(65, seed=0)
            for gate in prep:
                getattr(state, gate)(64)
            with pytest.raises(RuntimeError, match="zero probability"):
                if method == "single":
                    state.measure_single(64, basis, force=1)
                else:
                    state.measure_pauli(
                        PauliString.from_ops(65, {64: basis}), force=1
                    )

    def test_discarded_state_raises(self):
        state = StabilizerState(3)
        state.h(0)
        state.cnot(0, 1)
        rest = state.discard([2])
        with pytest.raises(RuntimeError, match="stale destabilizers"):
            rest.measure_single(0, "x")
        with pytest.raises(RuntimeError, match="stale destabilizers"):
            rest.measure_single(1, "z", force=0)
