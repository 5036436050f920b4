"""Tests for the CHP stabilizer simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mbqc.graph_state import (
    disjoint_union,
    fuse,
    linear_graph,
    relabeled,
    ring_graph,
    star_graph,
)
from repro.sim.stabilizer import PauliString, StabilizerState


class TestPauliString:
    def test_from_ops(self):
        p = PauliString.from_ops(3, {0: "x", 2: "z"})
        assert p.x[0] == 1 and p.z[2] == 1
        assert p.z[0] == 0

    def test_y_sets_both(self):
        p = PauliString.from_ops(2, {1: "y"})
        assert p.x[1] == 1 and p.z[1] == 1

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            PauliString.from_ops(1, {0: "w"})

    def test_str(self):
        p = PauliString.from_ops(3, {0: "x", 1: "z"}, sign=1)
        assert str(p) == "-X0*Z1"

    @pytest.mark.parametrize("qubit", [-1, -3, 3, 64])
    def test_out_of_range_qubit_rejected(self, qubit):
        """Regression: ``{-1: "x"}`` used to wrap around onto qubit n-1."""
        with pytest.raises(ValueError, match="out of range"):
            PauliString.from_ops(3, {qubit: "x"})


class TestMeasureSingle:
    @pytest.mark.parametrize("qubit", [-1, 3, 63, 64])
    def test_out_of_range_qubit_rejected(self, qubit):
        """A qubit in ``[n, 64 * words)`` would read zero padding."""
        s = StabilizerState(3, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            s.measure_single(qubit, "x")

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError, match="unknown Pauli"):
            StabilizerState(1).measure_single(0, "w")

    def test_signed_x_on_plus(self):
        s = StabilizerState(1)
        s.h(0)
        assert s.measure_single(0, "x") == 0
        assert s.measure_single(0, "X", sign=1) == 1

    def test_y_on_s_plus(self):
        s = StabilizerState(1)
        s.h(0)
        s.s(0)
        assert s.measure_single(0, "y") == 0
        with pytest.raises(RuntimeError, match="zero probability"):
            s.measure_single(0, "y", force=1)


class TestBasics:
    def test_initial_zero_measurement(self):
        s = StabilizerState(3)
        assert s.measure_z(1) == 0

    def test_x_flips(self):
        s = StabilizerState(1)
        s.x_gate(0)
        assert s.measure_z(0) == 1

    def test_h_randomizes(self):
        s = StabilizerState(1, seed=0)
        s.h(0)
        outcomes = set()
        for force in (0, 1):
            t = s.copy()
            outcomes.add(t.measure_z(0, force=force))
        assert outcomes == {0, 1}

    def test_bell_correlation(self):
        for force in (0, 1):
            s = StabilizerState(2)
            s.h(0)
            s.cnot(0, 1)
            assert s.measure_z(0, force=force) == s.measure_z(1)

    def test_ghz_correlation(self):
        s = StabilizerState(3)
        s.h(0)
        s.cnot(0, 1)
        s.cnot(1, 2)
        m = s.measure_z(0, force=1)
        assert s.measure_z(1) == m
        assert s.measure_z(2) == m

    def test_forced_impossible_outcome_rejected(self):
        s = StabilizerState(1)
        with pytest.raises(RuntimeError):
            s.measure_z(0, force=1)

    def test_s_gate_phase(self):
        # S^2 = Z: |+> -> S S |+> = |->, so X measurement gives -1
        s = StabilizerState(1)
        s.h(0)
        s.s(0)
        s.s(0)
        m = s.measure_pauli(PauliString.from_ops(1, {0: "x"}))
        assert m == 1

    def test_cz_creates_graph_state(self):
        s = StabilizerState(2)
        s.h(0)
        s.h(1)
        s.cz(0, 1)
        # stabilizers X0 Z1 and Z0 X1 have value +1
        assert s.measure_pauli(PauliString.from_ops(2, {0: "x", 1: "z"})) == 0
        assert s.measure_pauli(PauliString.from_ops(2, {0: "z", 1: "x"})) == 0


class TestGraphStates:
    @pytest.mark.parametrize("graph", [linear_graph(4), star_graph(3), ring_graph(5)])
    def test_graph_stabilizers_plus_one(self, graph):
        """Every graph-state stabilizer X_i prod Z_n(i) measures +1."""
        state, index = StabilizerState.graph_state(graph)
        for node in graph.nodes():
            ops = {index[node]: "x"}
            for nbr in graph.neighbors(node):
                ops[index[nbr]] = "z"
            assert state.measure_pauli(PauliString.from_ops(state.n, ops)) == 0

    def test_canonical_equality_reflexive(self):
        a, _ = StabilizerState.graph_state(linear_graph(5))
        b, _ = StabilizerState.graph_state(linear_graph(5))
        assert a.equals(b)

    def test_canonical_inequality(self):
        a, _ = StabilizerState.graph_state(linear_graph(4))
        b, _ = StabilizerState.graph_state(star_graph(3))
        assert not a.equals(b)

    def test_matches_dense_statevector(self):
        from repro.mbqc.graph_state import graph_state_vector

        graph = star_graph(3)
        psi = graph_state_vector(graph)
        state, index = StabilizerState.graph_state(graph)
        # verify each canonical stabilizer has +1 expectation in psi
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        for node in graph.nodes():
            op = np.ones((1, 1), dtype=complex)
            for q in sorted(graph.nodes()):
                if q == node:
                    m = x
                elif graph.has_edge(q, node):
                    m = z
                else:
                    m = np.eye(2, dtype=complex)
                op = np.kron(m, op)
            assert np.vdot(psi, op @ psi).real == pytest.approx(1.0)


class TestFusionAtScale:
    @pytest.mark.parametrize(
        "g1,g2,c,d",
        [
            (linear_graph(3), linear_graph(3), 2, 0),
            (star_graph(4), linear_graph(3), 1, 1),
            (ring_graph(5), linear_graph(4), 0, 0),
            (linear_graph(12), star_graph(6), 11, 2),
            (ring_graph(8), ring_graph(8), 3, 5),
        ],
    )
    def test_fusion_rule_stabilizer_check(self, g1, g2, c, d):
        """XZ/ZX fusion (+1,+1 branch) equals the graph-merge rule."""
        g = disjoint_union(g1, relabeled(g2, 100))
        order = sorted(g.nodes())
        state, index = StabilizerState.graph_state(g, order=order)
        ic, id_ = index[c], index[d + 100]
        state.measure_pauli(
            PauliString.from_ops(state.n, {ic: "x", id_: "z"}), force=0
        )
        state.measure_pauli(
            PauliString.from_ops(state.n, {ic: "z", id_: "x"}), force=0
        )
        rest = state.discard([ic, id_])
        merged = fuse(g, c, d + 100)
        korder = [v for v in order if v not in (c, d + 100)]
        target, _ = StabilizerState.graph_state(merged, order=korder)
        assert rest.canonical_stabilizers() == target.canonical_stabilizers()

    def test_discard_entangled_rejected(self):
        state, _ = StabilizerState.graph_state(linear_graph(3))
        with pytest.raises(ValueError):
            state.discard([1])  # middle qubit is entangled

    def test_discard_product_qubit(self):
        s = StabilizerState(3)
        s.h(0)
        s.cnot(0, 1)
        rest = s.discard([2])
        assert rest.n == 2

    def test_measurement_on_discarded_state_raises(self):
        """discard() zeroes the destabilizer rows; a measurement there
        would silently rowsum over them and return garbage — it must
        raise instead (regression: it used to return a wrong outcome)."""
        s = StabilizerState(3)
        s.h(0)
        s.cnot(0, 1)
        rest = s.discard([2])
        assert rest._destabilizers_valid is False
        with pytest.raises(RuntimeError, match="stale destabilizers"):
            rest.measure_z(0)
        with pytest.raises(RuntimeError, match="stale destabilizers"):
            rest.measure_pauli(PauliString.from_ops(rest.n, {0: "x", 1: "x"}))
        with pytest.raises(RuntimeError, match="stale destabilizers"):
            rest.expectation(PauliString.from_ops(rest.n, {0: "z"}))
        # group-level inspection stays available: it only reads the
        # (rebuilt) stabilizer half
        assert len(rest.canonical_stabilizers()) == rest.n


class TestCopyRngIndependence:
    def test_copy_forks_the_generator(self):
        s = StabilizerState(1, seed=123)
        assert s.copy().rng is not s.rng

    def test_measuring_a_copy_leaves_the_original_stream_intact(self):
        """Regression: ``copy()`` used to alias ``rng``, so measuring a
        copy consumed random draws from the original's stream."""
        s = StabilizerState(1, seed=123)
        s.h(0)
        twin = StabilizerState(1, seed=123)
        twin.h(0)
        for _ in range(8):
            s.copy().measure_z(0)
        # the original's stream must be untouched: same draw sequence as
        # a twin that never produced copies
        assert [s.rng.integers(2) for _ in range(16)] == [
            twin.rng.integers(2) for _ in range(16)
        ]

    def test_copy_preserves_tableau(self):
        s = StabilizerState(3, seed=0)
        s.h(0)
        s.cnot(0, 1)
        c = s.copy()
        assert np.array_equal(c.x, s.x)
        assert np.array_equal(c.z, s.z)
        assert np.array_equal(c.r, s.r)
        c.measure_z(0, force=0)
        assert not np.array_equal(c.z, s.z)  # copy collapsed, original not


def _random_clifford_pair(seed: int, n: int = 4, depth: int = 25):
    """Build one random Clifford circuit plus its stabilizer tableau."""
    import random

    from repro.circuit import Circuit

    rng = random.Random(seed)
    circuit = Circuit(n)
    for _ in range(depth):
        choice = rng.choice(
            ["h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap"]
        )
        if choice in ("cx", "cz", "swap"):
            a, b = rng.sample(range(n), 2)
            getattr(circuit, choice)(a, b)
        else:
            getattr(circuit, choice)(rng.randrange(n))
    tableau = StabilizerState(n).apply_circuit(circuit)
    return circuit, tableau


class TestCliffordCrossCheck:
    """Satellite: random Clifford circuits on both engines must agree on
    deterministic outcomes and on outcome probabilities (0, 1/2, or 1)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_z_outcomes_and_probabilities(self, seed):
        from repro.sim.statevector import Statevector, simulate

        circuit, tableau = _random_clifford_pair(seed)
        sv = Statevector(circuit.num_qubits, simulate(circuit))
        for q in range(circuit.num_qubits):
            p1 = sv.measure_probability(q, 1)
            expected = tableau.expectation(PauliString.from_ops(4, {q: "z"}))
            if expected is None:
                assert p1 == pytest.approx(0.5)
            else:
                assert p1 == pytest.approx(float(expected))

    @pytest.mark.parametrize("seed", range(6))
    def test_collapse_chain_matches_dense_conditionals(self, seed):
        """Forcing outcomes on the tableau must track the dense state's
        conditional distribution measurement by measurement."""
        import random

        from repro.sim.statevector import simulate

        circuit, tableau = _random_clifford_pair(seed, depth=30)
        n = circuit.num_qubits
        psi = simulate(circuit)
        rng = random.Random(seed + 1000)
        for q in range(n):
            probs = np.abs(psi) ** 2
            mask = (np.arange(len(probs)) >> q) & 1
            p1 = float(probs[mask == 1].sum())
            expected = tableau.expectation(PauliString.from_ops(n, {q: "z"}))
            if expected is None:
                assert p1 == pytest.approx(0.5)
                outcome = rng.randint(0, 1)
            else:
                assert p1 == pytest.approx(float(expected))
                outcome = expected
            tableau.measure_z(q, force=outcome)
            # project the dense state onto the same branch
            psi = np.where(mask == outcome, psi, 0.0)
            psi = psi / np.linalg.norm(psi)


class TestRandomCliffordAgainstDense:
    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_random_clifford_circuit_outcomes(self, seed):
        """Forced-outcome Z measurements agree with dense amplitudes."""
        import random

        from repro.circuit import Circuit
        from repro.sim.statevector import simulate

        rng = random.Random(seed)
        n = 3
        circuit = Circuit(n)
        tableau = StabilizerState(n)
        for _ in range(10):
            choice = rng.choice(["h", "s", "x", "z", "cnot", "cz"])
            if choice in ("h", "s", "x", "z"):
                q = rng.randrange(n)
                circuit.add({"h": "h", "s": "s", "x": "x", "z": "z"}[choice], q)
                getattr(
                    tableau,
                    {"h": "h", "s": "s", "x": "x_gate", "z": "z_gate"}[choice],
                )(q)
            else:
                a, b = rng.sample(range(n), 2)
                if choice == "cnot":
                    circuit.cx(a, b)
                    tableau.cnot(a, b)
                else:
                    circuit.cz(a, b)
                    tableau.cz(a, b)
        psi = simulate(circuit)
        probs = np.abs(psi) ** 2
        qubit = rng.randrange(n)
        mask = (np.arange(len(probs)) >> qubit) & 1
        p1 = float(probs[mask == 1].sum())
        if p1 > 1e-9 and p1 < 1 - 1e-9:
            # random outcome: both forcings succeed
            for force in (0, 1):
                tableau.copy().measure_z(qubit, force=force)
        else:
            deterministic = tableau.copy().measure_z(qubit)
            assert deterministic == (1 if p1 > 0.5 else 0)


def _scalar_accumulate(state: StabilizerState, anti_destab: np.ndarray):
    """Oracle: the row-by-row product loop the vectorized kernel
    replaced (one phase-function call per selected stabilizer row)."""
    from repro.sim.stabilizer import _phase_sum_packed

    accx = np.zeros(state.num_words, dtype=np.uint64)
    accz = np.zeros(state.num_words, dtype=np.uint64)
    accr = 0
    for i in np.flatnonzero(anti_destab):
        row = state.n + int(i)
        phase = 2 * (accr + int(state.r[row]))
        phase += int(_phase_sum_packed(state.x[row], state.z[row], accx, accz))
        phase %= 4
        if phase & 1:
            raise RuntimeError("non-Hermitian product in stabilizer rowsum")
        accx = accx ^ state.x[row]
        accz = accz ^ state.z[row]
        accr = (phase >> 1) & 1
    return accx, accz, accr


def _scrambled_state(n: int, seed: int) -> StabilizerState:
    """Random graph state with mixed-basis measurements applied, so the
    stabilizer rows carry Y terms and signs across every word."""
    import random

    import networkx as nx

    rng = random.Random(seed)
    graph = nx.gnm_random_graph(n, 2 * n, seed=seed)
    state, _ = StabilizerState.graph_state(graph, seed=seed)
    for q in rng.sample(range(n), n // 3):
        state.measure_single(q, rng.choice("xyz"), sign=rng.randint(0, 1))
    for _ in range(n):
        state.s(rng.randrange(n))
    return state


class TestAccumulateStabilizers:
    """The prefix-XOR stabilizer product against the scalar loop."""

    def _assert_matches(self, state, anti_destab):
        got = state._accumulate_stabilizers(anti_destab)
        want = _scalar_accumulate(state, anti_destab)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    def test_empty_row_set_is_identity(self):
        state = _scrambled_state(5, seed=0)
        accx, accz, accr = state._accumulate_stabilizers(np.zeros(5, dtype=bool))
        assert not accx.any() and not accz.any() and accr == 0
        self._assert_matches(state, np.zeros(5, dtype=bool))

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_single_row_is_that_row(self, row):
        state = _scrambled_state(5, seed=1)
        anti = np.zeros(5, dtype=bool)
        anti[row] = True
        accx, accz, accr = state._accumulate_stabilizers(anti)
        assert np.array_equal(accx, state.x[5 + row])
        assert np.array_equal(accz, state.z[5 + row])
        assert accr == state.r[5 + row]
        self._assert_matches(state, anti)

    @pytest.mark.parametrize("n", [3, 63, 64, 65, 130])
    def test_random_row_sets_match_scalar_loop(self, n):
        state = _scrambled_state(n, seed=n)
        rng = np.random.default_rng(n)
        for density in (0.1, 0.5, 0.9, 1.0):
            for _ in range(4):
                self._assert_matches(state, rng.random(n) < density)

    def test_anticommuting_pair_raises_like_the_loop(self):
        state = StabilizerState(70)
        state.x[70] = 0
        state.z[70] = 0
        state.x[70, 1] = 1  # X on qubit 64 ...
        state.z[71, 1] = 1  # ... then Z on qubit 64: X * Z is not Hermitian
        anti = np.zeros(70, dtype=bool)
        anti[[0, 1, 5]] = True
        with pytest.raises(RuntimeError, match="non-Hermitian product"):
            _scalar_accumulate(state, anti)
        with pytest.raises(RuntimeError, match="non-Hermitian product"):
            state._accumulate_stabilizers(anti)
