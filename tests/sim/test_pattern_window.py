"""The live-window Clifford executor against a full-tableau reference.

``StabilizerPatternSimulator`` gives each node a tableau slot only from
its first entanglement to its measurement.  The reference here builds
the whole graph state up front from public ``StabilizerState`` calls
(``graph_state``, ``measure_single``, ``x_gate``/``y_gate``/``z_gate``,
``expectation``) and measures every node on it.  At the same seed the
two must record the same outcomes and report the same violated output
generator, for translated benchmarks, random Clifford circuits and
hand-built patterns that measure deterministically.
"""

import math
import random

import networkx as nx
import numpy as np
import pytest

from repro.circuit import get_benchmark
from repro.circuit.circuit import Circuit
from repro.mbqc.pattern import MeasurementPattern
from repro.mbqc.translate import circuit_to_pattern
from repro.sim.pattern_sim import StabilizerPatternSimulator
from repro.sim.stabilizer import PauliString, StabilizerState
from repro.utils.angles import normalize_angle


def random_clifford(num_qubits, num_gates, seed):
    """Seeded random circuit over H, S, CX and CZ."""
    rng = random.Random(seed)
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.choice(("h", "s", "cx", "cz"))
        if kind in ("h", "s"):
            circuit.add(kind, rng.randrange(num_qubits))
        else:
            circuit.add(kind, *rng.sample(range(num_qubits), 2))
    return circuit


def circuit_rows(circuit):
    state = StabilizerState(circuit.num_qubits)
    state.apply_circuit(circuit)
    return state.stabilizer_rows()


def actual_basis(pattern, node, outcomes):
    """``(basis, sign)`` of the node's adapted Pauli angle."""
    s = sum(outcomes[src] for src in pattern.x_deps.get(node, ())) & 1
    t = sum(outcomes[src] for src in pattern.z_deps.get(node, ())) & 1
    theta = ((-1.0) ** s) * pattern.angles[node] + t * math.pi
    quarter = int(round(normalize_angle(theta) / (math.pi / 2.0))) % 4
    return ("x", "y", "x", "y")[quarter], quarter >> 1


class FullTableauRun:
    """The whole graph state on one tableau, every node measured on it.

    ``deterministic`` counts the measurements whose outcome the state
    fixed (read with ``expectation`` before measuring).
    """

    def __init__(
        self, pattern, seed=None, force=None, flips=(), faults=()
    ):
        force = force or {}
        state, index = StabilizerState.graph_state(
            pattern.graph, seed=seed, zero_nodes=pattern.inputs
        )
        for node, kind in faults:
            getattr(state, f"{kind}_gate")(index[node])
        outcomes = {}
        self.deterministic = 0
        for node in pattern.measurement_order():
            basis, sign = actual_basis(pattern, node, outcomes)
            probe = PauliString.from_ops(state.n, {index[node]: basis})
            self.deterministic += state.expectation(probe) is not None
            outcome = state.measure_single(
                index[node], basis, sign=sign, force=force.get(node)
            )
            outcomes[node] = outcome ^ (node in flips)
        for node in pattern.outputs:
            if sum(outcomes[s] for s in pattern.output_z.get(node, ())) & 1:
                state.z_gate(index[node])
            if sum(outcomes[s] for s in pattern.output_x.get(node, ())) & 1:
                state.x_gate(index[node])
        self.state, self.index, self.outcomes = state, index, outcomes

    def violated_generator(self, outputs, rows):
        for which, (x, z, sign) in enumerate(rows):
            pauli = PauliString(self.state.n)
            for wire, node in enumerate(outputs):
                pauli.x[self.index[node]] = x[wire]
                pauli.z[self.index[node]] = z[wire]
            observed = self.state.expectation(pauli)
            if observed != sign:
                return which, observed
        return None


def corrupted(rows, which):
    """*rows* with generator *which*'s sign flipped."""
    out = list(rows)
    x, z, sign = out[which]
    out[which] = (x, z, sign ^ 1)
    return out


def assert_same_answers(pattern, rows, window, full):
    """Same outcomes, and the same violated generator for the correct
    rows, for each sign-corrupted copy, and for a generator replaced by
    one Pauli the output state does not fix."""
    assert window.outcomes == full.outcomes
    outputs = pattern.outputs
    assert window.violated_generator(outputs, rows) == full.violated_generator(
        outputs, rows
    )
    for which in sorted({0, len(rows) // 2, len(rows) - 1}):
        bad = corrupted(rows, which)
        got = window.violated_generator(outputs, bad)
        assert got == full.violated_generator(outputs, bad)
    # a generator's X and Z parts exchanged: usually random on the output
    swapped = list(rows)
    x, z, sign = swapped[-1]
    swapped[-1] = (z, x, sign)
    assert window.violated_generator(outputs, swapped) == (
        full.violated_generator(outputs, swapped)
    )


CIRCUITS = {
    "BV-8": lambda: get_benchmark("BV", 8, seed=7),
    "BV-16": lambda: get_benchmark("BV", 16, seed=7),
    "BV-64": lambda: get_benchmark("BV", 64, seed=7),
    "RND-12-s1": lambda: random_clifford(12, 200, 1),
    "RND-12-s2": lambda: random_clifford(12, 200, 2),
    "RND-12-s3": lambda: random_clifford(12, 200, 3),
    "RND-48-s7": lambda: random_clifford(48, 800, 7),
    "RND-48-s11": lambda: random_clifford(48, 800, 11),
}


@pytest.fixture(scope="module", params=sorted(CIRCUITS))
def translated(request):
    circuit = CIRCUITS[request.param]()
    return request.param, circuit_to_pattern(circuit), circuit_rows(circuit)


class TestTranslatedPatterns:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_full_tableau(self, translated, seed):
        _, pattern, rows = translated
        window = StabilizerPatternSimulator(pattern, seed=seed).run()
        full = FullTableauRun(pattern, seed=seed)
        assert_same_answers(pattern, rows, window, full)
        assert window.violated_generator(pattern.outputs, rows) is None
        for which in (0, len(rows) - 1):
            bad = corrupted(rows, which)
            assert window.violated_generator(pattern.outputs, bad) == (
                which, rows[which][2]
            )

    def test_peak_window_is_the_live_set(self, translated):
        name, pattern, _ = translated
        peak = StabilizerPatternSimulator(pattern, seed=0).run().peak_window
        assert peak < pattern.num_nodes
        expected = {"BV-8": 8, "BV-16": 16, "BV-64": 64, "RND-48-s7": 49}
        if name in expected:
            assert peak == expected[name]

    def test_force_outcomes(self, translated):
        _, pattern, rows = translated
        order = pattern.measurement_order()
        force = {node: k % 2 for k, node in enumerate(order[::3])}
        window = StabilizerPatternSimulator(
            pattern, seed=2, force_outcomes=force
        ).run()
        full = FullTableauRun(pattern, seed=2, force=force)
        assert all(window.outcomes[n] == bit for n, bit in force.items())
        assert_same_answers(pattern, rows, window, full)

    def test_outcome_flips_and_faults(self, translated):
        _, pattern, rows = translated
        rng = np.random.default_rng(3)
        nodes = sorted(pattern.graph.nodes())
        measured = sorted(pattern.measurement_order())
        flips = frozenset(
            int(v) for v in rng.choice(measured, size=3, replace=False)
        )
        # faults anywhere, outputs included, some nodes hit twice
        faults = [
            (int(nodes[q]), "xyz"[int(k)])
            for q, k in zip(
                rng.integers(0, len(nodes), size=8), rng.integers(0, 3, size=8)
            )
        ]
        faults += [(pattern.outputs[0], "y"), faults[0]]
        window = StabilizerPatternSimulator(
            pattern, seed=3, outcome_flips=flips, faults=faults
        ).run()
        full = FullTableauRun(pattern, seed=3, flips=flips, faults=faults)
        assert_same_answers(pattern, rows, window, full)


class TestRandomStreams:
    def test_generator_seed_is_drawn_from_in_place(self):
        pattern = circuit_to_pattern(get_benchmark("BV", 8, seed=7))
        rng = np.random.default_rng(9)
        first = StabilizerPatternSimulator(pattern, seed=rng).run().outcomes
        second = StabilizerPatternSimulator(pattern, seed=rng).run().outcomes
        fresh = np.random.default_rng(9)
        assert first == FullTableauRun(pattern, seed=fresh).outcomes
        # the second run continued the same stream
        expected = FullTableauRun(pattern, seed=fresh).outcomes
        assert second == expected

    def test_faulty_shot_matches_full_tableau_at_one_seed(self):
        pattern = circuit_to_pattern(get_benchmark("BV", 16, seed=7))
        rows = circuit_rows(get_benchmark("BV", 16, seed=7))
        order = pattern.measurement_order()
        faults = [(pattern.outputs[1], "x"), (order[4], "z")]
        flips = frozenset(order[2:4])
        window = StabilizerPatternSimulator(
            pattern, seed=4, outcome_flips=flips, faults=faults
        ).run()
        full = FullTableauRun(pattern, seed=4, flips=flips, faults=faults)
        assert_same_answers(pattern, rows, window, full)


# ----------------------------------------------------------------------
# hand-built patterns with deterministic measurements
# ----------------------------------------------------------------------
def twin_pattern(angle_b=0.0):
    """``0 - 2 - 1``: ``X_0 X_1`` stabilizes the graph state, so once
    node 0 is measured in X, node 1's X outcome is fixed (equal to node
    0's at angle 0, its complement at angle pi)."""
    graph = nx.Graph([(0, 2), (1, 2)])
    return MeasurementPattern(
        graph=graph,
        inputs=(),
        outputs=(2,),
        angles={0: 0.0, 1: angle_b},
        sequence=(0, 1),
    )


def random_pattern(seed):
    """A random graph, random Pauli angles, random dependencies on
    earlier nodes and a random measurement order."""
    rng = random.Random(seed)
    size = rng.randrange(5, 13)
    graph = nx.gnp_random_graph(size, 0.3, seed=seed)
    nodes = list(graph.nodes())
    rng.shuffle(nodes)
    outputs = tuple(nodes[: rng.randrange(1, 4)])
    order = nodes[len(outputs):]
    inputs = tuple(v for v in nodes if rng.random() < 0.3)
    angles = {v: rng.randrange(4) * math.pi / 2 for v in order}
    x_deps, z_deps = {}, {}
    for k, node in enumerate(order):
        earlier = order[:k]
        x_deps[node] = frozenset(v for v in earlier if rng.random() < 0.2)
        z_deps[node] = frozenset(v for v in earlier if rng.random() < 0.2)
    return MeasurementPattern(
        graph=graph,
        inputs=inputs,
        outputs=outputs,
        angles=angles,
        x_deps=x_deps,
        z_deps=z_deps,
        output_x={v: frozenset(order[:2]) for v in outputs},
        output_z={v: frozenset(order[-2:]) for v in outputs},
        sequence=tuple(order),
    )


def output_rows(pattern, full):
    """Outputs in tableau order and the generators of their state, read
    off the reference tableau (a valid generator list for the run)."""
    outputs = sorted(pattern.outputs, key=full.index.get)
    keep = {full.index[v] for v in outputs}
    reduced = full.state.discard(
        q for q in range(full.state.n) if q not in keep
    )
    return outputs, reduced.stabilizer_rows()


class TestDeterministicMeasurements:
    def test_twin_outcome_is_fixed(self):
        for seed in range(6):
            window = StabilizerPatternSimulator(
                twin_pattern(), seed=seed
            ).run()
            full = FullTableauRun(twin_pattern(), seed=seed)
            assert full.deterministic == 1
            assert window.outcomes == full.outcomes
            assert window.outcomes[1] == window.outcomes[0]

    def test_twin_sign_follows_the_angle(self):
        window = StabilizerPatternSimulator(
            twin_pattern(math.pi), seed=0
        ).run()
        assert window.outcomes[1] == window.outcomes[0] ^ 1

    def test_forced_deterministic_outcome(self):
        pattern = twin_pattern()
        window = StabilizerPatternSimulator(
            pattern, force_outcomes={0: 1, 1: 1}
        ).run()
        assert window.outcomes == {0: 1, 1: 1}
        with pytest.raises(RuntimeError, match="zero probability"):
            StabilizerPatternSimulator(
                pattern, force_outcomes={0: 1, 1: 0}
            ).run()

    def test_random_patterns_match_full_tableau(self):
        deterministic = 0
        for seed in range(40):
            pattern = random_pattern(seed)
            for run_seed in (0, 1):
                full = FullTableauRun(pattern, seed=run_seed)
                window = StabilizerPatternSimulator(
                    pattern, seed=run_seed
                ).run()
                assert window.outcomes == full.outcomes, seed
                deterministic += full.deterministic
                outputs, rows = output_rows(pattern, full)
                assert window.violated_generator(outputs, rows) is None
                for which in range(len(rows)):
                    bad = corrupted(rows, which)
                    got = window.violated_generator(outputs, bad)
                    assert got == full.violated_generator(outputs, bad)
                    assert got == (which, rows[which][2])
                assert window.peak_window <= pattern.num_nodes
        # the deterministic branch (and its forced-Z release) really ran
        assert deterministic >= 20

    def test_random_patterns_with_faults_and_flips(self):
        for seed in range(40, 60):
            pattern = random_pattern(seed)
            rng = random.Random(seed)
            nodes = sorted(pattern.graph.nodes())
            faults = [(rng.choice(nodes), rng.choice("xyz")) for _ in range(3)]
            flips = frozenset(rng.sample(list(pattern.measurement_order()), 1))
            full = FullTableauRun(
                pattern, seed=seed, flips=flips, faults=faults
            )
            window = StabilizerPatternSimulator(
                pattern, seed=seed, outcome_flips=flips, faults=faults
            ).run()
            assert window.outcomes == full.outcomes, seed
