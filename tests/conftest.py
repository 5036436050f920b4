"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.circuit import Circuit
from repro.core.fusion_graph import FusionGraph


def random_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int,
    two_qubit_gates=("cz", "cx"),
    one_qubit_gates=("h", "t", "s", "x", "z", "rz", "rx", "ry"),
) -> Circuit:
    """Deterministic random circuit used across equivalence tests."""
    rng = random.Random(seed)
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        if rng.random() < 0.5 or num_qubits == 1:
            gate = rng.choice(one_qubit_gates)
            qubit = rng.randrange(num_qubits)
            if gate in ("rz", "rx", "ry", "p"):
                circuit.add(gate, qubit, params=(rng.uniform(0, 2 * math.pi),))
            else:
                circuit.add(gate, qubit)
        else:
            qubits = rng.sample(range(num_qubits), 2)
            gate = rng.choice(two_qubit_gates)
            if gate == "cp":
                circuit.add(gate, *qubits, params=(rng.uniform(0, 2 * math.pi),))
            else:
                circuit.add(gate, *qubits)
    return circuit


def fusion_graph_of(graph: nx.Graph) -> FusionGraph:
    """A chainless :class:`FusionGraph` over *graph*'s adjacency, in its
    node and neighbour order; an edge without a ``kind`` is an 'edge'."""
    adj = {
        u: {v: data.get("kind", "edge") for v, data in nbrs.items()}
        for u, nbrs in graph.adj.items()
    }
    return FusionGraph(adj=adj, chains={}, port_of={})


@pytest.fixture
def small_hardware():
    from repro.hardware import HardwareConfig

    return HardwareConfig.square(8)


@pytest.fixture
def paper_hardware():
    """The 16x16 array used for 16-qubit benchmarks in the paper."""
    from repro.hardware import HardwareConfig

    return HardwareConfig.square(16)
