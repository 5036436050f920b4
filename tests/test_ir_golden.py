"""Golden digests of the compiler's two intermediate representations.

* The ``{J, CZ}`` lowering and the measurement pattern built from it, on
  the 14 Table-2 circuits (seed 7) and a seeded corpus of random
  circuits over every gate name, with angles chosen so that the
  zero-drop, merge and cancellation rules of the peephole pass fire.
* Every partition's fusion graph on the twelve timed Table-2 rows: node
  order, per-node adjacency order with the fusion kind, chains, ports
  and fusion counts.

Each digest is a sha256 over a canonical text rendering, with angles as
``float.hex`` so that a change in how merged angles are summed shows.
A refactor of either IR must keep every digest.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

import repro.core.compiler as compiler_mod
from repro.circuit import Circuit, simplify_basic, to_basic, to_jcz
from repro.circuit.benchmarks import get_benchmark
from repro.circuit.gates import GATE_SIGNATURES
from repro.core.compiler import OneQCompiler, OneQConfig
from repro.eval.experiments import TABLE_BENCHMARKS, _hardware_for
from repro.hardware.resource_state import THREE_LINE
from repro.mbqc.translate import circuit_to_pattern

#: rows compiled for the fusion-graph digests (all but the 100-qubit
#: QFT and QAOA rows, which take several seconds each)
TIMED_ROWS = [
    key for key in TABLE_BENCHMARKS if key not in (("QFT", 100), ("QAOA", 100))
]

#: angles that hit the zero-drop and merge branches, next to generic ones
SPECIAL_ANGLES = (
    0.0, math.pi, -math.pi / 2, 1e-12, 2 * math.pi - 1e-12,
    math.pi / 4, -math.pi / 4, 3 * math.pi / 2,
)

PATTERN_DIGESTS = {
    "QFT-16": "944c9199b0f786554421b12c1903fe153d414bd203b174fb7ba253c51fc675f2",
    "QFT-25": "3fc348d8a32dbbe7759381852856c5013ac5de3daf0e762814c0ec18fb8ee442",
    "QFT-36": "12c553764605b7f1b534ec958ea93c3b8944badcf818b6dc3aa749647fc97490",
    "QFT-100": "b6adfed9c1f2db03ea4cb7b43da90d7ec63a81992b2478866b72ea6c0f90f73c",
    "QAOA-16": "e0b3cd40747d18b4b968892066a23597c003d03f6b04463916a43be4b3612c98",
    "QAOA-25": "0b29862d04c48205a546696a072d577fa99f2e10bf524fef59d8b9b9948c03a7",
    "QAOA-36": "c6628a0c88d1558756d9a42dad35be63e5ae37742b3c4e1c29edaf55fe28beb4",
    "QAOA-100": "5fdf0747e95145fd32ebb6f4a252c7b5cade0ad57098905a88d3e752c8847f10",
    "RCA-16": "ca243eefb70a9ec7ce37c106734e8bb57a64bb706ea850f435dc8bb814da4d3d",
    "RCA-25": "de4f11b537ef507c59ed1e05fadf0d312e21fec5cb901d94cd200ed4f96fe508",
    "RCA-36": "4748992579f5753757745405859370d8e7595b9827e4373ecb595651072d1848",
    "BV-16": "06f7b9d7ca336bda76f2eeaa58393d08e3b1d0b7da3d6b387c22fc8c7a9d6fcd",
    "BV-25": "09e20b0b29750e340297ea5d52fe60c41faebeea42bab4dc1a954fb96bfa7d30",
    "BV-100": "53c6ee6be2ae436a57c9cfac107fdd6e28e7638d44235db3c946686379204ada",
}
CORPUS_DIGEST = "507fc2bf9e4903eaad9008608e5eefdc96db2a6886efe1ee0c29e88dbe2fbc62"
FUSION_DIGESTS = {
    "QFT-16": "ea94fbad091058dd61aa1a44dd9cf9e956d59d1f586f9ced769b8229adf4d794",
    "QFT-25": "9c947c3439aafbc9ce9c46358d54c551421439d5db02ccf7b721b03d409b5bb4",
    "QFT-36": "2b6e3c478e812a5dc7dbce197c77c247b220a27f2623609959ebfdb8838f20b2",
    "QAOA-16": "fb34bd7d72d2f9ece0e158c39404898007dca0bc4d6ccf4edce358b3cb766594",
    "QAOA-25": "58b4d76400d8dc91f94a990b41bf08d0305f3ad30ce067f97e953ce5e1bf4aef",
    "QAOA-36": "85b5299e19e06228f48436ab8f116e9ec316aaeab3a95bc44d3f74fc13db0b73",
    "RCA-16": "5872473fee04e27ec654e331bf3ab5634504adcfb3d201ecc558a38799f041f2",
    "RCA-25": "b3aa9e7feeb2ea3910e93d297c7d88bd487b13006dacc4b52d44f5cda2ee15a0",
    "RCA-36": "26eac9dc50441f9e6fb8e6ff7fd8b62a20d3b560ac2f0d7ac5c2f8a077df8afa",
    "BV-16": "4817a5f5a609bb3e79d397e04bd3add35ea2afae6eced481d0f692292e502233",
    "BV-25": "f1c023cab9a7cd6794903b3fe4e3afe9ff59c7956dfa60afd3c5eeb7f86aca12",
    "BV-100": "390be24a8acec508e082fa640b1e8e862972a5dd25e45edb7d3c764e6c99bb34",
}


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _gate_lines(circuit: Circuit):
    for gate in circuit:
        yield f"{gate.name} {gate.qubits} {[float.hex(p) for p in gate.params]}"


def _deps(deps) -> str:
    return ";".join(f"{v}:{sorted(s)}" for v, s in deps.items())


def _pattern_lines(pattern):
    graph = pattern.graph
    yield f"nodes {list(graph.nodes())}"
    for v in graph.nodes():
        yield f"adj {v} {list(graph.adj[v])}"
    yield f"io {pattern.inputs} {pattern.outputs}"
    yield "angles " + ";".join(
        f"{v}:{float.hex(a)}" for v, a in pattern.angles.items()
    )
    yield f"x {_deps(pattern.x_deps)}"
    yield f"z {_deps(pattern.z_deps)}"
    yield f"ox {_deps(pattern.output_x)}"
    yield f"oz {_deps(pattern.output_z)}"
    yield f"wire {sorted(pattern.wire_of.items())}"
    yield f"seq {pattern.sequence}"


def _circuit_digest(circuit: Circuit) -> str:
    """Digest of the ``{J, CZ}`` stream and the pattern of *circuit*."""
    lines = list(_gate_lines(to_jcz(circuit)))
    lines.append("--")
    lines.extend(_pattern_lines(circuit_to_pattern(circuit)))
    return _sha(lines)


def random_corpus(count: int = 200, seed: int = 2024):
    """Seeded random circuits over every name in ``GATE_SIGNATURES``."""
    rng = random.Random(seed)
    names = sorted(GATE_SIGNATURES)
    circuits = []
    for index in range(count):
        width = rng.randint(3, 5)
        circuit = Circuit(width)
        # a few runs of one gate name force long merge/cancel chains
        for _ in range(rng.randint(0, 40)):
            name = names[index % len(names)] if rng.random() < 0.3 else (
                rng.choice(names)
            )
            arity, n_params = GATE_SIGNATURES[name]
            qubits = tuple(rng.sample(range(width), arity))
            params = tuple(
                rng.choice(SPECIAL_ANGLES)
                if rng.random() < 0.7
                else rng.uniform(-7.0, 7.0)
                for _ in range(n_params)
            )
            circuit.add(name, *qubits, params=params)
        circuits.append(circuit)
    return circuits


def _corpus_lines():
    for circuit in random_corpus():
        yield f"circuit {circuit.num_qubits} {len(circuit)}"
        for label, lowered in (
            ("basic", to_basic(circuit)),
            ("simple", simplify_basic(to_basic(circuit))),
            ("jcz", to_jcz(circuit)),
            ("raw", to_jcz(circuit, simplify=False)),
        ):
            yield label
            yield from _gate_lines(lowered)
        yield from _pattern_lines(circuit_to_pattern(circuit))


class TestPatternDigests:
    @pytest.mark.parametrize("name,qubits", TABLE_BENCHMARKS)
    def test_table2_circuit(self, name, qubits):
        circuit = get_benchmark(name, qubits, seed=7)
        assert _circuit_digest(circuit) == PATTERN_DIGESTS[f"{name}-{qubits}"]

    def test_random_corpus(self):
        assert _sha(_corpus_lines()) == CORPUS_DIGEST


def _fusion_lines(fusion, graph):
    yield f"nodes {list(graph)}"
    for v in graph:
        yield f"adj {v} {[(w, kind) for w, kind in graph[v].items()]}"
    yield f"chains {sorted(fusion.chains.items())}"
    yield f"ports {list(fusion.port_of.items())}"
    yield (
        f"counts {fusion.synthesis_fusions} {fusion.edge_fusions} "
        f"{fusion.planar} {fusion.num_resource_states}"
    )


def _nx_adjacency(graph):
    return {v: {w: d["kind"] for w, d in nbrs.items()} for v, nbrs in graph.adj.items()}


@pytest.fixture(scope="module")
def fusion_graphs():
    """Every partition's fusion graph per timed row, in build order."""
    captured = {}
    build = compiler_mod.build_fusion_graph

    def capture(*args, **kwargs):
        fusion = build(*args, **kwargs)
        captured.setdefault(label, []).append(fusion)
        return fusion

    mp = pytest.MonkeyPatch()
    mp.setattr(compiler_mod, "build_fusion_graph", capture)
    try:
        for name, qubits in TIMED_ROWS:
            label = f"{name}-{qubits}"
            config = OneQConfig(hardware=_hardware_for(qubits, THREE_LINE))
            OneQCompiler(config).compile(
                get_benchmark(name, qubits, seed=7), name=label
            )
    finally:
        mp.undo()
    return captured


class TestFusionGraphDigests:
    @pytest.mark.parametrize(
        "label", [f"{name}-{qubits}" for name, qubits in TIMED_ROWS]
    )
    def test_timed_row(self, fusion_graphs, label):
        lines = []
        for fusion in fusion_graphs[label]:
            lines.extend(_fusion_lines(fusion, fusion.adj))
        assert _sha(lines) == FUSION_DIGESTS[label]

    @pytest.mark.parametrize(
        "label", [f"{name}-{qubits}" for name, qubits in TIMED_ROWS]
    )
    def test_networkx_view_of_timed_row(self, fusion_graphs, label):
        """``to_networkx`` rebuilds the same node, neighbour and kind order."""
        lines = []
        for fusion in fusion_graphs[label]:
            graph = _nx_adjacency(fusion.to_networkx())
            lines.extend(_fusion_lines(fusion, graph))
        assert _sha(lines) == FUSION_DIGESTS[label]
