"""Cross-module integration tests.

These exercise the full pipeline — circuit, pattern, partitioning,
fusion-graph synthesis, mapping, baseline — and check the *physics*:
the synthesized fusion strategy really builds the intended graph state,
and the scheduled pattern really computes the circuit.
"""

import networkx as nx
import pytest

from repro.circuit import Circuit, bernstein_vazirani, get_benchmark, qft
from repro.core import (
    OneQCompiler,
    OneQConfig,
    compile_circuit,
    verify_fusion_graph,
)
from repro.core.fusion_graph import build_fusion_graph
from repro.core.partition import partition_pattern, required_degrees
from repro.hardware import HardwareConfig, THREE_LINE
from repro.mbqc import circuit_to_pattern, fuse
from repro.sim import simulate, simulate_pattern, states_equal_up_to_phase
from repro.sim.stabilizer import PauliString, StabilizerState
from tests.conftest import random_circuit


class TestFusionStrategyBuildsGraphState:
    """Execute a fusion graph's fusions on real (stabilizer) states and
    check the result is exactly the partition's graph state."""

    @pytest.mark.parametrize(
        "graph",
        [nx.path_graph(4), nx.star_graph(4), nx.star_graph(6), nx.cycle_graph(5)],
        ids=["path", "star4", "star6", "cycle"],
    )
    def test_replay_fusions(self, graph):
        """Replay the synthesis on actual graph states.

        Each original node is one photon.  Its chain head's centre photon
        *is* the node; every continuation state is attached through the
        degree-increment pattern (Fig. 7a: a port photon fuses with the
        new state's centre, and the new state's leaves become fresh
        ports).  Graph edges are then graph-connection fusions between
        port photons (Fig. 7c).  The surviving centres must form exactly
        the input graph.
        """
        degrees = {v: graph.degree(v) for v in graph.nodes()}
        fg = build_fusion_graph(graph, degrees, THREE_LINE)
        ok, msg = verify_fusion_graph(fg, graph, THREE_LINE)
        assert ok, msg

        big = nx.Graph()
        index = {n: i for i, n in enumerate(sorted(fg.adj))}
        for fg_node, idx in index.items():
            base = idx * 10_000
            for u, v in THREE_LINE.edges:
                big.add_edge(base + u, base + v)

        def centre(fg_node):
            return index[fg_node] * 10_000 + 1

        def fg_leaves(fg_node):
            base = index[fg_node] * 10_000
            return [base + 0, base + 2]

        current = big
        node_photon = {}
        ports = {}
        # 1) synthesize each original node from its chain
        for orig, chain in fg.chains.items():
            node_photon[orig] = centre(chain[0])
            pool = fg_leaves(chain[0])
            for cont in chain[1:]:
                port = pool.pop()
                current = fuse(current, port, centre(cont))
                pool.extend(fg_leaves(cont))
            ports[orig] = pool
        # 2) realize every graph edge by a graph-connection fusion
        for u, v in graph.edges():
            current = fuse(current, ports[u].pop(), ports[v].pop())
        # 3) Z-measure leftover port photons
        for orig in graph.nodes():
            for leftover in ports[orig]:
                if leftover in current:
                    current.remove_node(leftover)

        keep = set(node_photon.values())
        assert keep <= set(current.nodes()), "a node photon was destroyed"
        mapping = {photon: orig for orig, photon in node_photon.items()}
        synthesized = nx.relabel_nodes(current.subgraph(keep).copy(), mapping)
        assert set(synthesized.nodes()) == set(graph.nodes())
        assert {frozenset(e) for e in synthesized.edges()} == {
            frozenset(e) for e in graph.edges()
        }, "fusion strategy did not synthesize the target graph"


class TestEndToEndSemantics:
    """Compile-level scheduling must never violate measurement order."""

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_order_is_executable(self, seed):
        pattern = circuit_to_pattern(random_circuit(3, 12, seed + 2000))
        parts = partition_pattern(pattern)
        position = {}
        for part in parts:
            for node in part.nodes:
                position[node] = part.index
        # every dependency source is scheduled no later than its target
        for node, sources in pattern.x_deps.items():
            for src in sources:
                assert position[src] <= position[node]
        for node, sources in pattern.z_deps.items():
            for src in sources:
                assert position[src] <= position[node]

    @pytest.mark.parametrize(
        "circuit",
        [qft(4), bernstein_vazirani(5)],
        ids=["qft4", "bv5"],
    )
    def test_pattern_still_correct_after_compilation(self, circuit):
        """Compilation must not mutate the pattern it consumes."""
        pattern = circuit_to_pattern(circuit)
        before = (
            pattern.graph.number_of_nodes(),
            pattern.graph.number_of_edges(),
            dict(pattern.angles),
        )
        compiler = OneQCompiler(OneQConfig(hardware=HardwareConfig.square(10)))
        compiler.compile_pattern(pattern)
        after = (
            pattern.graph.number_of_nodes(),
            pattern.graph.number_of_edges(),
            dict(pattern.angles),
        )
        assert before == after
        result = simulate_pattern(pattern, seed=3)
        assert states_equal_up_to_phase(simulate(circuit), result.state)


class TestResourceAccounting:
    def test_fusion_graph_states_match_compiler_count(self):
        circuit = get_benchmark("BV", 12)
        pattern = circuit_to_pattern(circuit)
        parts = partition_pattern(pattern)
        expected = 0
        for part in parts:
            fg = build_fusion_graph(
                part.subgraph, required_degrees(part, pattern.graph), THREE_LINE
            )
            expected += fg.num_resource_states
        prog = compile_circuit(circuit, HardwareConfig.square(12))
        # compiler adds aux/shuffle states on top of synthesis states
        assert prog.resource_states_used >= expected

    def test_every_edge_is_paid_for(self):
        """#fusions >= graph edges + synthesis chains (lower bound)."""
        circuit = get_benchmark("QAOA", 12)
        pattern = circuit_to_pattern(circuit)
        prog = compile_circuit(circuit, HardwareConfig.square(14))
        assert prog.num_fusions >= pattern.graph.number_of_edges()

    def test_z_measurements_nonnegative(self):
        prog = compile_circuit(qft(5), HardwareConfig.square(10))
        assert prog.fusions.z_measurements >= 0


class TestStabilizerCrossCheck:
    def test_pattern_graph_state_is_stabilizer_state(self):
        """The translated graph state is a valid stabilizer state whose
        graph stabilizers all measure +1."""
        pattern = circuit_to_pattern(qft(3))
        graph = pattern.graph
        state, index = StabilizerState.graph_state(graph)
        for node in list(graph.nodes())[:5]:
            ops = {index[node]: "x"}
            for nbr in graph.neighbors(node):
                ops[index[nbr]] = "z"
            assert (
                state.measure_pauli(PauliString.from_ops(state.n, ops)) == 0
            )
