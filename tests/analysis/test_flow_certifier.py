"""Flow / gflow certification: proofs, counterexamples, benchmark pins."""

import networkx as nx
import pytest

from repro.analysis.flow import (
    certify_pattern,
    find_causal_flow,
    find_gflow,
    flow_corrections,
)
from repro.circuit.benchmarks import get_benchmark
from repro.mbqc.pattern import MeasurementPattern
from repro.mbqc.translate import circuit_to_pattern


def _pattern(edges, inputs, outputs, angle=0.3):
    graph = nx.Graph(edges)
    measured = set(graph.nodes()) - set(outputs)
    return MeasurementPattern(
        graph=graph,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        angles={v: angle for v in measured},
    )


class TestCausalFlow:
    def test_path_graph_has_line_flow(self):
        graph = nx.Graph([(1, 2), (2, 3)])
        result = find_causal_flow(graph, [1], [3])
        assert result is not None
        f, layer_of = result
        assert f == {2: 3, 1: 2}
        # outputs at layer 0, earlier-measured nodes higher
        assert layer_of[3] == 0
        assert layer_of[2] == 1
        assert layer_of[1] == 2

    def test_flow_corrections_on_path(self):
        graph = nx.Graph([(1, 2), (2, 3)])
        f, _ = find_causal_flow(graph, [1], [3])
        x_map, z_map = flow_corrections(graph, [3], f)
        # measuring 1 -> X on f(1)=2, Z on N(2)\{1}={3};
        # measuring 2 -> X on f(2)=3, Z on N(3)\{2}={}
        assert x_map[2] == frozenset({1})
        assert x_map[3] == frozenset({2})
        assert z_map[3] == frozenset({1})
        assert z_map[1] == frozenset()

    def test_output_only_graph_is_trivially_deterministic(self):
        pattern = _pattern([(0, 1)], inputs=[0, 1], outputs=[0, 1])
        cert = certify_pattern(pattern)
        assert cert.ok and cert.kind == "flow" and cert.depth == 0

    def test_stall_when_every_output_has_two_unmeasured_neighbours(self):
        # K_{1,2} star measured at both leaves: output 3 sees two
        # unprocessed neighbours forever, so the round-based search
        # cannot start
        graph = nx.Graph([(1, 3), (2, 3)])
        assert find_causal_flow(graph, [1, 2], [3]) is None


class TestGflow:
    # Open graph with a gflow but no causal flow (hand-checked):
    # measured inputs {0,1,2}, outputs {3,4,5},
    # adjacency columns over GF(2) are c3=[1,0,1], c4=[1,1,1],
    # c5=[0,1,1] — full rank, so every e_u is a column combination
    # (g(0)={4,5}, g(1)={3,4}, g(2)={3,4,5}), but no *single* column is
    # an e_u, so no successor function exists.
    GFLOW_EDGES = [(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]

    def test_gflow_without_causal_flow(self):
        graph = nx.Graph(self.GFLOW_EDGES)
        assert find_causal_flow(graph, [0, 1, 2], [3, 4, 5]) is None
        result = find_gflow(graph, [0, 1, 2], [3, 4, 5])
        assert result is not None
        g, layer_of = result
        assert g[0] == frozenset({4, 5})
        assert g[1] == frozenset({3, 4})
        assert g[2] == frozenset({3, 4, 5})
        assert all(layer_of[u] == 1 for u in (0, 1, 2))

    def test_certificate_kind_is_gflow(self):
        pattern = _pattern(
            self.GFLOW_EDGES, inputs=[0, 1, 2], outputs=[3, 4, 5]
        )
        cert = certify_pattern(pattern)
        assert cert.ok and cert.kind == "gflow"
        assert cert.successor == {}
        assert cert.corrector[0] == frozenset({4, 5})
        assert "deterministic" in cert.summary()

    def test_gflow_correction_sets_isolate_their_vertex(self):
        graph = nx.Graph(self.GFLOW_EDGES)
        g, _ = find_gflow(graph, [0, 1, 2], [3, 4, 5])
        for u, K in g.items():
            odd = set()
            for c in K:
                odd ^= set(graph.neighbors(c))
            assert odd & {0, 1, 2} == {u}


class TestNoDeterminism:
    # 6-cycle with alternating measured/output vertices: the output
    # adjacency matrix has rows summing to zero over GF(2), so no e_u is
    # reachable and no gflow (hence no flow) exists.
    CYCLE_EDGES = [(0, 3), (2, 3), (2, 5), (1, 5), (1, 4), (0, 4)]

    def test_cycle_has_no_flow_of_any_kind(self):
        graph = nx.Graph(self.CYCLE_EDGES)
        assert find_causal_flow(graph, [0, 1, 2], [3, 4, 5]) is None
        assert find_gflow(graph, [0, 1, 2], [3, 4, 5]) is None

    def test_counterexample_is_localized(self):
        pattern = _pattern(
            self.CYCLE_EDGES, inputs=[0, 1, 2], outputs=[3, 4, 5]
        )
        cert = certify_pattern(pattern)
        assert not cert.ok and cert.kind == "none"
        assert cert.violation is not None
        # every measured vertex stalls; the canonical witness is the
        # smallest
        assert set(cert.violation.stalled) == {0, 1, 2}
        assert cert.violation.node == 0
        assert "no determinism certificate" in cert.summary()


class TestBenchmarkPatterns:
    @pytest.mark.parametrize(
        "name,qubits", [("QFT", 8), ("QAOA", 8), ("RCA", 8), ("BV", 16)]
    )
    def test_translated_patterns_certify_with_causal_flow(self, name, qubits):
        pattern = circuit_to_pattern(get_benchmark(name, qubits, seed=7))
        cert = certify_pattern(pattern)
        assert cert.ok and cert.kind == "flow"
        assert cert.depth >= 1

    def test_translator_corrections_equal_flow_induced(self):
        """The translation *is* the causal-flow construction: recorded
        x/z dependency sets match the flow-induced ones node for node.
        This equality is what lets the linter catch dropped corrections
        statically."""
        pattern = circuit_to_pattern(get_benchmark("QFT", 8, seed=7))
        cert = certify_pattern(pattern)
        x_map, z_map = flow_corrections(
            pattern.graph, pattern.outputs, cert.successor
        )
        outputs = set(pattern.outputs)
        for v in pattern.graph.nodes():
            if v in outputs:
                assert pattern.output_x.get(v, frozenset()) == x_map[v]
                assert pattern.output_z.get(v, frozenset()) == z_map[v]
            else:
                assert pattern.x_deps.get(v, frozenset()) == x_map[v]
                assert pattern.z_deps.get(v, frozenset()) == z_map[v]

    def test_flow_layers_respect_measurement_order(self):
        """Layers decrease (weakly) along the translator's chronological
        sequence, and every node is measured strictly before its
        successor."""
        pattern = circuit_to_pattern(get_benchmark("QAOA", 8, seed=7))
        cert = certify_pattern(pattern)
        pos = {v: i for i, v in enumerate(pattern.sequence)}
        for u, v in cert.successor.items():
            if v in pos:  # successor may be an output (never measured)
                assert pos[u] < pos[v]
        for u in pattern.sequence:
            assert cert.layer_of[u] >= 1
