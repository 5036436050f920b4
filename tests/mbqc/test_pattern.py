"""Tests for the MeasurementPattern data model."""

import math

import networkx as nx
import pytest

from repro.mbqc.pattern import MeasurementPattern


def make_pattern(validate=True, **overrides):
    graph = nx.path_graph(3)
    defaults = dict(
        graph=graph,
        inputs=(0,),
        outputs=(2,),
        angles={0: 0.0, 1: math.pi / 4},
        x_deps={1: frozenset({0})},
        z_deps={},
        sequence=(0, 1),
    )
    defaults.update(overrides)
    return MeasurementPattern(**defaults, validate=validate)


class TestValidation:
    def test_valid(self):
        p = make_pattern()
        assert p.num_nodes == 3
        assert p.num_edges == 2

    def test_missing_angle_rejected(self):
        with pytest.raises(ValueError, match="angles"):
            make_pattern(angles={0: 0.0})

    def test_extra_angle_rejected(self):
        with pytest.raises(ValueError, match="angles"):
            make_pattern(angles={0: 0.0, 1: 0.0, 2: 0.0})

    def test_unknown_input_rejected(self):
        with pytest.raises(ValueError, match="inputs"):
            make_pattern(inputs=(9,))

    def test_unknown_output_rejected(self):
        with pytest.raises(ValueError, match="outputs"):
            make_pattern(outputs=(9,), angles={0: 0.0, 1: 0.0, 2: 0.0})

    def test_dep_on_output_rejected(self):
        with pytest.raises(ValueError, match="measured"):
            make_pattern(x_deps={1: frozenset({2})})

    def test_bad_sequence_rejected(self):
        with pytest.raises(ValueError, match="sequence"):
            make_pattern(sequence=(0,))


class TestAdaptivity:
    def test_pauli_angle_not_adaptive(self):
        p = make_pattern(angles={0: 0.0, 1: math.pi / 2}, x_deps={1: frozenset({0})})
        assert not p.is_adaptive(1)

    def test_non_pauli_with_dep_adaptive(self):
        p = make_pattern()
        assert p.is_adaptive(1)

    def test_non_pauli_without_dep_not_adaptive(self):
        p = make_pattern(x_deps={})
        assert not p.is_adaptive(1)

    def test_output_never_adaptive(self):
        p = make_pattern()
        assert not p.is_adaptive(2)

    def test_effective_x_deps_filtered(self):
        p = make_pattern(angles={0: 0.0, 1: math.pi}, x_deps={1: frozenset({0})})
        assert p.effective_x_deps(1) == frozenset()

    def test_effective_x_deps_kept(self):
        p = make_pattern()
        assert p.effective_x_deps(1) == frozenset({0})


class TestOrdering:
    def test_measurement_order_uses_sequence(self):
        p = make_pattern()
        assert p.measurement_order() == (0, 1)

    def test_measurement_order_topological_fallback(self):
        p = make_pattern(sequence=())
        order = p.measurement_order()
        assert order.index(0) < order.index(1)

    def test_dependency_dag_edges(self):
        p = make_pattern()
        dag = p.dependency_dag()
        assert dag.has_edge(0, 1)

    def test_summary_mentions_counts(self):
        text = make_pattern().summary()
        assert "nodes=3" in text
        assert "adaptive=1" in text


class TestArrayIR:
    def test_sparse_node_ids_rejected(self):
        with pytest.raises(ValueError, match="0 .. N-1"):
            make_pattern(graph=nx.Graph([(1, 2), (2, 3)]))

    def test_nx_neighbour_order_is_kept(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(3))  # ascending, as translate adds them
        graph.add_edges_from([(0, 2), (0, 1), (1, 2)])
        p = make_pattern(graph=graph)
        for v in graph:
            assert list(p.graph.adj[v]) == list(graph.adj[v])
            assert list(p.graph.neighbors(v)) == list(graph.neighbors(v))
            assert p.graph.degree(v) == graph.degree(v)
        assert list(p.graph.edges()) == list(graph.edges())

    def test_self_loop_counts_once(self):
        graph = nx.Graph([(0, 1), (1, 2), (1, 1)])
        p = make_pattern(graph=graph, validate=False)
        assert p.num_edges == graph.number_of_edges() == 3
        assert list(p.graph.edges()) == list(graph.edges())

    def test_to_networkx_has_the_same_edges(self):
        p = make_pattern()
        graph = p.graph.to_networkx()
        assert sorted(graph.nodes()) == list(p.graph.nodes())
        assert {frozenset(e) for e in graph.edges()} == {
            frozenset(e) for e in p.graph.edges()
        }

    def test_maps_read_like_dicts(self):
        p = make_pattern()
        assert p.angles == {0: 0.0, 1: math.pi / 4}
        assert p.x_deps == {1: frozenset({0})}
        assert p.x_deps.get(0) is None and 2 not in p.angles
        assert p.x_deps.sources(1).tolist() == [0]
        assert p.x_deps.count(0) == 0
        with pytest.raises(KeyError):
            p.angles[2]
        with pytest.raises(TypeError):
            p.angles[0] = 1.0  # read-only: rebuild with replace()

    def test_replace_builds_a_new_pattern(self):
        p = make_pattern()
        q = p.replace(angles={0: 0.0, 1: 0.5})
        assert math.isclose(q.angles[1], 0.5)
        assert math.isclose(p.angles[1], math.pi / 4)
        assert q.graph is p.graph
        with pytest.raises(ValueError, match="angles"):
            p.replace(angles={0: 0.0})
        assert p.replace(angles={0: 0.0}, validate=False).angles == {0: 0.0}

    def test_output_mask(self):
        p = make_pattern()
        assert list(p.output_mask) == [0, 0, 1]


class TestTranslatedOrder:
    """The two order invariants of a translated pattern."""

    @staticmethod
    def _replayed(circuit):
        """The entanglement graph rebuilt by toggling ``nx.Graph`` edges
        along the ``{J, CZ}`` stream, the way networkx orders it."""
        from repro.circuit.library import jcz_ops

        graph = nx.Graph()
        graph.add_nodes_from(range(circuit.num_qubits))
        cur = list(range(circuit.num_qubits))
        for name, qubits, _ in jcz_ops(circuit):
            if name == "j":
                fresh = graph.number_of_nodes()
                graph.add_edge(cur[qubits[0]], fresh)
                cur[qubits[0]] = fresh
            else:
                u, w = cur[qubits[0]], cur[qubits[1]]
                if graph.has_edge(u, w):
                    graph.remove_edge(u, w)
                else:
                    graph.add_edge(u, w)
        return graph

    @pytest.mark.parametrize("name,qubits", [("QFT", 16), ("QAOA", 16), ("RCA", 16)])
    def test_neighbour_order_matches_networkx_toggles(self, name, qubits):
        from repro.circuit.benchmarks import get_benchmark
        from repro.mbqc.translate import circuit_to_pattern

        circuit = get_benchmark(name, qubits, seed=7)
        pattern = circuit_to_pattern(circuit)
        graph = self._replayed(circuit)
        assert list(pattern.graph.nodes()) == list(graph.nodes())
        unsorted = 0
        for v in graph:
            nbrs = list(pattern.graph.adj[v])
            assert nbrs == list(graph.adj[v])
            unsorted += nbrs != sorted(nbrs)
        assert unsorted > 0  # the order is not just ascending ids
        assert list(pattern.graph.edges()) == list(graph.edges())

    def test_maps_iterate_in_sequence_and_output_order(self):
        from repro.circuit.benchmarks import get_benchmark
        from repro.mbqc.translate import circuit_to_pattern

        pattern = circuit_to_pattern(get_benchmark("QFT", 8, seed=7))
        for dep_map in (pattern.angles, pattern.x_deps, pattern.z_deps):
            assert tuple(dep_map) == pattern.sequence
        for dep_map in (pattern.output_x, pattern.output_z):
            assert tuple(dep_map) == pattern.outputs
        assert list(pattern.wire_of) == list(pattern.graph.nodes())
