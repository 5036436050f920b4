"""Tests for planarity utilities."""

import itertools
import random

import networkx as nx
import pytest

from repro.circuit.benchmarks import get_benchmark
from repro.core.compiler import OneQCompiler, OneQConfig
from repro.core.planarity import (
    IncrementalPlanarityProber,
    is_planar,
    maximal_planar_subgraph,
    planar_edge_decomposition,
    planar_embedding_order,
)
from repro.eval.experiments import _hardware_for
from repro.hardware.resource_state import THREE_LINE

#: bound at import, so monkeypatching the module attribute cannot
#: change the reference verdict
_NX_CHECK = nx.check_planarity


def nx_planar(graph):
    return bool(_NX_CHECK(graph, counterexample=False)[0])


def count_nx_calls(monkeypatch):
    """Count calls to ``networkx.check_planarity`` (the tracing hook)."""
    calls = []

    def spy(graph, counterexample=False):
        calls.append(graph.number_of_nodes())
        return _NX_CHECK(graph, counterexample=counterexample)

    monkeypatch.setattr(nx, "check_planarity", spy)
    return calls


def subdivide(graph, rng, max_len):
    """Replace every edge by a path with 0..max_len inner vertices."""
    out = nx.Graph()
    out.add_nodes_from(graph)
    fresh = itertools.count(max(graph) + 1)
    for u, v in graph.edges():
        path = [u] + [next(fresh) for _ in range(rng.randint(0, max_len))]
        nx.add_path(out, path + [v])
    return out


def decorate(graph, rng, trees=4, chains=3):
    """Attach pendant trees and long pendant chains (verdict-neutral)."""
    fresh = itertools.count(max(graph) + 1)
    anchors = sorted(graph)
    for _ in range(trees):
        tree = [rng.choice(anchors)]
        for _ in range(rng.randint(1, 8)):
            node = next(fresh)
            graph.add_edge(rng.choice(tree), node)
            tree.append(node)
    for _ in range(chains):
        path = [rng.choice(anchors)] + [
            next(fresh) for _ in range(rng.randint(3, 12))
        ]
        nx.add_path(graph, path)
    return graph


class TestIsPlanar:
    def test_k4_planar(self):
        assert is_planar(nx.complete_graph(4))

    def test_k5_not_planar(self):
        assert not is_planar(nx.complete_graph(5))

    def test_k33_not_planar(self):
        assert not is_planar(nx.complete_bipartite_graph(3, 3))

    def test_grid_planar(self):
        assert is_planar(nx.grid_2d_graph(5, 5))


class TestEmbeddingOrder:
    def test_returns_none_for_nonplanar(self):
        assert planar_embedding_order(nx.complete_graph(5)) is None

    def test_covers_all_nodes(self):
        g = nx.cycle_graph(6)
        order = planar_embedding_order(g)
        assert set(order) == set(g.nodes())

    def test_each_node_lists_its_neighbors(self):
        g = nx.wheel_graph(6)
        order = planar_embedding_order(g)
        for node, nbrs in order.items():
            assert set(nbrs) == set(g.neighbors(node))

    def test_isolated_node_empty_order(self):
        g = nx.Graph()
        g.add_node(7)
        assert planar_embedding_order(g) == {7: []}


class TestMaximalPlanarSubgraph:
    def test_planar_input_unchanged(self):
        g = nx.cycle_graph(5)
        sub, leftover = maximal_planar_subgraph(g)
        assert leftover == []
        assert sub.number_of_edges() == 5

    def test_k5_drops_at_least_one_edge(self):
        sub, leftover = maximal_planar_subgraph(nx.complete_graph(5))
        assert leftover
        assert is_planar(sub)

    def test_leftover_edges_break_planarity(self):
        """Maximality: re-adding any leftover edge breaks planarity."""
        sub, leftover = maximal_planar_subgraph(nx.complete_graph(6))
        for u, v in leftover:
            test = sub.copy()
            test.add_edge(u, v)
            assert not is_planar(test)

    def test_nodes_preserved(self):
        g = nx.complete_graph(5)
        sub, _ = maximal_planar_subgraph(g)
        assert set(sub.nodes()) == set(g.nodes())


class TestPlanarEdgeDecomposition:
    def test_planar_graph_single_piece(self):
        pieces = planar_edge_decomposition(nx.cycle_graph(4))
        assert len(pieces) == 1

    def test_k6_multiple_pieces(self):
        g = nx.complete_graph(6)
        pieces = planar_edge_decomposition(g)
        assert len(pieces) >= 2
        assert all(is_planar(p) for p in pieces)

    def test_edges_partitioned_exactly(self):
        g = nx.complete_graph(6)
        pieces = planar_edge_decomposition(g)
        seen = set()
        for piece in pieces:
            for e in piece.edges():
                key = frozenset(e)
                assert key not in seen
                seen.add(key)
        assert seen == {frozenset(e) for e in g.edges()}

    def test_edgeless_graph(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        pieces = planar_edge_decomposition(g)
        assert len(pieces) == 1
        assert pieces[0].number_of_edges() == 0


class TestKernelEquivalence:
    """The kernel verdict equals ``networkx.check_planarity``."""

    def test_gnm_corpus(self):
        rng = random.Random(2023)
        planar_seen = nonplanar_seen = 0
        for _ in range(2000):
            n = rng.randint(1, 60)
            m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
            g = nx.gnm_random_graph(n, m, seed=rng.randrange(2**32))
            expected = nx_planar(g)
            assert is_planar(g) == expected, (n, sorted(g.edges()))
            planar_seen += expected
            nonplanar_seen += not expected
        # the corpus exercises both verdicts
        assert planar_seen > 200 and nonplanar_seen > 200

    @pytest.mark.parametrize("seed", range(10))
    def test_subdivided_kuratowski_graphs_stay_nonplanar(self, seed, monkeypatch):
        rng = random.Random(seed)
        k5 = decorate(subdivide(nx.complete_graph(5), rng, 6), rng)
        k33 = decorate(
            subdivide(nx.complete_bipartite_graph(3, 3), rng, 6), rng
        )
        calls = count_nx_calls(monkeypatch)
        assert not is_planar(k5)
        assert calls == []  # reduces to K5: the Euler bound decides
        assert not is_planar(k33)
        assert calls == [6]  # reduces to K3,3 exactly
        assert not nx_planar(k5) and not nx_planar(k33)

    @pytest.mark.parametrize("seed", range(10))
    def test_subdivided_planar_graphs_stay_planar(self, seed):
        rng = random.Random(seed)
        k5_minus = nx.complete_graph(5)
        k5_minus.remove_edge(0, 1)
        k33_minus = nx.complete_bipartite_graph(3, 3)
        k33_minus.remove_edge(0, 3)
        for base in (k5_minus, k33_minus, nx.octahedral_graph()):
            g = decorate(subdivide(base, rng, 6), rng)
            assert nx_planar(g)
            assert is_planar(g)

    @pytest.mark.parametrize("n", [3, 4, 7, 50])
    def test_cycles(self, n, monkeypatch):
        calls = count_nx_calls(monkeypatch)
        assert is_planar(nx.cycle_graph(n))
        assert calls == []

    @pytest.mark.parametrize("paths", [2, 3, 5])
    def test_theta_graphs_collapse_through_parallel_edges(self, paths):
        """Series reduction of a theta graph makes parallel a-b edges."""
        g = nx.Graph()
        fresh = itertools.count(2)
        for length in range(paths):
            nx.add_path(g, [0] + [next(fresh) for _ in range(length)] + [1])
        assert nx_planar(g)
        assert is_planar(g)

    def test_doubled_cycle_collapses(self, monkeypatch):
        """Each C8 edge doubled by a 2-path: the cycle vertices start at
        degree 4 and reach degree 2 only as parallel edges drop."""
        g = nx.cycle_graph(8)
        for u, v in list(g.edges()):
            nx.add_path(g, [u, ("mid", u, v), v])
        calls = count_nx_calls(monkeypatch)
        assert is_planar(g)
        assert calls == []

    def test_doubled_k33_stays_nonplanar(self):
        """Every K3,3 edge doubled into a 2-path theta: dropping the
        parallel edges must leave K3,3, not a planar remainder."""
        g = nx.Graph()
        fresh = itertools.count(6)
        for u, v in nx.complete_bipartite_graph(3, 3).edges():
            g.add_edge(u, v)
            nx.add_path(g, [u, next(fresh), next(fresh), v])
        assert not nx_planar(g)
        assert not is_planar(g)

    def test_triangle_chain_and_subdivided_k4(self):
        g = nx.Graph()
        for i in range(10):  # triangles glued at vertices: all collapse
            g.add_edges_from([(2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2),
                              (2 * i, 2 * i + 2)])
        assert is_planar(g)
        k4 = subdivide(nx.complete_graph(4), random.Random(1), 5)
        assert is_planar(k4) and nx_planar(k4)

    @pytest.mark.parametrize("n", range(6))
    def test_every_graph_on_at_most_five_vertices(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(p for i, p in enumerate(pairs) if mask >> i & 1)
            assert is_planar(g) == nx_planar(g), sorted(g.edges())

    def test_disconnected_graphs(self):
        planar = nx.disjoint_union_all(
            [nx.complete_graph(4), nx.grid_2d_graph(4, 4), nx.path_graph(3)]
        )
        assert is_planar(planar)
        for bad in (nx.complete_graph(5), nx.complete_bipartite_graph(3, 3)):
            g = nx.disjoint_union(planar, bad)
            assert not is_planar(g) and not nx_planar(g)
        isolated = nx.Graph()
        isolated.add_nodes_from(range(9))
        assert is_planar(isolated)

    def test_non_int_labels_and_self_loops(self):
        g = nx.relabel_nodes(nx.complete_graph(5), {i: f"v{i}" for i in range(5)})
        assert not is_planar(g)
        g = nx.grid_2d_graph(3, 3)
        g.add_edge((1, 1), (1, 1))
        assert is_planar(g)

    @pytest.mark.parametrize(
        "name,num_qubits",
        [(name, q) for name in ("QFT", "QAOA", "RCA", "BV") for q in (16, 25)],
    )
    def test_every_table2_probe(self, name, num_qubits, monkeypatch):
        """Each probe of a Table-2 compile, against networkx on the
        unreduced induced subgraph."""
        probes = []
        real_probe = IncrementalPlanarityProber.probe

        def recording_probe(self, window_layers):
            verdict = real_probe(self, window_layers)
            nodes = set(self._adj).union(*window_layers)
            probes.append((self._source, nodes, verdict))
            return verdict

        monkeypatch.setattr(IncrementalPlanarityProber, "probe", recording_probe)
        hardware = _hardware_for(num_qubits, THREE_LINE)
        OneQCompiler(OneQConfig(hardware=hardware)).compile(
            get_benchmark(name, num_qubits, seed=7)
        )
        assert probes
        graph = probes[0][0].to_networkx()
        for source, nodes, verdict in probes:
            assert source is probes[0][0]
            assert verdict == nx_planar(graph.subgraph(nodes))


def k33_with_tail():
    """K3,3 (nodes 0-5) plus a pendant chain 5-6-7-8."""
    g = nx.complete_bipartite_graph(3, 3)
    nx.add_path(g, [5, 6, 7, 8])
    return g


class TestIncrementalPlanarityProber:
    def test_repeated_probe_keeps_accepted_state(self):
        source = k33_with_tail()
        prober = IncrementalPlanarityProber(source)
        prober.extend([0, 1, 2, 3, 4, 6, 7])
        before = {v: set(nbrs) for v, nbrs in prober._adj.items()}
        assert prober.probe([[]])
        assert not prober.probe([[5]])
        assert not prober.probe([[5]])
        assert prober.probe([[8]])
        assert prober._adj == before

    def test_accepted_and_repeated_window_nodes(self):
        source = k33_with_tail()
        prober = IncrementalPlanarityProber(source)
        prober.extend([0, 1, 2])
        prober.extend([0, 3])  # 0 again
        assert not prober.probe([[0, 1, 4], [4, 5], [5]])
        assert prober.probe([[1, 4], [4, 4, 6]])
        assert set(prober._adj) == {0, 1, 2, 3}

    def test_reset_forgets_accepted_nodes(self):
        source = nx.complete_graph(5)
        prober = IncrementalPlanarityProber(source)
        prober.extend(list(range(5)))
        assert not prober.probe([])
        prober.reset()
        assert prober.probe([])
        assert prober.probe([[0, 1, 2, 3]])
        assert not prober.probe([[0, 1, 2, 3], [4]])

    @pytest.mark.parametrize("seed", range(40))
    def test_extend_then_probe_equals_fresh_probe(self, seed):
        rng = random.Random(seed)
        source = nx.gnm_random_graph(30, rng.randint(30, 80), seed=seed)
        nodes = list(source)
        rng.shuffle(nodes)
        cut_a, cut_b = sorted(rng.sample(range(31), 2))
        accepted, window = nodes[:cut_a], nodes[cut_a:cut_b]
        grown = IncrementalPlanarityProber(source)
        grown.extend(accepted)
        fresh = IncrementalPlanarityProber(source)
        verdict = fresh.probe([accepted, window])
        assert grown.probe([window]) == verdict
        grown.extend(window)
        assert grown.probe([]) == verdict
        assert verdict == nx_planar(source.subgraph(accepted + window))

    def test_probe_reaches_networkx_through_module_attribute(
        self, monkeypatch
    ):
        """Tracing wraps ``networkx.check_planarity``: a probe whose
        kernel is too big to decide locally must call through it."""
        calls = count_nx_calls(monkeypatch)
        prober = IncrementalPlanarityProber(k33_with_tail())
        prober.extend([0, 1, 2])
        assert not prober.probe([[3, 4, 5, 6, 7, 8]])
        assert calls == [6]
        assert prober.probe([[3, 4, 6, 7, 8]])  # K2,3 + chain: no call
        assert calls == [6]
