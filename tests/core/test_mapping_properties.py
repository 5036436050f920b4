"""Property-based tests: the mapper on random graphs.

Every random fusion graph must map to hardware-valid layouts: full node
coverage, photon budgets respected, paths lattice-contiguous, and every
fusion-graph edge accounted for exactly once (realized in-layer or
handed to shuffling).
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fusion_graph import build_fusion_graph
from repro.core.mapping import InLayerMapper
from repro.hardware.resource_state import FOUR_STAR, THREE_LINE


def random_graph(num_nodes: int, edge_prob: float, seed: int) -> nx.Graph:
    g = nx.gnp_random_graph(num_nodes, edge_prob, seed=seed)
    # cap degrees: graph-state nodes of absurd degree are unrealistic and
    # slow; the compiler handles them via chains anyway
    return g


@st.composite
def graphs(draw):
    n = draw(st.integers(3, 18))
    p = draw(st.floats(0.05, 0.35))
    seed = draw(st.integers(0, 10_000))
    return random_graph(n, p, seed)


class TestMapperProperties:
    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_random_graphs_map_validly(self, graph):
        degrees = {v: graph.degree(v) for v in graph.nodes()}
        fg = build_fusion_graph(graph, degrees, THREE_LINE)
        mapper = InLayerMapper((10, 10), THREE_LINE)
        result = mapper.map_fusion_graph(fg)

        # 1) coverage: every fusion-graph node has a placement
        assert set(mapper.placements) >= set(fg.adj)

        # 2) edge accounting: realized + deferred == total
        realized = result.edge_fusions + result.synthesis_fusions
        assert realized + len(result.deferred_edges) == (
            fg.to_networkx().number_of_edges()
        )

        # 3) per-layer structural invariants
        for layout in result.layers:
            assert not (set(layout.node_at) & layout.aux_cells)
            for path in layout.paths:
                for a, b in zip(path, path[1:]):
                    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

        # 4) photon budget per cell
        for layout in result.layers:
            load = {}
            for path in layout.paths:
                load[path[0]] = load.get(path[0], 0) + 1
                load[path[-1]] = load.get(path[-1], 0) + 1
                for cell in path[1:-1]:
                    load[cell] = load.get(cell, 0) + 2
            for coord in layout.node_at:
                assert load.get(coord, 0) <= THREE_LINE.size

    @given(graphs(), st.sampled_from([THREE_LINE, FOUR_STAR]))
    @settings(max_examples=15, deadline=None)
    def test_fusion_counts_nonnegative_and_bounded(self, graph, rst):
        degrees = {v: graph.degree(v) for v in graph.nodes()}
        fg = build_fusion_graph(graph, degrees, rst)
        mapper = InLayerMapper((12, 12), rst)
        result = mapper.map_fusion_graph(fg)
        assert result.routing_fusions >= 0
        # routing overhead equals total aux cells
        aux = sum(len(l.aux_cells) for l in result.layers)
        assert result.routing_fusions == aux

    @given(st.integers(4, 30), st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_paths_always_map(self, length, seed):
        """Paths (wire chains — the dominant pattern shape) never defer
        on a layer big enough to hold them."""
        graph = nx.path_graph(length)
        degrees = {v: graph.degree(v) for v in graph.nodes()}
        fg = build_fusion_graph(graph, degrees, THREE_LINE)
        mapper = InLayerMapper((12, 12), THREE_LINE)
        result = mapper.map_fusion_graph(fg)
        if length <= 40:  # fits comfortably in 144 cells
            assert len(result.layers) == 1
            assert result.deferred_edges == []

    @given(st.integers(3, 8))
    @settings(max_examples=6, deadline=None)
    def test_deterministic(self, n):
        graph = nx.wheel_graph(n)
        degrees = {v: graph.degree(v) for v in graph.nodes()}

        def run():
            fg = build_fusion_graph(graph, degrees, THREE_LINE)
            mapper = InLayerMapper((10, 10), THREE_LINE)
            result = mapper.map_fusion_graph(fg)
            return (
                result.edge_fusions,
                result.routing_fusions,
                len(result.layers),
                sorted(mapper.placements.items()),
            )

        assert run() == run()
