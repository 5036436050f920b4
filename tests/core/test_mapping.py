"""Tests for the in-layer mapper and fusion routing."""

import random

import networkx as nx
import pytest

from repro.core.fusion_graph import build_fusion_graph
from repro.core.mapping import ROUTE_RADIUS, InLayerMapper, _edge_order
from repro.hardware.resource_state import THREE_LINE


def fg_of(graph):
    degrees = {v: graph.degree(v) for v in graph.nodes()}
    return build_fusion_graph(graph, degrees, THREE_LINE)


def map_graph(graph, shape=(12, 12), **kwargs):
    mapper = InLayerMapper(shape, THREE_LINE, **kwargs)
    result = mapper.map_fusion_graph(fg_of(graph))
    return mapper, result


class TestEdgeOrder:
    def test_covers_all_edges(self):
        g = nx.wheel_graph(7)
        fg = fg_of(g)
        graph = fg.to_networkx()
        order = _edge_order(fg.adj)
        assert len(order) == graph.number_of_edges()
        assert {frozenset(e) for e in order} == {
            frozenset(e) for e in graph.edges()
        }

    def test_cycle_edges_before_bridges(self):
        """Cycle-prioritized BFS: at the seed, cycle edges come first."""
        # triangle 0-1-2 with pendant 3 hanging off node 0
        g = nx.Graph([(0, 1), (1, 2), (2, 0), (0, 3)])
        order = _edge_order(g)
        bridge_pos = order.index((0, 3)) if (0, 3) in order else order.index((3, 0))
        cycle_positions = [
            i
            for i, e in enumerate(order)
            if frozenset(e) != frozenset((0, 3))
        ]
        assert bridge_pos > min(cycle_positions)

    def test_empty_graph(self):
        assert _edge_order(nx.Graph()) == []

    def test_connected_expansion(self):
        """Each edge (after the first per component) touches a seen node."""
        g = nx.random_tree(20, seed=3) if hasattr(nx, "random_tree") else nx.path_graph(20)
        order = _edge_order(g)
        seen = set()
        for i, (u, v) in enumerate(order):
            if i > 0:
                assert u in seen or v in seen
            seen.update((u, v))


class TestBasicMapping:
    def test_small_path_single_layer(self):
        mapper, result = map_graph(nx.path_graph(5))
        assert len(result.layers) == 1
        assert result.deferred_edges == []
        assert result.edge_fusions == 4
        assert result.routing_fusions == 0

    def test_cycle_maps_completely(self):
        mapper, result = map_graph(nx.cycle_graph(8))
        realized = result.edge_fusions + len(result.deferred_edges)
        assert realized == 8

    def test_placements_distinct_cells(self):
        mapper, result = map_graph(nx.cycle_graph(10))
        for layout in result.layers:
            coords = list(layout.node_at.keys())
            assert len(coords) == len(set(coords))

    def test_aux_cells_disjoint_from_nodes(self):
        mapper, result = map_graph(nx.wheel_graph(9))
        for layout in result.layers:
            assert not (set(layout.node_at) & layout.aux_cells)

    def test_all_nodes_placed(self):
        g = nx.wheel_graph(9)
        fg = fg_of(g)
        mapper = InLayerMapper((12, 12), THREE_LINE)
        mapper.map_fusion_graph(fg)
        assert set(mapper.placements) == set(fg.adj)

    def test_isolated_nodes_placed(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        mapper, result = map_graph(g)
        assert len(mapper.placements) == 4

    def test_paths_connect_endpoint_cells(self):
        """Every recorded path is grid-contiguous."""
        mapper, result = map_graph(nx.wheel_graph(9))
        for layout in result.layers:
            for path in layout.paths:
                for a, b in zip(path, path[1:]):
                    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_tiny_layer_rejected(self):
        with pytest.raises(ValueError):
            InLayerMapper((1, 5), THREE_LINE)


class TestCapacityRespected:
    @pytest.mark.parametrize(
        "graph",
        [nx.cycle_graph(12), nx.wheel_graph(10), nx.grid_2d_graph(3, 3)],
        ids=["cycle", "wheel", "grid"],
    )
    def test_cell_fusion_count_bounded(self, graph):
        """No resource state participates in more fusions than photons."""
        mapper, result = map_graph(graph)
        fusions_at = {}
        for layout in result.layers:
            for path in layout.paths:
                a, b = path[0], path[-1]
                fusions_at[a] = fusions_at.get(a, 0) + 1
                fusions_at[b] = fusions_at.get(b, 0) + 1
                for cell in path[1:-1]:
                    fusions_at[cell] = fusions_at.get(cell, 0) + 2
        for layout in result.layers:
            for coord in layout.node_at:
                assert fusions_at.get(coord, 0) <= THREE_LINE.size
            for coord in layout.aux_cells:
                # one pass-through = 2 photons; a 3-qubit aux supports 1 path
                assert fusions_at.get(coord, 0) <= 2 + (THREE_LINE.size - 2)


class TestOverflowToNewLayers:
    def test_graph_larger_than_layer_spills(self):
        g = nx.path_graph(30)
        mapper = InLayerMapper((4, 4), THREE_LINE)
        result = mapper.map_fusion_graph(fg_of(g))
        assert len(result.layers) > 1
        # every deferred edge endpoint is placed somewhere
        for a, b in result.deferred_edges:
            assert a in mapper.placements
            assert b in mapper.placements

    def test_incomplete_nodes_marked(self):
        g = nx.path_graph(30)
        mapper = InLayerMapper((4, 4), THREE_LINE)
        result = mapper.map_fusion_graph(fg_of(g))
        if result.deferred_edges:
            marked = set()
            for layout in result.layers:
                marked |= layout.incomplete
            deferred_nodes = {n for e in result.deferred_edges for n in e}
            assert deferred_nodes & marked

    def test_two_partitions_sequential(self):
        """A second fusion graph maps onto fresh layers."""
        mapper = InLayerMapper((8, 8), THREE_LINE)
        r1 = mapper.map_fusion_graph(fg_of(nx.path_graph(5)))
        r2 = mapper.map_fusion_graph(fg_of(nx.relabel_nodes(nx.path_graph(5), {i: i + 100 for i in range(5)})))
        assert r1.layers[0].index < r2.layers[0].index


class TestRouting:
    def test_triangle_on_grid_needs_routing(self):
        """Paper Fig. 6d: a triangle cannot embed on a grid directly."""
        mapper, result = map_graph(nx.complete_graph(3))
        assert result.routing_fusions >= 1
        aux_total = sum(len(l.aux_cells) for l in result.layers)
        assert aux_total >= 1

    def test_routing_fusions_match_aux_usage(self):
        mapper, result = map_graph(nx.complete_graph(3))
        aux_total = sum(len(l.aux_cells) for l in result.layers)
        assert result.routing_fusions == aux_total


class TestCappedRoutedSearch:
    @staticmethod
    def _random_layer(shape, seed):
        """A mapper whose open layer holds random node and aux cells."""
        rng = random.Random(seed)
        mapper = InLayerMapper(shape, THREE_LINE)
        mapper._open_layer()
        cells = [(r, c) for r in range(shape[0]) for c in range(shape[1])]
        rng.shuffle(cells)
        taken = cells[: int(len(cells) * rng.uniform(0.2, 0.55))]
        split = len(taken) // 2
        for i, cell in enumerate(taken[:split]):
            mapper._place_node((i, 0), cell, rng.randrange(4))
        mapper._mark_aux(taken[split:])
        return mapper, rng, taken[:split]

    @pytest.mark.parametrize("shape", [(8, 8), (12, 12)])
    @pytest.mark.parametrize("seed", range(6))
    def test_capped_search_is_depth_prefix(self, shape, seed):
        """A search capped at depth ``r`` returns exactly the leading paths
        of the full search with length <= r + 1, and nothing leaks through
        the shared scratch planes between interleaved calls."""
        mapper, rng, nodes = self._random_layer(shape, seed)
        anchors = rng.sample(nodes, 4)
        for start in anchors:
            for needed in (1, 2, 3):
                full = mapper._routed_targets(start, needed)
                for radius in range(2, ROUTE_RADIUS + 1):
                    capped = mapper._routed_targets(start, needed, radius)
                    assert capped == [p for p in full if len(p) <= radius + 1]
                    assert capped == full[: len(capped)]
                    assert mapper._routed_targets(start, needed) == full


class TestRoutedSearchBound:
    """``_attach_new`` searches for routed placements only as deep as a
    path can still tie the best direct cell.

    The anchor sits at (3, 3) walled in on three sides by aux cells, so
    its only direct candidate is (3, 4): area term 9, and it takes the
    anchor's last free neighbour, so its score is ``9 + alpha``.  A path
    to a target at depth ``d`` is bounded below by ``9 + 0.25 * (d - 1)``.
    """

    ANCHOR, NEW = (0, 0), (1, 0)

    def _attach(self, alpha, walls):
        mapper = InLayerMapper((8, 8), THREE_LINE, alpha=alpha)
        mapper._open_layer()
        mapper._degree = {self.ANCHOR: 2, self.NEW: 2}
        mapper._place_node(self.ANCHOR, (3, 3), 2)
        mapper._mark_aux(walls)
        radii = []
        full_search = mapper._routed_targets

        def spy(start, needed, radius=ROUTE_RADIUS):
            radii.append(radius)
            return full_search(start, needed, radius)

        mapper._routed_targets = spy
        outcome = mapper._attach_new(self.ANCHOR, self.NEW)
        return outcome, radii

    @pytest.mark.parametrize(
        "alpha,radius",
        [(0.2, None), (0.25, 2), (0.5, 3), (1.0, 5), (1.1, 5), (1.25, 6),
         (10.0, 6)],
    )
    def test_search_depth_is_the_deepest_that_can_tie(self, alpha, radius):
        outcome, radii = self._attach(alpha, [(2, 3), (4, 3), (3, 2)])
        assert radii == ([] if radius is None else [radius])
        assert outcome == "edge" or isinstance(outcome, int)

    def test_anchor_without_free_neighbour_skips_search(self):
        outcome, radii = self._attach(None, [(2, 3), (4, 3), (3, 2), (3, 4)])
        assert (outcome, radii) == ("spill", [])
