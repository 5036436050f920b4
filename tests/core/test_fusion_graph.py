"""Tests for fusion graph generation."""

import networkx as nx
import pytest

from repro.circuit import bernstein_vazirani, qft
from repro.core.fusion_graph import build_fusion_graph, verify_fusion_graph
from repro.core.partition import partition_pattern, required_degrees
from repro.hardware.resource_state import (
    FOUR_LINE,
    FOUR_RING,
    FOUR_STAR,
    THREE_LINE,
)
from repro.mbqc import circuit_to_pattern

ALL_RST = [THREE_LINE, FOUR_LINE, FOUR_STAR, FOUR_RING]


def fg_for(graph, rst=THREE_LINE, degrees=None, **kwargs):
    degrees = degrees or {v: graph.degree(v) for v in graph.nodes()}
    return build_fusion_graph(graph, degrees, rst, **kwargs)


class TestChainSynthesis:
    def test_low_degree_single_state(self):
        g = nx.path_graph(3)
        fg = fg_for(g)
        assert all(len(chain) == 1 for chain in fg.chains.values())
        assert fg.synthesis_fusions == 0

    def test_high_degree_node_chained(self):
        """Fig. 8: a degree-5 node becomes a 4-state chain (3-qubit RS)."""
        g = nx.star_graph(5)
        fg = fg_for(g)
        assert len(fg.chains[0]) == 4
        assert fg.synthesis_fusions == 3

    def test_star_resource_state_shorter_chain(self):
        g = nx.star_graph(5)
        fg = fg_for(g, rst=FOUR_STAR)
        assert len(fg.chains[0]) == FOUR_STAR.states_for_degree(5)

    def test_chain_edges_marked(self):
        g = nx.star_graph(4)
        fg = fg_for(g)
        kinds = [d["kind"] for _, _, d in fg.to_networkx().edges(data=True)]
        assert kinds.count("chain") == fg.synthesis_fusions
        assert kinds.count("edge") == fg.edge_fusions

    def test_one_edge_fusion_per_graph_edge(self):
        g = nx.cycle_graph(6)
        fg = fg_for(g)
        assert fg.edge_fusions == 6


class TestPortAccounting:
    @pytest.mark.parametrize("rst", ALL_RST, ids=lambda r: r.name)
    def test_capacity_never_exceeded(self, rst):
        g = nx.complete_graph(4)
        fg = fg_for(g, rst=rst)
        ok, msg = verify_fusion_graph(fg, g, rst)
        assert ok, msg

    def test_cross_neighbors_reserve_ports(self):
        g = nx.path_graph(2)
        degrees = {0: 3, 1: 1}  # node 0 has 2 extra cross edges
        fg = build_fusion_graph(
            g, degrees, THREE_LINE, cross_neighbors={0: [10, 11]}
        )
        assert (0, 10) in fg.port_of
        assert (0, 11) in fg.port_of
        # degree-3 demand on a 3-line RS -> chain of 2
        assert len(fg.chains[0]) == 2

    def test_port_for_every_in_partition_edge(self):
        g = nx.cycle_graph(5)
        fg = fg_for(g)
        for u, v in g.edges():
            assert (u, v) in fg.port_of
            assert (v, u) in fg.port_of


class TestContractionInvariant:
    @pytest.mark.parametrize("rst", ALL_RST, ids=lambda r: r.name)
    @pytest.mark.parametrize(
        "graph",
        [
            nx.path_graph(6),
            nx.cycle_graph(5),
            nx.star_graph(6),
            nx.wheel_graph(6),
            nx.complete_graph(4),
        ],
        ids=["path", "cycle", "star", "wheel", "k4"],
    )
    def test_contracting_chains_recovers_graph(self, rst, graph):
        fg = fg_for(graph, rst=rst)
        ok, msg = verify_fusion_graph(fg, graph, rst)
        assert ok, msg


class TestPlanarityPreservation:
    def test_planar_input_planar_fusion_graph(self):
        """Sec. 5: rotational edge order keeps the fusion graph planar."""
        g = nx.wheel_graph(8)  # planar with a high-degree hub
        fg = fg_for(g)
        assert fg.planar
        ok, _ = nx.check_planarity(fg.to_networkx(), counterexample=False)
        assert ok

    def test_grid_stays_planar(self):
        g = nx.grid_2d_graph(4, 4)
        fg = fg_for(g)
        ok, _ = nx.check_planarity(fg.to_networkx(), counterexample=False)
        assert ok

    def test_embedding_disabled(self):
        g = nx.wheel_graph(6)
        fg = fg_for(g, use_embedding=False)
        assert not fg.planar

    def test_nonplanar_input_flagged(self):
        g = nx.complete_graph(5)
        fg = fg_for(g)
        assert not fg.planar


class TestOnRealPatterns:
    @pytest.mark.parametrize("rst", ALL_RST, ids=lambda r: r.name)
    def test_bv_pattern(self, rst):
        pattern = circuit_to_pattern(bernstein_vazirani(8))
        parts = partition_pattern(pattern)
        for part in parts:
            fg = build_fusion_graph(
                part.subgraph, required_degrees(part, pattern.graph), rst
            )
            ok, msg = verify_fusion_graph(fg, part.subgraph, rst)
            assert ok, msg

    def test_qft_partitions(self):
        pattern = circuit_to_pattern(qft(5))
        parts = partition_pattern(pattern)
        home = {}
        for p in parts:
            for v in p.nodes:
                home[v] = p.index
        for part in parts:
            cross = {
                v: [
                    w
                    for w in pattern.graph.neighbors(v)
                    if home[w] != part.index
                ]
                for v in part.nodes
            }
            fg = build_fusion_graph(
                part.subgraph,
                required_degrees(part, pattern.graph),
                THREE_LINE,
                cross_neighbors=cross,
            )
            ok, msg = verify_fusion_graph(fg, part.subgraph, THREE_LINE)
            assert ok, msg
