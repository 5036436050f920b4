"""Equivalence tests for the hot-path optimizations.

The mapper, partitioner, and scheduler were rewritten for speed with the
contract that they are *observationally identical* to the seed
implementations.  These tests pin that contract: reference classes and
functions below carry the seed algorithms verbatim, and every output the
compiler consumes (placements, layouts, fusion tallies, layer counts,
partitions, ranks) must match bit-for-bit on the Table-2 grid and on
randomized graphs.
"""

from collections import deque
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx
import pytest

import repro.core.compiler as compiler_mod
from repro.circuit.benchmarks import get_benchmark
from repro.core.compiler import OneQCompiler, OneQConfig
from repro.core.mapping import Coord, FGNode, InLayerMapper
from repro.core.partition import (
    GraphPartition,
    PartitionConfig,
    partition_pattern,
)
from repro.eval.experiments import _hardware_for
from repro.hardware.resource_state import THREE_LINE
from repro.mbqc.flow import rank_layers, scheduling_ranks
from repro.mbqc.translate import circuit_to_pattern
from tests.conftest import fusion_graph_of

GRID_16 = [("QFT", 16), ("QAOA", 16), ("RCA", 16), ("BV", 16)]
#: non-default cost weights: they move the bound of the pruned
#: routed-placement search
ALPHAS = (1.1, 2.5, 10.0)


class ReferenceMapper(InLayerMapper):
    """The seed mapper: pre-optimization hot paths, verbatim."""

    def _blockage_score(
        self, node: FGNode, coord: Coord, occupied_extra: Set[Coord]
    ) -> float:
        """Blockage contribution of one placed node given extra occupancy."""
        remaining = self._remaining.get(node, 0)
        if remaining <= 0:
            return 0.0
        free = sum(
            1
            for p in self._neighbors(coord)
            if self._free(p) and p not in occupied_extra
        )
        if free == 0:
            return self.alpha
        if remaining > free:
            return 1.0
        return 0.0

    def _bfs_path(
        self,
        start: Coord,
        goal: Coord,
        max_len: Optional[int] = None,
        avoid: Optional[Set[Coord]] = None,
    ) -> Optional[List[Coord]]:
        avoid = avoid or set()
        queue = deque([start])
        parent: Dict[Coord, Optional[Coord]] = {start: None}
        while queue:
            cur = queue.popleft()
            if max_len is not None:
                d, p = 0, cur
                while parent[p] is not None:
                    p = parent[p]
                    d += 1
                if d >= max_len:
                    continue
            for nxt in self._neighbors(cur):
                if nxt in parent or nxt in avoid:
                    continue
                if nxt == goal:
                    parent[nxt] = cur
                    path = [nxt]
                    back: Optional[Coord] = cur
                    while back is not None:
                        path.append(back)
                        back = parent[back]
                    path.reverse()
                    return path
                if self._free(nxt):
                    parent[nxt] = cur
                    queue.append(nxt)
        return None

    def _score_candidate(
        self,
        new_cells: List[Coord],
        new_node: Optional[FGNode],
        node_cell: Optional[Coord],
        remaining_after: Dict[FGNode, int],
    ) -> float:
        occupied_extra = set(new_cells)
        score = float(self._rect_area_with(new_cells))
        affected: Set[Tuple[FGNode, Coord]] = set()
        for cell in new_cells:
            for p in self._neighbors(cell):
                occ = self._occupied.get(p)
                if isinstance(occ, tuple) and occ in self._remaining:
                    place = self.placements.get(occ)
                    if place is not None and place.layer == len(self.layers) - 1:
                        affected.add((occ, place.coord))
        saved = dict(self._remaining)
        try:
            self._remaining.update(remaining_after)
            for node, coord in affected:
                score += self._blockage_score(node, coord, occupied_extra)
            if new_node is not None and node_cell is not None:
                score += self._blockage_score(new_node, node_cell, occupied_extra)
        finally:
            self._remaining = saved
        return score

    def _attach_new(self, placed: FGNode, new: FGNode):
        if self._node_capacity_left(placed) <= 0:
            if self._place_new_node(
                new, near=self.placements[placed].coord,
                budget_for_edge=False,
            ):
                return "defer"
            return "spill"
        cp = self.placements[placed].coord
        degree = self._degree[new]
        after = {
            placed: self._remaining.get(placed, 0) - 1,
            new: degree - 1,
        }
        options: List[Tuple[float, Coord, Optional[List[Coord]]]] = []
        for cell in self._neighbors(cp):
            if self._free(cell):
                score = self._score_candidate([cell], new, cell, after)
                options.append((score, cell, None))
        need_routing = not options or min(s for s, _, _ in options) >= self.alpha
        if need_routing:
            needed = max(1, min(degree - 1, 3))
            for path in self._routed_targets(cp, needed):
                target = path[-1]
                cells = path[1:]
                score = self._score_candidate(cells, new, target, after)
                score += 0.25 * (len(path) - 2)
                options.append((score, target, path))
        if not options:
            return "spill"
        _, best, path = min(options, key=lambda o: (o[0], o[1]))
        self._place_node(new, best, degree)
        self._consume(placed)
        self._consume(new)
        assert self._current is not None
        if path is None:
            self._current.paths.append([cp, best])
            return "edge"
        self._mark_aux(path[1:-1])
        self._current.paths.append(path)
        return len(path) - 2


def reference_partition_pattern(pattern, config, size_estimator=None):
    """The seed partitioner: one planarity check per accumulated layer."""
    from repro.mbqc.flow import dependency_layers

    if config.scheduling == "flow":
        layers = rank_layers(pattern)
    else:
        layers = dependency_layers(pattern)
    if size_estimator is None:
        size_estimator = lambda node: 1  # noqa: E731
    graph = pattern.graph
    nx_graph = graph.to_networkx()
    partitions: List[GraphPartition] = []
    home: Dict[int, int] = {}
    current_nodes: List[int] = []
    current_layers: List[int] = []

    def close_partition() -> None:
        nonlocal current_nodes, current_layers
        if not current_nodes:
            return
        index = len(partitions)
        for node in current_nodes:
            home[node] = index
        subgraph = nx.Graph()
        subgraph.add_nodes_from(current_nodes)
        back_edges: List[Tuple[int, int]] = []
        for node in current_nodes:
            for nbr in graph.neighbors(node):
                if nbr in home and home[nbr] < index:
                    back_edges.append((nbr, node))
                elif home.get(nbr) == index and node < nbr:
                    subgraph.add_edge(node, nbr)
        partitions.append(
            GraphPartition(
                index=index,
                nodes=list(current_nodes),
                graph=subgraph,
                back_edges=sorted(set(back_edges)),
                layer_indices=list(current_layers),
            )
        )
        current_nodes = []
        current_layers = []

    current_states = 0
    for layer_idx, layer in enumerate(layers):
        layer_states = sum(size_estimator(node) for node in layer)
        if current_nodes and len(current_layers) >= config.max_layers:
            close_partition()
            current_states = 0
        if (
            config.target_states is not None
            and current_nodes
            and current_states + layer_states > config.target_states
        ):
            close_partition()
            current_states = 0
        if current_nodes:
            candidate = nx_graph.subgraph(current_nodes + layer)
            # networkx directly: the seed's check, independent of the
            # planarity kernel under test
            if not nx.check_planarity(candidate, counterexample=False)[0]:
                close_partition()
                current_states = 0
        current_nodes.extend(layer)
        current_layers.append(layer_idx)
        current_states += layer_states
    close_partition()
    return partitions


def reference_scheduling_ranks(pattern) -> Dict[int, int]:
    """The seed fixed-point longest-path ranking."""
    rank: Dict[int, int] = {}

    def deps_of(node: int):
        merged = set(pattern.x_deps.get(node, frozenset()))
        merged |= pattern.z_deps.get(node, frozenset())
        merged |= pattern.output_x.get(node, frozenset())
        merged |= pattern.output_z.get(node, frozenset())
        merged.discard(node)
        return frozenset(merged)

    remaining = set(pattern.graph.nodes())
    while remaining:
        progressed = []
        for node in remaining:
            sources = deps_of(node)
            if all(src in rank for src in sources):
                rank[node] = 1 + max(
                    (rank[src] for src in sources), default=-1
                )
                progressed.append(node)
        if not progressed:
            raise RuntimeError("cycle in raw dependency DAG")
        remaining -= set(progressed)
    return rank


def _layout_signature(program):
    return [
        (
            layout.index,
            dict(layout.node_at),
            set(layout.aux_cells),
            [tuple(p) for p in layout.paths],
            set(layout.incomplete),
        )
        for layout in program.layouts
    ]


def _compile(name: str, num_qubits: int, mapper_cls, monkeypatch):
    monkeypatch.setattr(compiler_mod, "InLayerMapper", mapper_cls)
    circuit = get_benchmark(name, num_qubits, seed=7)
    hardware = _hardware_for(num_qubits, THREE_LINE)
    compiler = OneQCompiler(OneQConfig(hardware=hardware))
    return compiler.compile(circuit, name=f"{name}-{num_qubits}")


class TestMapperEquivalence:
    @pytest.mark.parametrize("name,num_qubits", GRID_16)
    def test_table2_grid_identical(self, name, num_qubits, monkeypatch):
        """Optimized mapper == seed mapper on the Table-2 grid."""
        ref = _compile(name, num_qubits, ReferenceMapper, monkeypatch)
        opt = _compile(name, num_qubits, InLayerMapper, monkeypatch)
        assert opt.physical_depth == ref.physical_depth
        assert opt.mapping_layers == ref.mapping_layers
        assert opt.shuffle_layers == ref.shuffle_layers
        for kind in ("synthesis", "edge", "routing", "shuffling",
                     "z_measurements"):
            assert getattr(opt.fusions, kind) == getattr(ref.fusions, kind), kind
        assert opt.resource_states_used == ref.resource_states_used
        assert opt.deferred_pairs == ref.deferred_pairs
        assert _layout_signature(opt) == _layout_signature(ref)

    @pytest.mark.parametrize("graph_seed", range(8))
    def test_random_fusion_graphs_identical(self, graph_seed, alpha=None):
        """Property: identical placements on random fusion graphs."""
        base = nx.gnm_random_graph(20, 24, seed=graph_seed)
        graph = nx.relabel_nodes(base, {v: (v, 0) for v in base.nodes()})
        results = []
        for cls in (ReferenceMapper, InLayerMapper):
            mapper = cls(
                shape=(10, 10), resource_state=THREE_LINE, alpha=alpha
            )
            out = mapper.map_fusion_graph(fusion_graph_of(graph))
            results.append((mapper, out))
        (ref_mapper, ref), (opt_mapper, opt) = results
        assert opt_mapper.placements == ref_mapper.placements
        assert opt.edge_fusions == ref.edge_fusions
        assert opt.synthesis_fusions == ref.synthesis_fusions
        assert opt.routing_fusions == ref.routing_fusions
        assert sorted(opt.deferred_edges) == sorted(ref.deferred_edges)
        assert len(opt.layers) == len(ref.layers)
        for lo, lr in zip(opt.layers, ref.layers):
            assert lo.node_at == lr.node_at
            assert lo.aux_cells == lr.aux_cells
            assert lo.paths == lr.paths

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("graph_seed", range(8))
    def test_random_fusion_graphs_identical_at_alpha(self, graph_seed, alpha):
        """The same property at cost weights that move the bound of the
        pruned routed-placement search (this reference never prunes)."""
        self.test_random_fusion_graphs_identical(graph_seed, alpha)


class TestPartitionEquivalence:
    @pytest.mark.parametrize("name,num_qubits", GRID_16)
    def test_benchmark_partitions_identical(self, name, num_qubits):
        """Windowed planarity probing == per-layer checks (seed)."""
        circuit = get_benchmark(name, num_qubits, seed=7)
        pattern = circuit_to_pattern(circuit)
        hardware = _hardware_for(num_qubits, THREE_LINE)
        rows, cols = hardware.extended_shape
        config = replace(
            PartitionConfig(), target_states=max(4, int(0.7 * rows * cols))
        )
        rst = hardware.resource_state
        estimator = lambda node: rst.states_for_degree(  # noqa: E731
            pattern.graph.degree(node)
        )
        ref = reference_partition_pattern(
            pattern, config, size_estimator=estimator
        )
        opt = partition_pattern(pattern, config, size_estimator=estimator)
        assert len(opt) == len(ref)
        for po, pr in zip(opt, ref):
            assert po.nodes == pr.nodes
            assert po.layer_indices == pr.layer_indices
            assert po.back_edges == pr.back_edges
            assert set(po.subgraph.edges()) == set(pr.subgraph.edges())

    @pytest.mark.parametrize("max_layers", [1, 2, 64])
    def test_partition_knobs_identical(self, max_layers):
        """Capacity/max-layer interleavings survive the optimization."""
        circuit = get_benchmark("QAOA", 12, seed=3)
        pattern = circuit_to_pattern(circuit)
        config = PartitionConfig(max_layers=max_layers, target_states=40)
        ref = reference_partition_pattern(pattern, config)
        opt = partition_pattern(pattern, config)
        assert [p.nodes for p in opt] == [p.nodes for p in ref]
        assert [p.back_edges for p in opt] == [p.back_edges for p in ref]


class TestSchedulingEquivalence:
    @pytest.mark.parametrize("name,num_qubits", GRID_16)
    def test_ranks_identical(self, name, num_qubits):
        circuit = get_benchmark(name, num_qubits, seed=7)
        pattern = circuit_to_pattern(circuit)
        assert scheduling_ranks(pattern) == reference_scheduling_ranks(pattern)
