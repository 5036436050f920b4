"""Bit-identity of the packed compile path against its frozen references.

The packed mapper/shuffler (``repro.core.mapping`` /
``repro.core.shuffling``) rewrote every hot path — scoring, routing,
free-cell scans — on bitboard planes with the contract that they are
*observationally identical* to the scalar implementations they replaced.
``reference_mapping.py`` / ``reference_shuffling.py`` carry those scalar
predecessors verbatim; everything the compiler consumes (placements,
layer occupancy, auxiliary cells, paths, fusion tallies, deferred edges)
must match bit for bit — on the benchmark grid up to QFT-36, on
randomized fusion graphs, and on adversarial shapes (single-row shuffle
grids, layers filled to the brim, route-impossible pairs).  QFT-100 is
pinned by a digest of the reference's output.
"""

import hashlib
import random
from typing import List, Set, Tuple

import networkx as nx
import pytest

import reference_mapping
import reference_shuffling

import repro.core.mapping as packed_mapping
import repro.core.shuffling as packed_shuffling
from repro.circuit.benchmarks import get_benchmark
from repro.core.fusion_graph import build_fusion_graph
from repro.core.partition import (
    PartitionConfig,
    partition_pattern,
    required_degrees,
    schedule_layers,
)
from repro.eval.experiments import _hardware_for
from repro.hardware.resource_state import THREE_LINE
from repro.mbqc.translate import circuit_to_pattern
from tests.conftest import fusion_graph_of

Coord = Tuple[int, int]

GRID = [("BV", 16), ("QFT", 16), ("QAOA", 16)]
SEEDS = (3, 7)
PACKED = (packed_mapping, packed_shuffling)
REFERENCE = (reference_mapping, reference_shuffling)
#: non-default cost weights: they move the bound of the packed mapper's
#: pruned routed-placement search
ALPHAS = (1.1, 2.5, 10.0)

#: sha1 of ``_digest`` over the QFT-100 (seed 7) snapshot.  Made by
#: running ``_map_benchmark(REFERENCE, "QFT", 100, 7)`` on the scalar
#: reference modules and hashing it with ``_digest``; the packed path
#: produced the same hash.  Only the packed side runs here, because the
#: reference takes about twice as long.
QFT100_DIGEST = "3c2dbd64be89547bd72a3825968be9b2845c0287"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _mapper_snapshot(mapper):
    """Everything the compiler reads out of a mapper, order-normalized."""
    return {
        "placements": {
            node: (place.layer, place.coord)
            for node, place in mapper.placements.items()
        },
        "layers": [
            (
                sorted(layer.node_at.items()),
                sorted(layer.aux_cells),
                sorted(map(tuple, layer.paths)),
                sorted(layer.incomplete),
            )
            for layer in mapper.layers
        ],
    }


def _map_benchmark(modules, name: str, qubits: int, seed: int):
    """Partition a benchmark, map every partition with hint chaining and
    shuffle the leftover pairs (the compiler's sequential walk) on one
    ``(mapping, shuffling)`` module pair."""
    mapping_mod, shuffling_mod = modules
    circuit = get_benchmark(name, qubits, seed=seed)
    hardware = _hardware_for(qubits, THREE_LINE)
    pattern = circuit_to_pattern(circuit)
    rst = hardware.resource_state
    rows, cols = hardware.extended_shape
    config = PartitionConfig(target_states=max(4, int(0.7 * rows * cols)))
    layers = schedule_layers(pattern, config)
    estimator = lambda node: rst.states_for_degree(  # noqa: E731
        pattern.graph.degree(node)
    )
    partitions = partition_pattern(
        pattern, config, size_estimator=estimator, layers=layers
    )
    home = {}
    for part in partitions:
        for node in part.nodes:
            home[node] = part.index
    mapper = mapping_mod.InLayerMapper(
        shape=hardware.extended_shape, resource_state=rst
    )
    port_of = {}
    tally = {"synthesis": 0, "edge": 0, "routing": 0}
    deferred = []
    for part in partitions:
        cross_nbrs = {
            node: [
                nbr
                for nbr in pattern.graph.neighbors(node)
                if home[nbr] != part.index
            ]
            for node in part.nodes
        }
        fusion = build_fusion_graph(
            part.subgraph,
            required_degrees(part, pattern.graph),
            rst,
            cross_neighbors=cross_nbrs,
        )
        hints = {}
        for u, v in part.back_edges:
            src_port = port_of.get((u, v))
            dst_port = fusion.port_of.get((v, u))
            if src_port is None or dst_port is None:
                continue
            placed = mapper.placements.get(src_port)
            if placed is not None:
                hints[dst_port] = placed.coord
        port_of.update(fusion.port_of)
        result = mapper.map_fusion_graph(fusion, hints=hints)
        tally["synthesis"] += result.synthesis_fusions
        tally["edge"] += result.edge_fusions
        tally["routing"] += result.routing_fusions
        deferred.extend(result.deferred_edges)
    snap = _mapper_snapshot(mapper)
    snap["tally"] = tally
    snap["deferred"] = sorted(deferred)
    snap["shuffle"] = _shuffle_snapshot(
        shuffling_mod, mapper, partitions, port_of, deferred,
        hardware.extended_shape,
    )
    return snap


def _shuffle_snapshot(shuffling_mod, mapper, partitions, port_of, deferred,
                      shape):
    """Route deferred edges and cross-partition edges per layer boundary;
    the fusions and paths of every shuffle layer, boundary by boundary."""
    pairs_by_boundary = {}
    ends = list(deferred) + [
        (port_of[(u, v)], port_of[(v, u)])
        for part in partitions
        for u, v in part.back_edges
    ]
    for a, b in ends:
        pa, pb = mapper.placements[a], mapper.placements[b]
        pairs_by_boundary.setdefault(max(pa.layer, pb.layer), []).append(
            (pa.coord, pb.coord)
        )
    snapshot = []
    for boundary in sorted(pairs_by_boundary):
        result = shuffling_mod.connect_pairs(pairs_by_boundary[boundary], shape)
        snapshot.append((
            result.fusions,
            [sorted(map(tuple, layer.paths)) for layer in result.layers],
        ))
    return snapshot


def _digest(snap) -> str:
    """Order-free sha1 of a ``_map_benchmark`` snapshot."""
    canon = (
        sorted(snap["placements"].items()),
        snap["layers"],
        sorted(snap["tally"].items()),
        snap["deferred"],
        snap["shuffle"],
    )
    return hashlib.sha1(repr(canon).encode()).hexdigest()


def _map_raw_graph(mapping_mod, graph: nx.Graph, shape: Coord, alpha=None):
    mapper = mapping_mod.InLayerMapper(
        shape=shape, resource_state=THREE_LINE, alpha=alpha
    )
    result = mapper.map_fusion_graph(fusion_graph_of(graph))
    snap = _mapper_snapshot(mapper)
    snap["tally"] = (
        result.synthesis_fusions,
        result.edge_fusions,
        result.routing_fusions,
    )
    snap["deferred"] = sorted(result.deferred_edges)
    return snap


# ----------------------------------------------------------------------
# mapping: packed vs frozen scalar reference
# ----------------------------------------------------------------------
class TestPackedMapperIdentity:
    @pytest.mark.parametrize("name,qubits", GRID)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_benchmark_grid_identical(self, name, qubits, seed):
        packed = _map_benchmark(PACKED, name, qubits, seed)
        ref = _map_benchmark(REFERENCE, name, qubits, seed)
        assert packed == ref

    def test_qft36_identical(self):
        """A Table-2-sized circuit: partitions spill across many layers
        and shuffling routes hundreds of pairs."""
        packed = _map_benchmark(PACKED, "QFT", 36, 7)
        ref = _map_benchmark(REFERENCE, "QFT", 36, 7)
        assert packed == ref
        assert _digest(packed) == _digest(ref)

    def test_qft100_matches_reference_digest(self):
        """The largest Table-2 row, against a digest of the reference's
        snapshot (see ``QFT100_DIGEST``)."""
        assert _digest(_map_benchmark(PACKED, "QFT", 100, 7)) == (
            QFT100_DIGEST
        )

    @pytest.mark.parametrize("graph_seed", range(10))
    def test_random_fusion_graphs_identical(self, graph_seed, alpha=None):
        base = nx.gnm_random_graph(24, 30, seed=graph_seed)
        graph = nx.relabel_nodes(base, {v: (v, 0) for v in base.nodes()})
        packed = _map_raw_graph(packed_mapping, graph, (9, 9), alpha)
        ref = _map_raw_graph(reference_mapping, graph, (9, 9), alpha)
        assert packed == ref

    @pytest.mark.parametrize("graph_seed", range(5))
    def test_overfull_layer_spills_identically(self, graph_seed, alpha=None):
        """A graph far larger than one layer forces layer turnover,
        incomplete nodes, and deferred edges — the spill paths."""
        base = nx.gnm_random_graph(30, 44, seed=graph_seed)
        graph = nx.relabel_nodes(base, {v: (v, 0) for v in base.nodes()})
        packed = _map_raw_graph(packed_mapping, graph, (4, 4), alpha)
        ref = _map_raw_graph(reference_mapping, graph, (4, 4), alpha)
        assert packed == ref
        assert len(packed["layers"]) > 1  # the spill path actually ran

    def test_dense_graph_routes_identically(self, alpha=None):
        """High-degree hubs exercise routing and alpha blockage terms."""
        graph = nx.relabel_nodes(
            nx.complete_graph(7), {v: (v, 0) for v in range(7)}
        )
        packed = _map_raw_graph(packed_mapping, graph, (6, 6), alpha)
        ref = _map_raw_graph(reference_mapping, graph, (6, 6), alpha)
        assert packed == ref

    # the three raw-graph cases again at cost weights that move the bound
    # of the packed mapper's routed-placement search (the reference never
    # prunes)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("graph_seed", range(10))
    def test_random_fusion_graphs_identical_at_alpha(self, graph_seed, alpha):
        self.test_random_fusion_graphs_identical(graph_seed, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("graph_seed", range(5))
    def test_overfull_layer_spills_identically_at_alpha(
        self, graph_seed, alpha
    ):
        self.test_overfull_layer_spills_identically(graph_seed, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_dense_graph_routes_identically_at_alpha(self, alpha):
        self.test_dense_graph_routes_identically(alpha)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1)])
    def test_degenerate_grids_rejected_identically(self, shape):
        for mod in (packed_mapping, reference_mapping):
            with pytest.raises(ValueError):
                mod.InLayerMapper(shape=shape, resource_state=THREE_LINE)


# ----------------------------------------------------------------------
# free-cell scan determinism (the seed's spiral BFS broke distance ties
# by occupancy history; the packed scan is pure geometry)
# ----------------------------------------------------------------------
class TestFreeCellScanDeterminism:
    def _occupy(self, mapping_mod, cells: List[Coord], shape=(6, 6)):
        mapper = mapping_mod.InLayerMapper(
            shape=shape, resource_state=THREE_LINE
        )
        mapper._open_layer()
        for i, cell in enumerate(cells):
            mapper._place_node((i, 0), cell, 0)
        return mapper

    @pytest.mark.parametrize("seed", range(6))
    def test_insertion_order_invariant(self, seed):
        """The chosen cell depends on the occupancy *set*, never on the
        order the set was built in."""
        rng = random.Random(seed)
        cells = [(r, c) for r in range(6) for c in range(6)]
        occupied = rng.sample(cells, 14)
        shuffled = occupied[:]
        rng.shuffle(shuffled)
        forward = self._occupy(packed_mapping, occupied)
        reordered = self._occupy(packed_mapping, shuffled)
        for center in ((0, 0), (2, 3), (5, 5), (3, 0)):
            assert forward._find_free_cell_near(
                center
            ) == reordered._find_free_cell_near(center)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_geometric_minimum(self, seed):
        """Packed scan == brute-force (distance, row, col) minimum, and
        == the frozen reference's deterministic scan."""
        rng = random.Random(100 + seed)
        cells = [(r, c) for r in range(6) for c in range(6)]
        occupied = set(rng.sample(cells, 17))
        packed = self._occupy(packed_mapping, sorted(occupied))
        ref = self._occupy(reference_mapping, sorted(occupied))
        free = [c for c in cells if c not in occupied]
        for center in ((0, 0), (1, 4), (3, 3), (5, 2)):
            got = packed._find_free_cell_near(center)
            assert got == ref._find_free_cell_near(center)
            if center not in occupied and any(
                n not in occupied for n in packed._neighbors(center)
            ):
                assert got == center
                continue
            expected = min(
                (c for c in free if c != center),
                key=lambda c: (
                    abs(c[0] - center[0]) + abs(c[1] - center[1]),
                    c,
                ),
                default=None,
            )
            assert got == expected


# ----------------------------------------------------------------------
# shuffling: packed vs frozen scalar reference
# ----------------------------------------------------------------------
def _random_pairs(rng, shape, count) -> List[Tuple[Coord, Coord]]:
    rows, cols = shape
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    return [tuple(rng.sample(cells, 2)) for _ in range(count)]


class TestPackedShufflerIdentity:
    @pytest.mark.parametrize(
        "shape", [(1, 12), (2, 9), (6, 6), (7, 4), (12, 1)]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_try_route_random_occupancy(self, shape, seed):
        """Same path (or same refusal) on random occupancy planes,
        including the 1-row grids mapping never produces but shuffling
        accepts."""
        rng = random.Random(seed * 31 + shape[0] * 7 + shape[1])
        rows, cols = shape
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        blocked: Set[Coord] = set(
            rng.sample(cells, rng.randrange(0, max(1, len(cells) // 3)))
        )
        packed = packed_shuffling.ShuffleLayer(shape=shape, used=set(blocked))
        ref = reference_shuffling.ShuffleLayer(shape=shape, used=set(blocked))
        for a, b in _random_pairs(rng, shape, 20):
            if a == b:
                continue
            assert packed.try_route(a, b) == ref.try_route(a, b)
        assert packed.used == ref.used
        assert packed.paths == ref.paths

    def test_try_route_after_external_used_mutation(self):
        """``used`` is the public source of truth: cells added between
        calls must be honoured (the packed mirror resyncs)."""
        shape = (5, 5)
        packed = packed_shuffling.ShuffleLayer(shape=shape)
        ref = reference_shuffling.ShuffleLayer(shape=shape)
        assert packed.try_route((0, 0), (0, 4)) == ref.try_route(
            (0, 0), (0, 4)
        )
        for layer in (packed, ref):
            layer.used.update({(2, c) for c in range(5)})  # wall row 2
        assert packed.try_route((1, 0), (3, 0)) is None
        assert ref.try_route((1, 0), (3, 0)) is None
        assert packed.try_route((1, 0), (1, 4)) == ref.try_route(
            (1, 0), (1, 4)
        )

    def test_route_impossible_pairs(self):
        """Walled-off endpoints refuse identically (guards + BFS)."""
        shape = (3, 7)
        wall = {(r, 3) for r in range(3)}
        packed = packed_shuffling.ShuffleLayer(shape=shape, used=set(wall))
        ref = reference_shuffling.ShuffleLayer(shape=shape, used=set(wall))
        assert packed.try_route((1, 0), (1, 6)) is None
        assert ref.try_route((1, 0), (1, 6)) is None
        # endpoint inside the wall
        assert packed.try_route((0, 3), (1, 6)) is None
        assert ref.try_route((0, 3), (1, 6)) is None
        # 1-row grid with a single blocked cell between the endpoints
        packed1 = packed_shuffling.ShuffleLayer(shape=(1, 6), used={(0, 2)})
        ref1 = reference_shuffling.ShuffleLayer(shape=(1, 6), used={(0, 2)})
        assert packed1.try_route((0, 0), (0, 5)) is None
        assert ref1.try_route((0, 0), (0, 5)) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_connect_pairs_identical(self, seed):
        """Dynamic layer allocation: same layers, fusions, and paths."""
        rng = random.Random(900 + seed)
        shape = (4, 5)
        pairs = _random_pairs(rng, shape, 12) + [((1, 1), (1, 1))]
        packed = packed_shuffling.connect_pairs(list(pairs), shape)
        ref = reference_shuffling.connect_pairs(list(pairs), shape)
        assert packed.fusions == ref.fusions
        assert packed.connected == ref.connected
        assert packed.num_layers == ref.num_layers
        for lp, lr in zip(packed.layers, ref.layers):
            assert lp.used == lr.used
            assert lp.paths == lr.paths
