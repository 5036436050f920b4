"""Graph partition and scheduling (paper Sec. 4).

The graph state is cut into partitions of consecutive dependency layers.
Grouping is coarse-grained: a partition may hold several dependency
layers (delay lines tolerate small executability mismatches, and keeping
nearby layers together preserves geometry for the mapper), but it stops
growing when either the layer budget is hit or the accumulated
subgraph stops being planar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.core.planarity import IncrementalPlanarityProber
from repro.mbqc.flow import dependency_layers, rank_layers
from repro.mbqc.pattern import GraphLike, MeasurementPattern


@dataclass(frozen=True)
class PartitionConfig:
    """Knobs for the partition/scheduling stage.

    Attributes:
        max_layers: dependency layers allowed per partition.
        scheduling: ``"flow"`` uses geometry-preserving ranks from the
            raw dependency DAG (keeps wire chains together, the paper's
            coarse-grained executability order); ``"lemma1"`` uses the
            pure Lemma-1 layers (maximal Clifford parallelism, but it
            scatters geometry and is kept for ablation).
        target_states: soft capacity per partition in resource states;
            a partition stops growing when its estimated synthesis cost
            exceeds this (the compiler passes one extended layer's area).
    """

    max_layers: int = 64
    scheduling: str = "flow"
    target_states: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_layers < 1:
            raise ValueError("max_layers must be at least 1")
        if self.scheduling not in ("flow", "lemma1"):
            raise ValueError("scheduling must be 'flow' or 'lemma1'")
        if self.target_states is not None and self.target_states < 1:
            raise ValueError("target_states must be positive")


@dataclass
class GraphPartition:
    """One scheduled unit of the graph state.

    Attributes:
        index: execution order of this partition.
        nodes: graph-state nodes homed here.
        graph: the graph the partition was cut from (the whole graph
            state, shared and never copied).
        back_edges: edges to nodes homed in earlier partitions; these are
            realized by inter-layer shuffling (Sec. 6).
        layer_indices: which dependency layers this partition covers.

    The partition does not store its induced subgraph: :attr:`subgraph`
    builds it from ``graph`` on every access.  The compiler builds it
    once per partition, right before fusion-graph synthesis (so the
    build is charged to its ``map`` stage, not to ``partition``), and
    lets it go once the partition is mapped.
    """

    index: int
    nodes: List[int]
    graph: GraphLike = field(repr=False, compare=False)
    back_edges: List[Tuple[int, int]] = field(default_factory=list)
    layer_indices: List[int] = field(default_factory=list)

    @property
    def subgraph(self) -> nx.Graph:
        """The edges whose *both* endpoints are homed here, as a new
        graph on every access (:func:`induced_subgraph`)."""
        return induced_subgraph(self.graph, self.nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return int(self.subgraph.number_of_edges())


def induced_subgraph(graph: GraphLike, nodes: List[int]) -> nx.Graph:
    """The subgraph of *graph* induced on *nodes*, in a fixed order.

    Nodes enter in *nodes* order; then, walking *nodes* in order and
    each node's neighbours in *graph* order, every edge enters once,
    from its smaller endpoint.  The planar embedding that fusion-graph
    synthesis follows depends on this insertion order (its rotation
    system), and with it every placement, so the order is part of the
    contract.  On BV-4, cut in two:

    >>> from repro.circuit.benchmarks import get_benchmark
    >>> from repro.mbqc.translate import circuit_to_pattern
    >>> pattern = circuit_to_pattern(get_benchmark("BV", 4, seed=7))
    >>> first, second = partition_pattern(
    ...     pattern, PartitionConfig(target_states=6)
    ... )
    >>> second.nodes, second.back_edges
    ([5, 6, 7, 8], [(1, 6), (4, 5)])
    >>> sub = second.subgraph
    >>> list(sub.edges())
    [(5, 6), (5, 7), (6, 8)]
    >>> {node: list(sub.adj[node]) for node in sub}
    {5: [6, 7], 6: [5, 8], 7: [5], 8: [6]}
    """
    members = set(nodes)
    subgraph = nx.Graph()
    subgraph.add_nodes_from(nodes)
    for node in nodes:
        for nbr in graph.neighbors(node):
            if nbr in members and node < nbr:
                subgraph.add_edge(node, nbr)
    return subgraph


def schedule_layers(
    pattern: MeasurementPattern, config: PartitionConfig = PartitionConfig()
) -> List[List[int]]:
    """The scheduling stage alone: executability layers per config."""
    if config.scheduling == "flow":
        return rank_layers(pattern)
    return dependency_layers(pattern)


def partition_pattern(
    pattern: MeasurementPattern,
    config: PartitionConfig = PartitionConfig(),
    size_estimator: Optional[Callable[[int], int]] = None,
    layers: Optional[List[List[int]]] = None,
) -> List[GraphPartition]:
    """Partition *pattern*'s graph state by executability order.

    Returns partitions in scheduling order.  Every graph edge appears
    exactly once: either inside a partition's ``subgraph`` or as a
    ``back_edge`` of the later of its two endpoints' partitions.  No
    partition's subgraph is built here (see :class:`GraphPartition`).

    ``size_estimator(node) -> int`` estimates the resource states a node
    will synthesize into (used with ``config.target_states``; defaults to
    one state per node).  ``layers`` lets callers pass the
    :func:`schedule_layers` result in (the compiler times scheduling and
    partitioning separately for ``bench --profile``).
    """
    if layers is None:
        layers = schedule_layers(pattern, config)
    if size_estimator is None:
        size_estimator = lambda node: 1  # noqa: E731 - trivial default
    graph = pattern.graph
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
        back_edges: List[Tuple[int, int]] = []
        for node in current_nodes:
            for nbr in graph.neighbors(node):
                if home.get(nbr, index) < index:
                    back_edges.append((nbr, node))
        partitions.append(
            GraphPartition(
                index=index,
                nodes=list(current_nodes),
                graph=graph,
                back_edges=sorted(set(back_edges)),
                layer_indices=list(current_layers),
            )
        )
        current_nodes = []
        current_layers = []
        prober.reset()

    current_states = 0
    # Planarity is monotone while a partition grows: every candidate is
    # an induced subgraph of the graph on its nodes, and any induced
    # subgraph of a planar graph stays planar.  Instead of one O(V)
    # planarity test per layer, probe the whole window of layers up to
    # the next (exactly predictable) capacity-triggered close: one test
    # certifies every per-layer check in the window, and when the probe
    # fails a binary search pins the first non-planar layer in O(log)
    # tests.  The partitioning decisions are identical to the per-layer
    # algorithm; only the number of planarity tests changes.
    states_per_layer = [
        sum(size_estimator(node) for node in layer) for layer in layers
    ]
    planar_horizon = -1  # candidates through this layer are known planar
    known_fail_at = -1  # first non-planar layer found by a probe
    num_layers = len(layers)
    # Probes run on a plain adjacency of the accepted nodes plus the
    # window, reduced to its planarity kernel before networkx sees it.
    prober = IncrementalPlanarityProber(graph)

    for layer_idx, layer in enumerate(layers):
        layer_states = states_per_layer[layer_idx]
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
        if current_nodes and layer_idx > planar_horizon:
            if layer_idx == known_fail_at:
                close_partition()
                current_states = 0
            else:
                # window [layer_idx, cap_end]: no capacity close occurs
                # inside it, so candidate growth there is purely additive
                cap_end = layer_idx
                states = current_states + layer_states
                run_len = len(current_layers) + 1
                j = layer_idx + 1
                while j < num_layers:
                    if run_len >= config.max_layers:
                        break
                    if (
                        config.target_states is not None
                        and states + states_per_layer[j] > config.target_states
                    ):
                        break
                    cap_end = j
                    states += states_per_layer[j]
                    run_len += 1
                    j += 1
                if prober.probe(layers[layer_idx : cap_end + 1]):
                    planar_horizon = cap_end
                else:
                    lo, hi = layer_idx, cap_end
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if prober.probe(layers[layer_idx : mid + 1]):
                            lo = mid + 1
                        else:
                            hi = mid
                    if lo == layer_idx:
                        close_partition()
                        current_states = 0
                    else:
                        planar_horizon = lo - 1
                        known_fail_at = lo
        if layer_idx >= known_fail_at:
            known_fail_at = -1
        current_nodes.extend(layer)
        current_layers.append(layer_idx)
        current_states += layer_states
        prober.extend(layer)
    close_partition()
    return partitions


def required_degrees(
    partition: GraphPartition, graph: GraphLike
) -> Dict[int, int]:
    """Total port demand per node of *partition*.

    Counts every graph edge incident to the node — including edges to
    other partitions (both earlier and later) — because the node's
    resource-state chain must expose a photon for each of them.
    """
    return {node: graph.degree(node) for node in partition.nodes}


def cross_partition_edges(
    partitions: List[GraphPartition],
) -> List[Tuple[int, int]]:
    """All edges realized between partitions (union of back edges)."""
    out: List[Tuple[int, int]] = []
    for part in partitions:
        out.extend(part.back_edges)
    return out


def verify_partitioning(
    pattern: MeasurementPattern, partitions: List[GraphPartition]
) -> Tuple[bool, str]:
    """Structural check: node coverage and exact edge coverage."""
    seen_nodes: Set[int] = set()
    for part in partitions:
        overlap = seen_nodes & set(part.nodes)
        if overlap:
            return False, f"nodes {sorted(overlap)} in multiple partitions"
        seen_nodes.update(part.nodes)
    if seen_nodes != set(pattern.graph.nodes()):
        return False, "partitions do not cover all nodes"
    covered = set()
    for part in partitions:
        for u, v in part.subgraph.edges():
            covered.add(frozenset((u, v)))
        for u, v in part.back_edges:
            covered.add(frozenset((u, v)))
    expected = {frozenset(e) for e in pattern.graph.edges()}
    if covered != expected:
        return False, "edge coverage mismatch"
    return True, "ok"
