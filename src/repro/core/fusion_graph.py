"""Fusion graph generation (paper Sec. 5).

A partition's graph-state subgraph is synthesized from resource states
using the three basic fusion patterns (degree increment, line extension,
graph connection).  The output is a *fusion graph*: one node per resource
state ('⊗' in the paper's figures), one edge per fusion.  Two edge kinds
exist at this stage:

* ``chain`` — synthesis fusions building a high-degree node out of a
  chain of resource states (Fig. 8c);
* ``edge`` — fusions realizing actual graph-state edges between two
  nodes' resource states (Fig. 7c).

Routing/shuffling fusions are added later by the mapper.  The generator
is coupling-agnostic (Sec. 5): it only respects resource-state port
capacities, and — when the subgraph is planar — the rotational edge order
of a planar embedding, which keeps the fusion graph planar (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.core.planarity import planar_embedding_order
from repro.hardware.resource_state import ResourceStateType

#: A fusion-graph node: (origin graph-state node, chain position).
FGNode = Tuple[int, int]


@dataclass
class FusionGraph:
    """The synthesized fusion strategy for one partition.

    Attributes:
        adj: the fusion graph as an insertion-ordered adjacency: node ->
            neighbour -> fusion kind (``'chain'`` or ``'edge'``).  Nodes
            are :data:`FGNode`, the chains in subgraph node order; each
            node lists its chain links first, then its edge fusions in
            ``subgraph.edges()`` order.  :meth:`to_networkx` rebuilds the
            networkx view for verification.
        chains: origin node -> its chain of fusion-graph nodes in order.
        port_of: (node, neighbour) -> fusion-graph node that exposes the
            photon for the edge towards ``neighbour``.  Covers both
            in-partition edges and cross-partition stubs.
        synthesis_fusions: number of 'chain' edges.
        edge_fusions: number of 'edge' edges.
    """

    adj: Dict[FGNode, Dict[FGNode, str]]
    chains: Dict[int, List[FGNode]]
    port_of: Dict[Tuple[int, int], FGNode]
    synthesis_fusions: int = 0
    edge_fusions: int = 0
    planar: bool = False

    @property
    def num_resource_states(self) -> int:
        return len(self.adj)

    def to_networkx(self) -> nx.Graph:
        """The fusion graph as an ``nx.Graph`` with a ``kind`` per edge.

        For any graph :func:`build_fusion_graph` returns, node order and
        every node's neighbour order equal :attr:`adj`: adding all chain
        links before any edge fusion, each kind in node order, replays
        the order in which it filled the adjacency.
        """
        graph = nx.Graph()
        graph.add_nodes_from(self.adj)
        for kind in ("chain", "edge"):
            done: Set[FGNode] = set()
            for u, nbrs in self.adj.items():
                done.add(u)
                graph.add_edges_from(
                    ((u, v) for v, k in nbrs.items() if k == kind and v not in done),
                    kind=kind,
                )
        return graph


def build_fusion_graph(
    subgraph: nx.Graph,
    degrees: Dict[int, int],
    resource_state: ResourceStateType,
    cross_neighbors: Optional[Dict[int, List[int]]] = None,
    use_embedding: bool = True,
) -> FusionGraph:
    """Synthesize *subgraph* (one partition) from *resource_state*s.

    Args:
        subgraph: the partition's induced graph-state subgraph.
        degrees: total port demand per node (in-partition + cross edges).
        resource_state: the hardware's emitted state type.
        cross_neighbors: node -> neighbours living in other partitions;
            ports are reserved for them (used as shuffle stubs).
        use_embedding: preserve a planar embedding's rotational edge
            order when one exists (planarity preservation, Fig. 9).
    """
    cross_neighbors = cross_neighbors or {}
    size = resource_state.size

    embedding_order = planar_embedding_order(subgraph) if use_embedding else None

    adj: Dict[FGNode, Dict[FGNode, str]] = {}
    chains: Dict[int, List[FGNode]] = {}
    port_of: Dict[Tuple[int, int], FGNode] = {}
    synthesis = 0
    # demand -> (chain length, the chain position of every port in
    # order); a port is a photon not spent on a chain link, and the inner
    # states of a chain spend two, its ends one (none if it is alone)
    shapes: Dict[int, Tuple[int, List[int]]] = {}

    for node, nbrs in subgraph.adj.items():
        demand = degrees.get(node, len(nbrs))
        shape = shapes.get(demand)
        if shape is None:
            k = resource_state.states_for_degree(demand)
            slots = [
                i
                for i in range(k)
                for _ in range(size - (0 if k == 1 else 1 if i in (0, k - 1) else 2))
            ]
            if len(slots) < demand:
                raise RuntimeError(
                    f"node {node}: chain of {k} states exposes {len(slots)} "
                    f"ports < demand {demand}"
                )
            shape = shapes[demand] = (k, slots)
        k, slots = shape
        chain = [(node, i) for i in range(k)]
        chains[node] = chain
        for fg_node in chain:
            adj[fg_node] = {}
        for a, b in zip(chain, chain[1:]):
            adj[a][b] = adj[b][a] = "chain"
        synthesis += k - 1
        # reserve ports in rotational order (planarity preservation)
        in_part = (
            embedding_order[node] if embedding_order is not None else sorted(nbrs)
        )
        sequence: List[int] = list(in_part) + sorted(cross_neighbors.get(node, []))
        if len(sequence) > len(slots):
            raise RuntimeError("chain ran out of ports; capacity bug")
        for nbr, i in zip(sequence, slots):
            port_of[(node, nbr)] = chain[i]

    edge_fusions = 0
    for u, v in subgraph.edges():
        pu = port_of[(u, v)]
        pv = port_of[(v, u)]
        adj[pu][pv] = adj[pv][pu] = "edge"
        edge_fusions += 1

    return FusionGraph(
        adj=adj,
        chains=chains,
        port_of=port_of,
        synthesis_fusions=synthesis,
        edge_fusions=edge_fusions,
        planar=embedding_order is not None,
    )


def verify_fusion_graph(
    fusion: FusionGraph,
    subgraph: nx.Graph,
    resource_state: ResourceStateType,
) -> Tuple[bool, str]:
    """Structural invariants of a generated fusion graph.

    * every fusion-graph node has degree at most the photon count;
    * contracting every chain back to its origin recovers exactly the
      partition subgraph (so the fusion strategy synthesizes the right
      graph state);
    * the fusion graph of a planar partition is planar.
    """
    cap = resource_state.fusion_capacity()
    graph = fusion.to_networkx()
    for fg_node in graph.nodes():
        if graph.degree(fg_node) > cap:
            return False, f"{fg_node} exceeds fusion capacity {cap}"
    contracted = nx.Graph()
    contracted.add_nodes_from(n for n in fusion.chains)
    for a, b, data in graph.edges(data=True):
        if data["kind"] == "edge":
            u, v = a[0], b[0]
            if u == v:
                return False, f"edge fusion within one chain: {a}-{b}"
            if contracted.has_edge(u, v):
                return False, f"duplicate edge fusion {u}-{v}"
            contracted.add_edge(u, v)
    same_nodes = set(contracted.nodes()) == set(subgraph.nodes())
    same_edges = {frozenset(e) for e in contracted.edges()} == {
        frozenset(e) for e in subgraph.edges()
    }
    if not (same_nodes and same_edges):
        return False, "contracted fusion graph does not match subgraph"
    if fusion.planar:
        ok, _ = nx.check_planarity(graph, counterexample=False)
        if not ok:
            return False, "fusion graph broke planarity"
    return True, "ok"
