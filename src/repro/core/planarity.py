"""Planarity utilities (paper Sec. 4 'Graph Planarization', Sec. 5).

Small resource states admit at most one routing path per coupling-graph
location, so only planar graphs can be laid out on a single physical
layer.  The compiler therefore (a) stops growing a partition when its
induced subgraph stops being planar (a non-planar single dependency
layer becomes a partition of its own, and fusion-graph generation then
falls back to sorted neighbour order), and (b) threads the planar
embedding's rotational edge order through fusion-graph generation.

Planarity verdicts are decided on the graph's *planarity kernel*:
vertices of degree at most one are deleted and degree-2 vertices are
suppressed (a-u-b becomes a-b, and a parallel edge this creates is
dropped) until every vertex has degree at least three.  Both steps
preserve planarity, and a kernel on at most five vertices or one over
the Euler bound is decided without calling networkx.

:func:`maximal_planar_subgraph` and :func:`planar_edge_decomposition`
implement the paper's decomposition of non-planar layers into planar
edge-subgraphs; they are library utilities that the compile pipeline
does not call.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.mbqc.pattern import GraphLike

#: a simple undirected graph on int vertices: vertex -> neighbour set
Adjacency = Dict[int, Set[int]]


def _kernel_is_planar(adj: Adjacency) -> bool:
    """Planarity of the loop-free symmetric graph *adj*, decided on its
    kernel; *adj* is reduced in place.

    Deleting a vertex of degree at most one keeps the verdict, and so
    does suppressing a degree-2 vertex u between a and b: if a-b is new
    the graph is homeomorphic to the old one, and if a-b already exists
    u only drew a parallel path beside it.  What is left has minimum
    degree three.
    """
    stack = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    while stack:
        v = stack.pop()
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) > 2:
            continue  # already deleted, or queued twice
        del adj[v]
        for u in nbrs:
            adj[u].discard(v)
        if len(nbrs) == 2:
            a, b = nbrs
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                continue  # degrees of a and b unchanged
        # a leaf's neighbour, or both ends of a dropped parallel edge,
        # lost one degree
        for u in nbrs:
            if len(adj[u]) <= 2:
                stack.append(u)
    n = len(adj)
    edges = sum(len(nbrs) for nbrs in adj.values()) // 2
    # Euler bound: a planar simple graph has at most 3V - 6 edges
    if n >= 3 and edges > 3 * n - 6:
        return False
    if n <= 5:  # K5, the only non-planar graph on 5 vertices, fails Euler
        return True
    kernel = nx.Graph()
    kernel.add_edges_from(
        (u, w) for u, nbrs in adj.items() for w in nbrs if u < w
    )
    # looked up on the module at call time, so wrappers of
    # networkx.check_planarity see every call
    ok, _ = nx.check_planarity(kernel, counterexample=False)
    return bool(ok)


def is_planar(graph: nx.Graph) -> bool:
    """True when *graph* admits a planar embedding."""
    index = {node: i for i, node in enumerate(graph)}
    adj: Adjacency = {
        index[u]: {index[w] for w in nbrs if w != u}
        for u, nbrs in graph.adjacency()
    }
    return _kernel_is_planar(adj)


class IncrementalPlanarityProber:
    """Windowed planarity probes over a growing induced subgraph.

    :func:`repro.core.partition.partition_pattern` repeatedly tests
    whether the induced subgraph on ``accepted nodes + a window of
    candidate layers`` is planar.  The prober keeps the accepted nodes'
    induced subgraph as a plain int adjacency; each probe copies it,
    attaches the window and decides planarity on the copy's kernel.
    Wire chains and leaves, most of a pattern graph, never reach
    networkx.

    A bisection re-probes the same window nodes several times (on
    Table 2, ~6 attaches per node), so each node's *source* neighbours
    are read once per partition and kept as a tuple until
    :meth:`reset`: a pattern graph row is an array slice, which
    allocates on every read.

    Only the planarity *verdict* is produced — callers that need the
    rotational edge order still call :func:`planar_embedding_order` on
    the partition's own subgraph.
    """

    def __init__(self, source: GraphLike) -> None:
        self._source = source
        self._adj: Adjacency = {}
        self._rows: Dict[int, Tuple[int, ...]] = {}

    def reset(self) -> None:
        """Forget all accepted nodes (a partition closed)."""
        self._adj = {}
        self._rows = {}

    def _attach(self, adj: Adjacency, nodes: Iterable[int]) -> None:
        """Add *nodes* to *adj* with their source edges into it (an
        induced subgraph grows); nodes already present are skipped."""
        rows = self._rows
        for node in nodes:
            if node in adj:
                continue
            row = rows.get(node)
            if row is None:
                row = rows[node] = tuple(self._source.neighbors(node))
            nbrs = adj.keys() & row
            for nbr in nbrs:
                adj[nbr].add(node)
            adj[node] = nbrs

    def extend(self, nodes: List[int]) -> None:
        """Permanently accept *nodes* (a layer joined the partition)."""
        self._attach(self._adj, nodes)

    def probe(self, window_layers: List[List[int]]) -> bool:
        """Is ``accepted + window`` planar as an induced subgraph?"""
        adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        for layer in window_layers:
            self._attach(adj, layer)
        return _kernel_is_planar(adj)


def planar_embedding_order(
    graph: nx.Graph,
) -> Optional[Dict[Hashable, List[Hashable]]]:
    """Clockwise neighbour order per node from a planar embedding.

    Returns ``None`` when the graph is non-planar.  The rotational order
    is what fusion-graph generation must preserve to keep the synthesized
    graph planar (Fig. 9d vs 9e).
    """
    ok, embedding = nx.check_planarity(graph, counterexample=False)
    if not ok:
        return None
    order: Dict[Hashable, List[Hashable]] = {}
    for node in graph.nodes():
        neighbors = list(graph.neighbors(node))
        if not neighbors:
            order[node] = []
            continue
        order[node] = list(embedding.neighbors_cw_order(node))
    return order


def maximal_planar_subgraph(
    graph: nx.Graph,
) -> Tuple[nx.Graph, List[Tuple[Hashable, Hashable]]]:
    """Greedy maximal planar edge-subgraph of *graph*.

    Returns ``(planar_subgraph, leftover_edges)`` where adding any
    leftover edge to the subgraph would break planarity (the paper's
    repeated decomposition for non-planar dependency layers).  Greedy
    insertion is the standard polynomial heuristic; exact maximum planar
    subgraph is NP-hard.
    """
    sub = nx.Graph()
    sub.add_nodes_from(graph.nodes())
    leftover: List[Tuple[Hashable, Hashable]] = []
    # a spanning forest is always planar: seed with it for a good start
    forest_edges = set()
    for tree in nx.minimum_spanning_edges(graph, data=False):
        forest_edges.add(frozenset(tree))
        sub.add_edge(*tree)
    for u, v in graph.edges():
        if frozenset((u, v)) in forest_edges:
            continue
        sub.add_edge(u, v)
        if not is_planar(sub):
            sub.remove_edge(u, v)
            leftover.append((u, v))
    return sub, leftover


def planar_edge_decomposition(
    graph: nx.Graph,
) -> List[nx.Graph]:
    """Decompose *graph* into planar edge-subgraphs on the same nodes.

    Repeatedly strips a maximal planar subgraph until no edges remain
    (terminates because each round removes at least a spanning forest of
    the leftovers).
    """
    pieces: List[nx.Graph] = []
    remaining = graph.copy()
    while remaining.number_of_edges() > 0:
        planar, leftover = maximal_planar_subgraph(remaining)
        pieces.append(planar)
        remaining = nx.Graph()
        remaining.add_nodes_from(graph.nodes())
        remaining.add_edges_from(leftover)
    if not pieces:  # edgeless input
        pieces.append(graph.copy())
    return pieces
