"""Fusion mapping and routing (paper Sec. 6): in-layer heuristic search.

FROZEN REFERENCE (do not edit): verbatim snapshot of the scalar
implementation taken immediately before the bit-packed rewrite of the
live module.  tests/core/test_mapping_equivalence_v2.py pins the packed
path bit-identical to this code.

Embeds the irregular fusion graph into the regular grid of one (possibly
extended) physical layer after another.  Edges are traversed in
cycle-prioritized BFS order; each edge is realized either by placing the
new endpoint on an adjacent cell or by *fusion routing* — a path of
auxiliary resource states winding along the lattice (each auxiliary cell
burns two photons and can carry only one path for small resource states).
Candidate placements are scored with the paper's cost function

    ``H = occupied_area + #partially_blocked + alpha * #totally_blocked``

where a node is blocked when its remaining unmapped edges exceed its free
adjacent cells.  Nodes whose edges cannot all be realized within a layer
are *incomplete*; their leftover edges are handed to inter-layer
shuffling (:mod:`repro.core.shuffling`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

import networkx as nx

from repro.core.fusion_graph import FGNode, FusionGraph
from repro.hardware.resource_state import ResourceStateType
from repro.utils.geometry import grid_neighbor_table

Coord = Tuple[int, int]


@dataclass
class LayerLayout:
    """One mapped (extended) physical layer, for metrics and rendering."""

    index: int
    shape: Tuple[int, int]
    node_at: Dict[Coord, FGNode] = field(default_factory=dict)
    aux_cells: Set[Coord] = field(default_factory=set)
    paths: List[List[Coord]] = field(default_factory=list)
    incomplete: Set[FGNode] = field(default_factory=set)

    @property
    def occupied(self) -> int:
        return len(self.node_at) + len(self.aux_cells)


@dataclass(frozen=True)
class Placement:
    layer: int
    coord: Coord


@dataclass
class MappingResult:
    """Outcome of mapping one partition's fusion graph."""

    layers: List[LayerLayout]
    placements: Dict[FGNode, Placement]
    edge_fusions: int = 0
    synthesis_fusions: int = 0
    routing_fusions: int = 0
    deferred_edges: List[Tuple[FGNode, FGNode]] = field(default_factory=list)


class InLayerMapper:
    """Stateful mapper: one instance maps all partitions of a program."""

    def __init__(
        self,
        shape: Tuple[int, int],
        resource_state: ResourceStateType,
        alpha: Optional[float] = None,
        route_radius: int = 6,
        route_targets_limit: int = 6,
        connect_radius: Optional[int] = None,
    ) -> None:
        rows, cols = shape
        if rows < 2 or cols < 2:
            raise ValueError("layer must be at least 2x2")
        self.shape = shape
        self.resource_state = resource_state
        # paper: alpha > 1, typically the max degree of the physical layer
        self.alpha = float(alpha) if alpha is not None else 4.0
        self.route_radius = route_radius
        self.route_targets_limit = route_targets_limit
        #: bound on placed-to-placed routing (:meth:`_connect_placed`);
        #: ``None`` keeps the historical unbounded search — bounding it
        #: trades routing fusions for deferred (shuffled) edges
        self.connect_radius = connect_radius
        self.layers: List[LayerLayout] = []
        self.placements: Dict[FGNode, Placement] = {}
        self._hints: Dict[FGNode, Coord] = {}
        self._nbr_table: Dict[Coord, List[Coord]] = grid_neighbor_table(shape)
        self._reset_layer_state()

    # ------------------------------------------------------------------
    # layer lifecycle
    # ------------------------------------------------------------------
    def _reset_layer_state(self) -> None:
        self._occupied: Dict[Coord, object] = {}
        self._remaining: Dict[FGNode, int] = {}
        self._realized: Dict[FGNode, int] = {}
        self._rect: Optional[Tuple[int, int, int, int]] = None
        self._current: Optional[LayerLayout] = None
        self._free_nbrs: Dict[Coord, int] = {}

    def _open_layer(self) -> LayerLayout:
        layout = LayerLayout(index=len(self.layers), shape=self.shape)
        self.layers.append(layout)
        self._reset_layer_state()
        self._current = layout
        return layout

    def _close_layer(self) -> None:
        if self._current is None:
            return
        for coord, node in self._current.node_at.items():
            if self._remaining.get(node, 0) > 0:
                self._current.incomplete.add(node)
        self._current = None

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def _in_bounds(self, coord: Coord) -> bool:
        r, c = coord
        return 0 <= r < self.shape[0] and 0 <= c < self.shape[1]

    def _neighbors(self, coord: Coord) -> List[Coord]:
        return self._nbr_table[coord]

    def _free(self, coord: Coord) -> bool:
        return coord not in self._occupied

    def _free_neighbor_count(self, coord: Coord) -> int:
        """Free neighbours of *coord*, cached incrementally.

        Cells only ever become occupied within a layer, so the cache is
        maintained by decrement when a cell is claimed (:meth:`_on_occupy`).
        """
        cached = self._free_nbrs.get(coord)
        if cached is None:
            occupied = self._occupied
            cached = sum(
                1 for p in self._nbr_table[coord] if p not in occupied
            )
            self._free_nbrs[coord] = cached
        return cached

    def _on_occupy(self, coord: Coord) -> None:
        """Keep the free-neighbour cache consistent after claiming a cell."""
        cache = self._free_nbrs
        for p in self._nbr_table[coord]:
            if p in cache:
                cache[p] -= 1

    # ------------------------------------------------------------------
    # cost function H
    # ------------------------------------------------------------------
    def _rect_area_with(self, extra: List[Coord]) -> int:
        coords = extra
        rect = self._rect
        if rect is None:
            xs = [c[0] for c in coords]
            ys = [c[1] for c in coords]
            if not xs:
                return 0
            return (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
        x0, y0, x1, y1 = rect
        for (r, c) in coords:
            if r < x0:
                x0 = r
            elif r > x1:
                x1 = r
            if c < y0:
                y0 = c
            elif c > y1:
                y1 = c
        return (x1 - x0 + 1) * (y1 - y0 + 1)

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

    def _score_candidate(
        self,
        new_cells: List[Coord],
        new_node: Optional[FGNode],
        node_cell: Optional[Coord],
        remaining_after: Dict[FGNode, int],
    ) -> float:
        """H after hypothetically occupying *new_cells*.

        Only nodes adjacent to the new cells (plus the new node) can
        change blockage, so the score is the area term plus local
        blockage deltas; the constant global part cancels in comparisons.
        """
        occupied = self._occupied
        remaining = self._remaining
        nbr_table = self._nbr_table
        placements = self.placements
        current_layer = len(self.layers) - 1
        # single-cell candidates (direct adjacency) dominate: avoid the
        # set allocations and min/max calls of the generic path
        single = new_cells[0] if len(new_cells) == 1 else None
        rect = self._rect
        if single is not None and rect is not None:
            x0, y0, x1, y1 = rect
            r, c = single
            if r < x0:
                x0 = r
            elif r > x1:
                x1 = r
            if c < y0:
                y0 = c
            elif c > y1:
                y1 = c
            score = float((x1 - x0 + 1) * (y1 - y0 + 1))
            occupied_extra: Optional[Set[Coord]] = None
        else:
            occupied_extra = set(new_cells)
            score = float(self._rect_area_with(new_cells))
        affected: Dict[FGNode, Coord] = {}
        for cell in new_cells:
            for p in nbr_table[cell]:
                occ = occupied.get(p)
                if isinstance(occ, tuple) and occ in remaining:
                    place = placements.get(occ)
                    if place is not None and place.layer == current_layer:
                        affected[occ] = place.coord
        # Hypothetically apply ``remaining_after`` (<= 2 keys) instead of
        # copying the whole dict; restore the exact prior entries after.
        missing = object()
        saved = [(key, remaining.get(key, missing)) for key in remaining_after]
        try:
            remaining.update(remaining_after)
            alpha = self.alpha
            to_score = list(affected.items())
            if new_node is not None and node_cell is not None:
                to_score.append((new_node, node_cell))
            for node, coord in to_score:
                # inlined _blockage_score: this is the innermost loop of
                # candidate scoring
                rem = remaining.get(node, 0)
                if rem <= 0:
                    continue
                free = 0
                if single is not None:
                    for p in nbr_table[coord]:
                        if p not in occupied and p != single:
                            free += 1
                else:
                    for p in nbr_table[coord]:
                        if p not in occupied and p not in occupied_extra:
                            free += 1
                if free == 0:
                    score += alpha
                elif rem > free:
                    score += 1.0
        finally:
            for key, value in saved:
                if value is missing:
                    remaining.pop(key, None)
                else:
                    remaining[key] = value
        return score

    # ------------------------------------------------------------------
    # placement primitives
    # ------------------------------------------------------------------
    def _place_node(self, node: FGNode, coord: Coord, degree: int) -> None:
        assert self._current is not None
        if not self._free(coord):
            raise RuntimeError(f"cell {coord} already occupied")
        self._occupied[coord] = node
        self._on_occupy(coord)
        self._current.node_at[coord] = node
        self.placements[node] = Placement(len(self.layers) - 1, coord)
        self._remaining[node] = degree
        self._realized[node] = 0
        if self._rect is None:
            self._rect = (coord[0], coord[1], coord[0], coord[1])
        else:
            x0, y0, x1, y1 = self._rect
            self._rect = (
                min(x0, coord[0]),
                min(y0, coord[1]),
                max(x1, coord[0]),
                max(y1, coord[1]),
            )

    def _mark_aux(self, cells: List[Coord]) -> None:
        assert self._current is not None
        for cell in cells:
            self._occupied[cell] = "aux"
            self._on_occupy(cell)
            self._current.aux_cells.add(cell)
            if self._rect is None:
                self._rect = (cell[0], cell[1], cell[0], cell[1])
            else:
                x0, y0, x1, y1 = self._rect
                self._rect = (
                    min(x0, cell[0]),
                    min(y0, cell[1]),
                    max(x1, cell[0]),
                    max(y1, cell[1]),
                )

    def _consume(self, node: FGNode, count: int = 1) -> None:
        self._remaining[node] = self._remaining.get(node, 0) - count
        self._realized[node] = self._realized.get(node, 0) + count

    def _node_capacity_left(self, node: FGNode) -> int:
        """Photons left on the node's resource state for more fusions."""
        return self.resource_state.size - self._realized.get(node, 0)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _bfs_path(
        self,
        start: Coord,
        goal_test: Callable[[Coord, Coord], bool],
        max_len: Optional[int] = None,
        avoid: Optional[Set[Coord]] = None,
    ) -> Optional[List[Coord]]:
        """Shortest path from *start* through free cells.

        ``start`` itself may be occupied (it is the source node's cell);
        every interior cell must be free.  Returns the full path including
        both endpoints, or None.
        """
        avoid = avoid or set()
        queue = deque([start])
        parent: Dict[Coord, Optional[Coord]] = {start: None}
        # depth is tracked alongside the BFS instead of being reconstructed
        # by walking the parent chain on every dequeue (O(n^2) per route)
        depth_of: Dict[Coord, int] = {start: 0}
        nbr_table = self._nbr_table
        occupied = self._occupied
        while queue:
            cur = queue.popleft()
            if max_len is not None and depth_of[cur] >= max_len:
                continue
            for nxt in nbr_table[cur]:
                if nxt in parent or nxt in avoid:
                    continue
                if goal_test(nxt, cur):
                    parent[nxt] = cur
                    path = [nxt]
                    back: Optional[Coord] = cur
                    while back is not None:
                        path.append(back)
                        back = parent[back]
                    path.reverse()
                    return path
                if nxt not in occupied:
                    parent[nxt] = cur
                    depth_of[nxt] = depth_of[cur] + 1
                    queue.append(nxt)
        return None

    # ------------------------------------------------------------------
    # main entry
    # ------------------------------------------------------------------
    def map_fusion_graph(
        self,
        fusion: FusionGraph,
        hints: Optional[Dict[FGNode, Coord]] = None,
    ) -> MappingResult:
        """Map one partition's fusion graph, opening layers as needed.

        ``hints`` suggests a grid location per node (the compiler passes
        the coordinates of cross-partition counterparts so that shuffle
        paths between partitions stay short).
        """
        graph = fusion.to_networkx()
        self._hints = hints or {}
        self._open_layer()
        start_layer = len(self.layers) - 1

        edge_fusions = 0
        synthesis_fusions = 0
        routing_fusions = 0
        deferred: List[Tuple[FGNode, FGNode]] = []

        def count_realized(a: FGNode, b: FGNode) -> None:
            nonlocal edge_fusions, synthesis_fusions
            kind = graph.edges[a, b].get("kind", "edge")
            if kind == "chain":
                synthesis_fusions += 1
            else:
                edge_fusions += 1

        pending = list(_edge_order(graph))
        isolated = [v for v in graph.nodes() if graph.degree(v) == 0]
        for node in isolated:
            coord = self._find_free_cell_near(None)
            if coord is None:
                self._close_layer()
                self._open_layer()
                coord = self._find_free_cell_near(None)
                if coord is None:  # pragma: no cover - layer can't be full here
                    raise RuntimeError("empty layer has no free cell")
            self._place_node(node, coord, 0)

        guard = 0
        while pending:
            guard += 1
            if guard > 20 * (len(pending) + graph.number_of_edges() + 1) + 1000:
                raise RuntimeError("mapper failed to make progress")
            spill: List[Tuple[FGNode, FGNode]] = []
            progressed = False
            for (a, b) in pending:
                outcome = self._realize_edge(a, b, graph)
                if outcome == "edge":
                    count_realized(a, b)
                    progressed = True
                elif isinstance(outcome, int):
                    count_realized(a, b)
                    routing_fusions += outcome
                    progressed = True
                elif outcome == "defer":
                    deferred.append((a, b))
                    self._consume_if_placed(a)
                    self._consume_if_placed(b)
                    progressed = True
                else:  # "spill": retry on a fresh layer
                    spill.append((a, b))
            pending = spill
            if pending and not progressed:
                # nothing fit this layer: start a new one
                self._close_layer()
                self._open_layer()
            elif pending:
                self._close_layer()
                self._open_layer()
        self._close_layer()

        return MappingResult(
            layers=self.layers[start_layer:],
            placements=self.placements,
            edge_fusions=edge_fusions,
            synthesis_fusions=synthesis_fusions,
            routing_fusions=routing_fusions,
            deferred_edges=deferred,
        )

    # ------------------------------------------------------------------
    def _consume_if_placed(self, node: FGNode) -> None:
        place = self.placements.get(node)
        if place is not None and place.layer == len(self.layers) - 1:
            self._consume(node)

    def _is_current(self, node: FGNode) -> bool:
        place = self.placements.get(node)
        return place is not None and place.layer == len(self.layers) - 1

    def _realize_edge(
        self, a: FGNode, b: FGNode, graph: nx.Graph
    ) -> Union[str, int]:
        """Attempt one edge.  Returns:

        * ``"edge"`` — realized by direct adjacency (1 fusion);
        * ``int k`` — realized via routing with ``k`` extra fusions;
        * ``"spill"`` — endpoint could not be placed; retry next layer;
        * ``"defer"`` — both endpoints are stuck in old layers; needs
          inter-layer shuffling.
        """
        a_cur, b_cur = self._is_current(a), self._is_current(b)
        a_old = a in self.placements and not a_cur
        b_old = b in self.placements and not b_cur

        if a_old and (b_old or b_cur):
            return "defer"
        if b_old and a_cur:
            return "defer"
        if a_old:  # b unplaced: place b near a's old coordinate, defer edge
            placed = self._place_new_node(
                b, graph, near=self.placements[a].coord, budget_for_edge=False
            )
            return "defer" if placed else "spill"
        if b_old:
            placed = self._place_new_node(
                a, graph, near=self.placements[b].coord, budget_for_edge=False
            )
            return "defer" if placed else "spill"

        if not a_cur and not b_cur:
            # new component (or fresh layer): seed one endpoint
            seed = a if graph.degree(a) >= graph.degree(b) else b
            near = self._hints.get(seed, self._hints.get(a, self._hints.get(b)))
            if not self._place_new_node(seed, graph, near=near, budget_for_edge=False):
                return "spill"
            a_cur, b_cur = self._is_current(a), self._is_current(b)

        if a_cur and b_cur:
            return self._connect_placed(a, b)

        placed_node, new_node = (a, b) if a_cur else (b, a)
        return self._attach_new(placed_node, new_node, graph)

    # ------------------------------------------------------------------
    def _connect_placed(self, a: FGNode, b: FGNode) -> Union[str, int]:
        """Route an edge between two already-placed nodes (same layer)."""
        if self._node_capacity_left(a) <= 0 or self._node_capacity_left(b) <= 0:
            return "defer"
        ca = self.placements[a].coord
        cb = self.placements[b].coord
        if cb in self._neighbors(ca):
            self._consume(a)
            self._consume(b)
            assert self._current is not None
            self._current.paths.append([ca, cb])
            return "edge"
        path = self._bfs_path(
            ca, lambda nxt, cur: nxt == cb, max_len=self.connect_radius
        )
        if path is None:
            return "defer"
        interior = path[1:-1]
        self._mark_aux(interior)
        self._consume(a)
        self._consume(b)
        assert self._current is not None
        self._current.paths.append(path)
        return len(path) - 2  # routing fusions beyond the 1 edge fusion

    def _attach_new(
        self, placed: FGNode, new: FGNode, graph: nx.Graph
    ) -> Union[str, int]:
        """Place *new* adjacent to *placed* (directly or via routing)."""
        if self._node_capacity_left(placed) <= 0:
            # port exhausted by routing overhead; hand to shuffling
            if self._place_new_node(
                new, graph, near=self.placements[placed].coord, budget_for_edge=False
            ):
                return "defer"
            return "spill"
        cp = self.placements[placed].coord
        degree = graph.degree(new)
        after = {
            placed: self._remaining.get(placed, 0) - 1,
            new: degree - 1,
        }
        # direct candidates: free cells adjacent to the anchor
        options: List[Tuple[float, Coord, Optional[List[Coord]]]] = []
        for cell in self._neighbors(cp):
            if self._free(cell):
                score = self._score_candidate([cell], new, cell, after)
                options.append((score, cell, None))
        # routing is triggered when direct mapping is impossible or when
        # every direct option blocks a node (score carries an alpha term)
        need_routing = not options or min(s for s, _, _ in options) >= self.alpha
        if need_routing:
            needed = max(1, min(degree - 1, 3))
            best_so_far = min((s for s, _, _ in options), default=float("inf"))
            for path in self._routed_targets(cp, needed):
                target = path[-1]
                cells = path[1:]
                # the aux-cell penalty and the (monotone) area term bound
                # the score from below; blockage only adds to it, so a
                # path whose bound already loses cannot be the minimum
                penalty = 0.25 * (len(path) - 2)
                bound = float(self._rect_area_with(cells)) + penalty
                if bound > best_so_far:
                    continue
                score = self._score_candidate(cells, new, target, after)
                # prefer direct edges when scores tie: each aux cell costs
                # a fusion, which H does not see
                score += penalty
                options.append((score, target, path))
                if score < best_so_far:
                    best_so_far = score
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

    def _routed_targets(
        self, start: Coord, needed: int, limit: Optional[int] = None
    ) -> List[List[Coord]]:
        """Up to *limit* shortest free paths to roomy cells around *start*.

        Routing paths have length >= 2 (at least one auxiliary state), as
        in the paper; each returned path includes both endpoints.  The
        default *limit* is the mapper's ``route_targets_limit``.
        """
        if limit is None:
            limit = self.route_targets_limit
        results: List[List[Coord]] = []
        queue = deque([start])
        parent: Dict[Coord, Optional[Coord]] = {start: None}
        depth = {start: 0}
        nbr_table = self._nbr_table
        occupied = self._occupied
        radius = self.route_radius
        while queue and len(results) < limit:
            cur = queue.popleft()
            if depth[cur] >= radius:
                continue
            for nxt in nbr_table[cur]:
                if nxt in parent or nxt in occupied:
                    continue
                parent[nxt] = cur
                depth[nxt] = depth[cur] + 1
                if depth[nxt] >= 2 and self._free_neighbor_count(nxt) >= needed:
                    path = [nxt]
                    back: Optional[Coord] = cur
                    while back is not None:
                        path.append(back)
                        back = parent[back]
                    path.reverse()
                    results.append(path)
                queue.append(nxt)
        return results

    def _place_new_node(
        self,
        node: FGNode,
        graph: nx.Graph,
        near: Optional[Coord],
        budget_for_edge: bool,
    ) -> bool:
        """Place a node with no in-layer anchor (seed or stub neighbour)."""
        degree = graph.degree(node)
        if near is None:
            near = self._hints.get(node)
        coord = self._find_free_cell_near(near)
        if coord is None:
            return False
        self._place_node(node, coord, degree)
        if budget_for_edge:
            self._consume(node)
        return True

    def _find_free_cell_near(self, near: Optional[Coord]) -> Optional[Coord]:
        rows, cols = self.shape
        if near is None:
            if self._rect is not None:
                # seed new components beside the existing region
                x0, y0, x1, y1 = self._rect
                near = (min(rows - 1, x1 + 2), min(cols - 1, (y0 + y1) // 2))
            else:
                near = (rows // 2, cols // 2)
        if self._free(near) and self._free_neighbor_count(near) >= 1:
            return near
        # deterministic outward scan: candidates are visited in
        # (manhattan distance, row, column) order.  The previous spiral
        # BFS broke distance ties by queue insertion order and measured
        # distance through occupied cells only, so the chosen cell
        # depended on the occupancy history rather than the geometry.
        occupied = self._occupied
        nr, nc = near
        for dist in range(1, rows + cols - 1):
            for dr in range(-dist, dist + 1):
                r = nr + dr
                if r < 0 or r >= rows:
                    continue
                rem = dist - abs(dr)
                c = nc - rem
                if c >= 0 and (r, c) not in occupied:
                    return (r, c)
                if rem and nc + rem < cols and (r, nc + rem) not in occupied:
                    return (r, nc + rem)
        return None


def _edge_order(graph: nx.Graph) -> List[Tuple[FGNode, FGNode]]:
    """Cycle-prioritized BFS edge order (Sec. 6).

    Edges on cycles come before bridges at each BFS step, because tree
    edges are flexible and can be mapped around a committed cycle layout.
    """
    if graph.number_of_edges() == 0:
        return []
    bridges = {frozenset(e) for e in nx.bridges(graph)}
    order: List[Tuple[FGNode, FGNode]] = []
    seen_edges: Set[frozenset] = set()
    visited: Set[FGNode] = set()
    components = sorted(
        nx.connected_components(graph), key=len, reverse=True
    )
    for comp in components:
        start = max(comp, key=lambda v: (graph.degree(v), v))
        visited.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            nbrs = sorted(
                graph.neighbors(u),
                key=lambda w: (
                    frozenset((u, w)) in bridges,  # cycle edges first
                    -graph.degree(w),
                    w,
                ),
            )
            for w in nbrs:
                e = frozenset((u, w))
                if e not in seen_edges:
                    seen_edges.add(e)
                    order.append((u, w))
                if w not in visited:
                    visited.add(w)
                    queue.append(w)
    return order
