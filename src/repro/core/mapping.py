"""Fusion mapping and routing (paper Sec. 6): in-layer heuristic search.

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

The hot path runs on bit-packed grid planes (:mod:`repro.utils.bitgrid`):
layer occupancy, node cells, free-neighbour counts and per-cell remaining
degrees are integer bitboards/flat planes, so candidate scoring is a
handful of mask tests per cell and path search expands whole BFS
frontiers per word op.  The routed-placement search is pruned by an exact
lower bound: a routed path's area term is at least ``min_area``, the
smallest among the direct candidates, plus ``0.25`` per auxiliary cell,
so the search is skipped when even one auxiliary cell loses to the best
direct score and otherwise stops at the deepest BFS depth that can still
tie it.  The cap is derived per call, not configured; it drops only paths
the scoring loop would skip (:meth:`InLayerMapper._routed_targets`).
The packed path is pinned bit-identical to the
frozen scalar reference (``tests/core/reference_mapping.py``) by
``tests/core/test_mapping_equivalence_v2.py``: same placements, same
routed paths, same metrics at a fixed seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple, Union

from repro.core.fusion_graph import FGNode, FusionGraph
from repro.hardware.resource_state import ResourceStateType
from repro.utils.bitgrid import lexmin_path, nearest_free, spec_for
from repro.utils.geometry import grid_neighbor_table

Coord = Tuple[int, int]

#: BFS depth bound of the routed-placement search
#: (:meth:`InLayerMapper._routed_targets`)
ROUTE_RADIUS = 6
#: routed-placement candidate cap, checked once per dequeued cell
ROUTE_TARGETS_LIMIT = 6


class NoViableSitesError(RuntimeError):
    """The hardware has no usable cells left to map onto.

    Raised when every cell of the layer grid is blocked (dead hardware
    sites pre-excluded from mapping) — compiling is impossible and the
    caller should report the device as unrecoverable rather than retry.
    """


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
        blocked: Optional[Set[Coord]] = None,
    ) -> None:
        rows, cols = shape
        if rows < 2 or cols < 2:
            raise ValueError("layer must be at least 2x2")
        self.shape = shape
        # dead hardware cells: permanently occupied in every layer, so
        # placement and routing flow around them without special-casing
        for cell in blocked or ():
            r, c = cell
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(
                    f"blocked cell {cell} is outside the {shape} layer"
                )
        self.blocked: FrozenSet[Coord] = frozenset(blocked or ())
        if len(self.blocked) >= rows * cols:
            raise NoViableSitesError(
                f"no viable sites: all {rows * cols} cells of the "
                f"{shape} layer are blocked/dead"
            )
        self.resource_state = resource_state
        # paper: alpha > 1, typically the max degree of the physical layer
        self.alpha = float(alpha) if alpha is not None else 4.0
        self.layers: List[LayerLayout] = []
        self.placements: Dict[FGNode, Placement] = {}
        #: wall seconds spent in candidate scoring / path search /
        #: placement bookkeeping, accumulated across all partitions
        #: (surfaced by the compiler as the ``map_score`` /
        #: ``map_route`` / ``map_place`` sub-stages)
        self.stage_seconds: Dict[str, float] = {
            "score": 0.0, "route": 0.0, "place": 0.0,
        }
        self._hints: Dict[FGNode, Coord] = {}
        self._nbr_table: Dict[Coord, List[Coord]] = grid_neighbor_table(shape)
        self._spec = spec_for(shape)
        # generation-stamped flat scratch planes for the routing BFS
        # (reused across calls; a bumped generation invalidates them all
        # without re-allocating)
        self._bfs_gen = 0
        self._bfs_seen: List[int] = [0] * self._spec.nbits
        self._bfs_parent: List[int] = [0] * self._spec.nbits
        self._bfs_depth: List[int] = [0] * self._spec.nbits
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
        # packed layer planes: occupancy and node-cell bitboards, plus
        # flat per-cell planes for free-neighbour counts and the
        # remaining degree of the node occupying each cell
        self._occ_bits: int = 0
        self._node_bits: int = 0
        self._fnc: List[int] = list(self._spec.free0)
        self._rem_at: List[int] = [0] * self._spec.nbits
        # dead cells start every layer occupied (not as nodes, not in
        # the bounding rectangle: they consume no resource states)
        spec = self._spec
        for cell in sorted(self.blocked):
            self._occupied[cell] = "blocked"
            idx = cell[0] * spec.stride + cell[1]
            self._occ_bits |= spec.bit[idx]
            for ni in spec.nbr_idx[idx]:
                self._fnc[ni] -= 1

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
    def _neighbors(self, coord: Coord) -> List[Coord]:
        return self._nbr_table[coord]

    def _free(self, coord: Coord) -> bool:
        return coord not in self._occupied

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
        spec = self._spec
        stride = spec.stride
        bit = spec.bit
        nbr_idx = spec.nbr_idx
        nbr_mask = spec.nbr_mask
        node_bits = self._node_bits
        fnc = self._fnc
        rem_at = self._rem_at
        remaining = self._remaining
        alpha = self.alpha
        # single-cell candidates (direct adjacency) dominate: avoid the
        # mask allocations and min/max calls of the generic path
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
        else:
            score = float(self._rect_area_with(new_cells))
        idxs = [r * stride + c for r, c in new_cells]
        new_bits = 0
        for i in idxs:
            new_bits |= bit[i]
        # Blockage terms accumulate in the scalar scorer's order — the
        # affected placed nodes in first-encounter order over new cells x
        # U, D, L, R neighbours, then the new node — so the float sum is
        # bit-identical.  Each term is two plane reads and a popcount:
        # free neighbours after the hypothetical claim is the maintained
        # free count minus the claimed cells adjacent to the node.
        seen = 0
        for i in idxs:
            for p_idx in nbr_idx[i]:
                pb = bit[p_idx]
                if not node_bits & pb or seen & pb:
                    continue
                seen |= pb
                if remaining_after:
                    node = self._occupied.get(spec.coord[p_idx])
                    if node in remaining_after:
                        rem = remaining_after[node]
                    else:
                        rem = rem_at[p_idx]
                else:
                    rem = rem_at[p_idx]
                if rem <= 0:
                    continue
                free = fnc[p_idx] - (nbr_mask[p_idx] & new_bits).bit_count()
                if free == 0:
                    score += alpha
                elif rem > free:
                    score += 1.0
        if new_node is not None and node_cell is not None:
            rem = remaining_after.get(
                new_node, remaining.get(new_node, 0)
            )
            if rem > 0:
                i = node_cell[0] * stride + node_cell[1]
                free = fnc[i] - (nbr_mask[i] & new_bits).bit_count()
                if free == 0:
                    score += alpha
                elif rem > free:
                    score += 1.0
        return score

    # ------------------------------------------------------------------
    # placement primitives
    # ------------------------------------------------------------------
    def _place_node(self, node: FGNode, coord: Coord, degree: int) -> None:
        assert self._current is not None
        if not self._free(coord):
            raise RuntimeError(f"cell {coord} already occupied")
        self._occupied[coord] = node
        spec = self._spec
        idx = coord[0] * spec.stride + coord[1]
        claimed = spec.bit[idx]
        self._occ_bits |= claimed
        self._node_bits |= claimed
        fnc = self._fnc
        for ni in spec.nbr_idx[idx]:
            fnc[ni] -= 1
        self._rem_at[idx] = degree
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
        spec = self._spec
        fnc = self._fnc
        for cell in cells:
            self._occupied[cell] = "aux"
            idx = cell[0] * spec.stride + cell[1]
            self._occ_bits |= spec.bit[idx]
            for ni in spec.nbr_idx[idx]:
                fnc[ni] -= 1
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
        place = self.placements.get(node)
        if place is not None and place.layer == len(self.layers) - 1:
            # mirror the remaining degree onto the packed plane
            r, c = place.coord
            self._rem_at[r * self._spec.stride + c] -= count

    def _node_capacity_left(self, node: FGNode) -> int:
        """Photons left on the node's resource state for more fusions."""
        return self.resource_state.size - self._realized.get(node, 0)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _bfs_path(self, start: Coord, goal: Coord) -> Optional[List[Coord]]:
        """Shortest path from *start* to *goal* through free cells.

        ``start`` itself may be occupied (it is the source node's cell),
        and so may ``goal``; every interior cell must be free.  Returns
        the full path including both endpoints, or None.  The search runs
        on the packed frontier kernel, which returns the same
        lexicographically minimal path as a scalar FIFO BFS.
        """
        spec = self._spec
        stride = spec.stride
        idx_path = lexmin_path(
            spec,
            spec.full & ~self._occ_bits,
            start[0] * stride + start[1],
            goal[0] * stride + goal[1],
        )
        if idx_path is None:
            return None
        coords = spec.coord
        return [coords[i] for i in idx_path]

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
        adj = fusion.adj
        self._hints = hints or {}
        self._degree = degree = {v: len(nbrs) for v, nbrs in adj.items()}
        num_edges = sum(degree.values()) // 2
        self._open_layer()
        start_layer = len(self.layers) - 1

        edge_fusions = 0
        synthesis_fusions = 0
        routing_fusions = 0
        deferred: List[Tuple[FGNode, FGNode]] = []

        def count_realized(a: FGNode, b: FGNode) -> None:
            nonlocal edge_fusions, synthesis_fusions
            if adj[a][b] == "chain":
                synthesis_fusions += 1
            else:
                edge_fusions += 1

        pending = _edge_order(adj)
        isolated = [v for v, nbrs in adj.items() if not nbrs]
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
            if guard > 20 * (len(pending) + num_edges + 1) + 1000:
                raise RuntimeError("mapper failed to make progress")
            spill: List[Tuple[FGNode, FGNode]] = []
            for (a, b) in pending:
                outcome = self._realize_edge(a, b)
                if outcome == "edge":
                    count_realized(a, b)
                elif isinstance(outcome, int):
                    count_realized(a, b)
                    routing_fusions += outcome
                elif outcome == "defer":
                    deferred.append((a, b))
                    self._consume_if_placed(a)
                    self._consume_if_placed(b)
                else:  # "spill": retry on a fresh layer
                    spill.append((a, b))
            pending = spill
            if pending:
                self._close_layer()
                self._open_layer()
        self._close_layer()

        return MappingResult(
            layers=self.layers[start_layer:],
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

    def _realize_edge(self, a: FGNode, b: FGNode) -> Union[str, int]:
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
                b, near=self.placements[a].coord, budget_for_edge=False
            )
            return "defer" if placed else "spill"
        if b_old:
            placed = self._place_new_node(
                a, near=self.placements[b].coord, budget_for_edge=False
            )
            return "defer" if placed else "spill"

        if not a_cur and not b_cur:
            # new component (or fresh layer): seed one endpoint
            degree = self._degree
            seed = a if degree[a] >= degree[b] else b
            near = self._hints.get(seed, self._hints.get(a, self._hints.get(b)))
            if not self._place_new_node(seed, near=near, budget_for_edge=False):
                return "spill"
            a_cur, b_cur = self._is_current(a), self._is_current(b)

        if a_cur and b_cur:
            return self._connect_placed(a, b)

        placed_node, new_node = (a, b) if a_cur else (b, a)
        return self._attach_new(placed_node, new_node)

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
        t0 = perf_counter()
        path = self._bfs_path(ca, cb)
        self.stage_seconds["route"] += perf_counter() - t0
        if path is None:
            return "defer"
        interior = path[1:-1]
        self._mark_aux(interior)
        self._consume(a)
        self._consume(b)
        assert self._current is not None
        self._current.paths.append(path)
        return len(path) - 2  # routing fusions beyond the 1 edge fusion

    def _attach_new(self, placed: FGNode, new: FGNode) -> Union[str, int]:
        """Place *new* adjacent to *placed* (directly or via routing)."""
        if self._node_capacity_left(placed) <= 0:
            # port exhausted by routing overhead; hand to shuffling
            if self._place_new_node(
                new, near=self.placements[placed].coord, budget_for_edge=False
            ):
                return "defer"
            return "spill"
        cp = self.placements[placed].coord
        degree = self._degree[new]
        after = {
            placed: self._remaining.get(placed, 0) - 1,
            new: degree - 1,
        }
        # direct candidates: free cells adjacent to the anchor, scored
        # straight off the packed planes.  This inlines _score_candidate
        # for the single-cell case: the area term extends the running
        # bounding rectangle, and each blockage term is two plane reads
        # per neighbour, accumulated in the same U, D, L, R order (hence
        # the same float sum) as the scalar scorer.
        t0 = perf_counter()
        spec = self._spec
        bit = spec.bit
        nbr_idx = spec.nbr_idx
        occ_bits = self._occ_bits
        node_bits = self._node_bits
        fnc = self._fnc
        rem_at = self._rem_at
        alpha = self.alpha
        cp_idx = cp[0] * spec.stride + cp[1]
        after_placed = after[placed]
        rem_new = degree - 1
        assert self._rect is not None  # the anchor is mapped
        x0, y0, x1, y1 = self._rect
        options: List[Tuple[float, Coord, Optional[List[Coord]]]] = []
        coords = spec.coord
        min_direct = min_area = float("inf")
        for s_idx in nbr_idx[cp_idx]:
            if occ_bits & bit[s_idx]:
                continue
            cell = coords[s_idx]
            r, c = cell
            cx0 = r if r < x0 else x0
            cx1 = r if r > x1 else x1
            cy0 = c if c < y0 else y0
            cy1 = c if c > y1 else y1
            score = float((cx1 - cx0 + 1) * (cy1 - cy0 + 1))
            if score < min_area:
                min_area = score
            for p_idx in nbr_idx[s_idx]:
                if not node_bits & bit[p_idx]:
                    continue
                rem = after_placed if p_idx == cp_idx else rem_at[p_idx]
                if rem <= 0:
                    continue
                free = fnc[p_idx] - 1
                if free == 0:
                    score += alpha
                elif rem > free:
                    score += 1.0
            if rem_new > 0:
                free = fnc[s_idx]
                if free == 0:
                    score += alpha
                elif rem_new > free:
                    score += 1.0
            options.append((score, cell, None))
            if score < min_direct:
                min_direct = score
        self.stage_seconds["score"] += perf_counter() - t0
        # routing is triggered when every direct option blocks a node
        # (score carries an alpha term), and skipped when no routed path
        # can win: without a free neighbour the anchor has no path, and
        # the bound of _routed_targets already fails at depth 2
        if (
            options
            and min_direct >= self.alpha
            and min_area + 0.25 <= min_direct
        ):
            radius = 2
            while (
                radius < ROUTE_RADIUS
                and min_area + 0.25 * radius <= min_direct
            ):
                radius += 1
            needed = max(1, min(degree - 1, 3))
            best_so_far = min_direct
            t0 = perf_counter()
            routed = self._routed_targets(cp, needed, radius)
            self.stage_seconds["route"] += perf_counter() - t0
            t0 = perf_counter()
            for path in routed:
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
            self.stage_seconds["score"] += perf_counter() - t0
        if not options:
            return "spill"
        t0 = perf_counter()
        best_opt = options[0]
        for cand in options:
            if cand[0] < best_opt[0] or (
                cand[0] == best_opt[0] and cand[1] < best_opt[1]
            ):
                best_opt = cand
        _, best, path = best_opt
        self._place_node(new, best, degree)
        self._consume(placed)
        self._consume(new)
        assert self._current is not None
        if path is None:
            self._current.paths.append([cp, best])
            self.stage_seconds["place"] += perf_counter() - t0
            return "edge"
        self._mark_aux(path[1:-1])
        self._current.paths.append(path)
        self.stage_seconds["place"] += perf_counter() - t0
        return len(path) - 2

    def _routed_targets(
        self, start: Coord, needed: int, radius: int = ROUTE_RADIUS
    ) -> List[List[Coord]]:
        """Shortest free paths to roomy cells around *start*.

        Routing paths have length >= 2 (at least one auxiliary state), as
        in the paper; each returned path includes both endpoints.  The
        search reaches at most *radius* (``ROUTE_RADIUS`` by default)
        steps out.  The ``ROUTE_TARGETS_LIMIT`` cap is checked once per
        dequeued cell, not per path: a cell dequeued with
        ``ROUTE_TARGETS_LIMIT - 1`` paths found can still add one path per
        neighbour other than its parent, so up to
        ``ROUTE_TARGETS_LIMIT + 2`` paths come back.

        :meth:`_attach_new` derives *radius* per call from an exact lower
        bound; it is not a setting.  A path's first auxiliary cell is a
        free neighbour of *start*, i.e. a direct candidate, so its area
        term is at least ``min_area``, the smallest among the direct
        candidates; a target at depth ``d`` adds the penalty
        ``0.25 * (d - 1)``.  A path is scored only when that bound is
        ``<= min_direct``, the best direct score, so the search stops at
        the deepest ``d`` passing ``min_area + 0.25 * (d - 1) <=
        min_direct``.  Targets come out in non-decreasing depth, so the
        capped result is exactly the prefix of the full one with paths of
        length ``<= radius + 1``, and the paths it drops are ones the
        scoring loop would have skipped.
        """
        results: List[List[Coord]] = []
        spec = self._spec
        stride = spec.stride
        nbr_idx = spec.nbr_idx
        occ_bits = self._occ_bits
        fnc = self._fnc
        bit = spec.bit
        coords = spec.coord
        gen = self._bfs_gen + 1
        self._bfs_gen = gen
        seen = self._bfs_seen
        parent = self._bfs_parent
        depth = self._bfs_depth
        start_idx = start[0] * stride + start[1]
        seen[start_idx] = gen
        parent[start_idx] = -1
        depth[start_idx] = 0
        queue = [start_idx]
        head = 0
        while head < len(queue) and len(results) < ROUTE_TARGETS_LIMIT:
            cur = queue[head]
            head += 1
            cur_depth = depth[cur]
            if cur_depth >= radius:
                continue
            for nxt in nbr_idx[cur]:
                if seen[nxt] == gen or occ_bits & bit[nxt]:
                    continue
                seen[nxt] = gen
                parent[nxt] = cur
                depth[nxt] = cur_depth + 1
                if cur_depth >= 1 and fnc[nxt] >= needed:
                    idx_path = [nxt]
                    back = cur
                    while back != -1:
                        idx_path.append(back)
                        back = parent[back]
                    idx_path.reverse()
                    results.append([coords[i] for i in idx_path])
                queue.append(nxt)
        return results

    def _place_new_node(
        self,
        node: FGNode,
        near: Optional[Coord],
        budget_for_edge: bool,
    ) -> bool:
        """Place a node with no in-layer anchor (seed or stub neighbour)."""
        degree = self._degree[node]
        if near is None:
            near = self._hints.get(node)
        t0 = perf_counter()
        coord = self._find_free_cell_near(near)
        if coord is None:
            self.stage_seconds["place"] += perf_counter() - t0
            return False
        self._place_node(node, coord, degree)
        if budget_for_edge:
            self._consume(node)
        self.stage_seconds["place"] += perf_counter() - t0
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
        spec = self._spec
        near_idx = near[0] * spec.stride + near[1]
        if not self._occ_bits & spec.bit[near_idx] and self._fnc[near_idx] >= 1:
            return near
        # deterministic outward scan: candidates are visited in
        # (manhattan distance, row, column) order — ring d of the packed
        # frontier expansion is exactly the distance-d diamond, and the
        # lowest set bit of a ring is its (row, col)-minimal cell.  The
        # previous spiral BFS broke distance ties by queue insertion
        # order and measured distance through occupied cells only, so
        # the chosen cell depended on the occupancy history rather than
        # the geometry.
        hit = nearest_free(spec, self._occ_bits, near_idx)
        if hit is None:
            return None
        return spec.coord[hit]


#: A fusion-graph adjacency: node -> neighbours (any mapping, such as
#: :attr:`FusionGraph.adj` or an ``nx.Graph``, in node insertion order).
Adjacency = Mapping[FGNode, Mapping[FGNode, object]]


def _bridges_and_components(
    adj: Adjacency,
) -> Tuple[Set[Tuple[FGNode, FGNode]], List[List[FGNode]]]:
    """Both directions of every bridge of *adj*, and its connected
    components (iterative low-link DFS).

    Components come in the order of their first node, as
    ``nx.connected_components`` yields them.  Bridges are a property of
    the graph, so the set holds the same edges as ``nx.bridges`` at a
    fraction of the constant factor — and :func:`_edge_order` only ever
    tests membership, so DFS order is irrelevant.
    """
    index: Dict[FGNode, int] = {}
    low: Dict[FGNode, int] = {}
    bridges: Set[Tuple[FGNode, FGNode]] = set()
    components: List[List[FGNode]] = []
    counter = 0
    for root in adj:
        if root in index:
            continue
        component = [root]
        components.append(component)
        index[root] = low[root] = counter
        counter += 1
        stack = [(root, root, iter(adj[root]))]
        while stack:
            node, parent, neighbors = stack[-1]
            descended = False
            for nbr in neighbors:
                if nbr not in index:
                    index[nbr] = low[nbr] = counter
                    counter += 1
                    component.append(nbr)
                    stack.append((nbr, node, iter(adj[nbr])))
                    descended = True
                    break
                if nbr != parent and index[nbr] < low[node]:
                    low[node] = index[nbr]
            if not descended:
                stack.pop()
                if stack:
                    pnode = stack[-1][0]
                    if low[node] < low[pnode]:
                        low[pnode] = low[node]
                    if low[node] > index[pnode]:
                        bridges.add((pnode, node))
                        bridges.add((node, pnode))
    return bridges, components


def _edge_order(adj: Adjacency) -> List[Tuple[FGNode, FGNode]]:
    """Cycle-prioritized BFS edge order (Sec. 6).

    Edges on cycles come before bridges at each BFS step, because tree
    edges are flexible and can be mapped around a committed cycle layout.
    """
    degree: Dict[FGNode, int] = {v: len(adj[v]) for v in adj}
    if not any(degree.values()):
        return []
    bridge_pairs, components = _bridges_and_components(adj)
    order: List[Tuple[FGNode, FGNode]] = []
    # edge u-w was emitted already iff w was expanded before u
    expanded: Set[FGNode] = set()
    visited: Set[FGNode] = set()
    for comp in sorted(components, key=len, reverse=True):
        start = max(comp, key=lambda v: (degree[v], v))
        visited.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            # cycle edges first, then by degree; w itself breaks ties
            keyed = sorted([
                ((u, w) in bridge_pairs, -degree[w], w) for w in adj[u]
            ])
            for *_, w in keyed:
                if w not in expanded:
                    order.append((u, w))
                if w not in visited:
                    visited.add(w)
                    queue.append(w)
            expanded.add(u)
    return order
