"""Bit-packed grid planes: word-parallel kernels for the compile path.

A grid occupancy set is packed into one Python integer (an arbitrary-
precision *bitboard*): cell ``(r, c)`` lives at bit ``r * stride + c``
with ``stride = cols + 1``.  The extra **guard column** keeps the four
neighbour shifts from wrapping between rows — shifting a bit off the
left edge lands it in the previous row's guard bit, which every kernel
masks away with ``full`` (the set of real cells).  One shift/OR/AND
sequence therefore advances a whole BFS frontier at once, and
``int.bit_count()`` evaluates set sizes word-parallel — the compile-side
analogue of the packed rows in :mod:`repro.sim.stabilizer`.

The routing kernel :func:`lexmin_path` reproduces the scalar FIFO BFS of
the seed mapper/shuffler **bit for bit**.  The scalar search expands
neighbours in U, D, L, R order and lets the first claimer of a cell keep
it, which makes the returned path the lexicographically minimal
direction string (priority ``U < D < L < R``) among all shortest paths:
within one BFS depth the queue is ordered by that string, so the first
parent that reaches the goal carries the minimal prefix.  The packed
kernel recovers exactly that path from one *backward* BFS flood: walking
from the start and taking, at each step ``k``, the smallest direction
whose cell sits at backward depth ``L - k - 1`` — greedy by direction is
lexicographic by construction, the level planes guarantee the walk never
dead-ends, and a forward flood is unnecessary: a free cell adjacent to
the walk position (forward depth ``k``) with backward depth
``L - k - 1`` is automatically at forward depth exactly ``k + 1``, since
any shorter route to it would yield a start-goal path shorter than
``L``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

Coord = Tuple[int, int]


class BitGridSpec:
    """Precomputed packing tables for one grid shape (cached, shared).

    Attributes:
        rows / cols: grid shape.
        stride: bits per packed row (``cols + 1``; one guard bit).
        nbits: total packed length (``rows * stride``).
        full: bitboard of every real cell (guard column clear).
        bit: per-index single-bit masks (``bit[i] == 1 << i``).
        nbr_idx: in-bounds neighbour indices per cell index in U, D, L, R
            order — the same order as
            :func:`repro.utils.geometry.grid_neighbor_table`.
        nbr_mask: OR of each cell's neighbour bits (popcount against an
            occupancy plane counts blocked neighbours word-parallel).
        coord: per-index ``(row, col)`` tuples (avoids a divmod per
            unpacked cell on hot paths; guard slots hold their divmod
            value and are never looked up).
        free0: initial free-neighbour count per cell index on an empty
            grid (2 at corners, 3 on edges, 4 in the interior).
    """

    __slots__ = ("rows", "cols", "stride", "nbits", "full", "bit",
                 "nbr_idx", "nbr_mask", "coord", "free0")

    def __init__(self, shape: Coord) -> None:
        rows, cols = shape
        if rows < 1 or cols < 1:
            raise ValueError("grid shape must be positive")
        self.rows = rows
        self.cols = cols
        stride = cols + 1
        self.stride = stride
        self.nbits = rows * stride
        full = 0
        for r in range(rows):
            full |= ((1 << cols) - 1) << (r * stride)
        self.full = full
        self.bit: List[int] = [1 << i for i in range(self.nbits)]
        nbr_idx: List[Tuple[int, ...]] = []
        free0: List[int] = []
        for r in range(rows):
            for c in range(cols):
                nbrs = tuple(
                    rr * stride + cc
                    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                    if 0 <= rr < rows and 0 <= cc < cols
                )
                nbr_idx.append(nbrs)
                free0.append(len(nbrs))
            nbr_idx.append(())  # guard slot
            free0.append(0)
        self.nbr_idx = nbr_idx
        self.nbr_mask: List[int] = [
            sum(1 << j for j in nbrs) for nbrs in nbr_idx
        ]
        self.coord: List[Coord] = [
            divmod(i, stride) for i in range(self.nbits)
        ]
        self.free0 = free0

    def index_of(self, coord: Coord) -> int:
        return coord[0] * self.stride + coord[1]


@lru_cache(maxsize=None)
def spec_for(shape: Coord) -> BitGridSpec:
    """The (cached) packing spec for *shape*."""
    return BitGridSpec(shape)


def expand(spec: BitGridSpec, mask: int) -> int:
    """All real cells 4-adjacent to *mask* (the BFS frontier step)."""
    stride = spec.stride
    return (
        (mask >> stride) | (mask << stride) | (mask >> 1) | (mask << 1)
    ) & spec.full


def lexmin_path(
    spec: BitGridSpec,
    free: int,
    start: int,
    goal: int,
    max_len: Optional[int] = None,
) -> Optional[List[int]]:
    """Shortest *start* → *goal* path with free interior, or ``None``.

    ``free`` is the bitboard of traversable cells; ``start`` and
    ``goal`` themselves may be occupied (they are endpoints, not
    interior).  ``max_len`` bounds the path length in steps (a scalar
    BFS that refuses to expand nodes at depth ``max_len`` finds the goal
    only at depth ``<= max_len``).  The returned index path includes
    both endpoints and is the lexicographically minimal direction string
    among all shortest paths (see module docstring), i.e. exactly the
    path the seed scalar BFS returns.
    """
    stride = spec.stride
    full = spec.full
    start_bit = 1 << start
    # backward BFS level planes: rlevels[i] = free cells at distance i
    # from the goal (the start, like the goal, may be non-free, so it is
    # detected at frontier generation before the free mask applies)
    rfrontier = 1 << goal
    rreach = rfrontier
    rlevels = [rfrontier]
    depth = 0
    while True:
        if max_len is not None and depth >= max_len:
            return None
        gen = (
            (rfrontier >> stride) | (rfrontier << stride)
            | (rfrontier >> 1) | (rfrontier << 1)
        ) & full
        if gen & start_bit:
            length = depth + 1
            break
        rfrontier = gen & free & ~rreach
        if not rfrontier:
            return None
        rlevels.append(rfrontier)
        rreach |= rfrontier
        depth += 1
    if length == 1:
        return [start, goal]
    bit = spec.bit
    nbits = spec.nbits
    path = [start]
    cur = start
    for step in range(1, length):
        want = rlevels[length - step]
        for delta in (-stride, stride, -1, 1):  # U, D, L, R
            nxt = cur + delta
            if 0 <= nxt < nbits and want & bit[nxt]:
                cur = nxt
                break
        else:  # pragma: no cover - level-plane invariant
            raise RuntimeError("lexmin walk left the shortest-path planes")
        path.append(cur)
    path.append(goal)
    return path


def nearest_free(spec: BitGridSpec, occupied: int, center: int) -> Optional[int]:
    """Nearest free cell to *center* by (manhattan distance, row, col).

    Scans expanding distance rings (the ring at step ``d`` of repeated
    frontier expansion over all in-bounds cells is exactly the set of
    cells at manhattan distance ``d`` — the grid rectangle is convex);
    within the first ring holding a free cell the lowest set bit is the
    (row, col)-minimal coordinate.  ``center`` itself is never returned.
    """
    stride = spec.stride
    full = spec.full
    free = full & ~occupied
    reach = 1 << center
    while True:
        grown = (
            reach
            | (reach >> stride) | (reach << stride)
            | (reach >> 1) | (reach << 1)
        ) & full
        ring = grown & ~reach
        if not ring:
            return None
        hit = ring & free
        if hit:
            return ((hit & -hit).bit_length()) - 1
        reach = grown
