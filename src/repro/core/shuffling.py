"""Inter-layer shuffling (paper Sec. 6, Fig. 10).

Incomplete nodes — nodes whose edges could not all be realized within
their layer — are reconnected on dedicated shuffle layers inserted
between mapped layers.  Pairs are sorted by distance and routed greedily
with shortest paths; when a shuffle layer fills up, another is allocated
(the paper's dynamic layer allocation).

Cost model per connected pair:

* endpoints at the same grid location: one temporal fusion through the
  delay line (no shuffle cells consumed);
* otherwise: two temporal fusions into/out of the shuffle layer plus one
  spatial fusion per path segment; every traversed cell is an auxiliary
  resource state usable by only one path.

Routing runs on bit-packed occupancy planes (:mod:`repro.utils.bitgrid`)
and is pinned bit-identical to the frozen scalar reference
(``tests/core/reference_shuffling.py``) by the v2 equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.utils.bitgrid import lexmin_path, spec_for
from repro.utils.geometry import grid_neighbor_table, manhattan

Coord = Tuple[int, int]


@dataclass
class ShuffleLayer:
    """Occupancy of one shuffle layer.

    ``used`` is the public source of truth and may be seeded externally
    (tests do); the packed occupancy mirror resyncs whenever its size
    disagrees, so cells must be added to ``used``, never swapped in
    place between ``try_route`` calls.
    """

    shape: Tuple[int, int]
    used: Set[Coord] = field(default_factory=set)
    paths: List[List[Coord]] = field(default_factory=list)
    #: cells of ``used`` that are pre-seeded blockades (dead hardware
    #: sites), not consumed resource states — accounting subtracts them
    reserved: int = 0

    def __post_init__(self) -> None:
        self._spec = spec_for(self.shape)
        self._used_bits = 0
        self._synced = 0
        self._resync()

    def _resync(self) -> None:
        spec = self._spec
        bits = 0
        for (r, c) in self.used:
            bits |= spec.bit[r * spec.stride + c]
        self._used_bits = bits
        self._synced = len(self.used)

    def try_route(self, a: Coord, b: Coord) -> Optional[List[Coord]]:
        """Shortest free path from *a* to *b* (inclusive), or None.

        The search runs on the packed frontier kernel and returns the
        same lexicographically minimal shortest path as the scalar FIFO
        BFS it replaced.  ``a == b`` never reaches here:
        :func:`connect_pairs` realizes same-cell pairs as pure temporal
        fusions without a shuffle layer.
        """
        if a in self.used or b in self.used:
            return None
        nbr_table = grid_neighbor_table(self.shape)
        used = self.used
        # exact impossibility guards: skip the BFS flood on layers that
        # cannot host the path (a path needs manhattan+1 free cells, a
        # free cell after *a* and one before *b* unless they are adjacent)
        if b not in nbr_table[a]:
            rows, cols = self.shape
            dist = abs(a[0] - b[0]) + abs(a[1] - b[1])
            if rows * cols - len(used) < dist + 1:
                return None
            if all(p in used for p in nbr_table[a]):
                return None
            if all(p in used for p in nbr_table[b]):
                return None
        if len(used) != self._synced:
            self._resync()
        spec = self._spec
        stride = spec.stride
        idx_path = lexmin_path(
            spec,
            spec.full & ~self._used_bits,
            a[0] * stride + a[1],
            b[0] * stride + b[1],
        )
        if idx_path is None:
            return None
        path = [spec.coord[i] for i in idx_path]
        bits = self._used_bits
        for i in idx_path:
            bits |= spec.bit[i]
        self._used_bits = bits
        self.used.update(path)
        self._synced = len(self.used)
        self.paths.append(path)
        return path


@dataclass
class ShuffleResult:
    """Outcome of connecting one group of node pairs."""

    layers: List[ShuffleLayer]
    fusions: int = 0
    connected: int = 0

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def resource_states(self) -> int:
        """Resource states the routes consume: every used cell except
        the reserved ones, which are dead-site blockades."""
        return sum(len(l.used) - l.reserved for l in self.layers)


def connect_pairs(
    pairs: List[Tuple[Coord, Coord]],
    shape: Tuple[int, int],
    blocked: Optional[Set[Coord]] = None,
) -> ShuffleResult:
    """Connect coordinate pairs on dynamically allocated shuffle layers.

    Pairs are processed in ascending distance order (short paths first
    leave the most room), each on the first layer with a free path.
    ``blocked`` cells (dead hardware sites) pre-seed every allocated
    layer's ``used`` set — paths flow around them and the accounting
    does not bill them as consumed resource states (``reserved``).
    """
    blocked = blocked or set()
    result = ShuffleResult(layers=[])
    for a, b in sorted(pairs, key=lambda p: manhattan(p[0], p[1])):
        if a == b:
            if a in blocked:
                raise RuntimeError(
                    f"pair {a}-{a} needs a temporal fusion on a "
                    "blocked/dead cell"
                )
            # pure temporal connection through a delay line
            result.fusions += 1
            result.connected += 1
            continue
        path = None
        for layer in result.layers:
            path = layer.try_route(a, b)
            if path is not None:
                break
        if path is None:
            layer = ShuffleLayer(
                shape=shape, used=set(blocked), reserved=len(blocked)
            )
            result.layers.append(layer)
            path = layer.try_route(a, b)
            if path is None:
                raise RuntimeError(
                    f"pair {a}-{b} cannot be routed even on an empty "
                    f"{shape} layer"
                )
        # two temporal hops + one fusion per spatial segment
        result.fusions += 2 + (len(path) - 1)
        result.connected += 1
    return result
