"""Inter-layer shuffling (paper Sec. 6, Fig. 10).

FROZEN REFERENCE (do not edit): verbatim snapshot of the scalar
implementation taken immediately before the bit-packed rewrite of the
live module.  tests/core/test_mapping_equivalence_v2.py pins the packed
path bit-identical to this code.

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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.utils.geometry import grid_neighbor_table, manhattan

Coord = Tuple[int, int]


@dataclass
class ShuffleLayer:
    """Occupancy of one shuffle layer."""

    shape: Tuple[int, int]
    used: Set[Coord] = field(default_factory=set)
    paths: List[List[Coord]] = field(default_factory=list)

    def _neighbors(self, coord: Coord) -> List[Coord]:
        return grid_neighbor_table(self.shape)[coord]

    def try_route(self, a: Coord, b: Coord) -> Optional[List[Coord]]:
        """Shortest free path from *a* to *b* (inclusive), or None.

        ``a == b`` never reaches here: :func:`connect_pairs` realizes
        same-cell pairs as pure temporal fusions without a shuffle layer.
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
        queue = deque([a])
        pop = queue.popleft
        push = queue.append
        parent: Dict[Coord, Optional[Coord]] = {a: None}
        while queue:
            cur = pop()
            for nxt in nbr_table[cur]:
                if nxt in parent or nxt in used:
                    continue
                parent[nxt] = cur
                if nxt == b:
                    path = [b]
                    back = cur
                    while back is not None:
                        path.append(back)
                        back = parent[back]
                    path.reverse()
                    self.used.update(path)
                    self.paths.append(path)
                    return path
                push(nxt)
        return None


@dataclass
class ShuffleResult:
    """Outcome of connecting one group of node pairs."""

    layers: List[ShuffleLayer]
    fusions: int = 0
    connected: int = 0

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def connect_pairs(
    pairs: List[Tuple[Coord, Coord]], shape: Tuple[int, int]
) -> ShuffleResult:
    """Connect coordinate pairs on dynamically allocated shuffle layers.

    Pairs are processed in ascending distance order (short paths first
    leave the most room), each on the first layer with a free path.
    """
    result = ShuffleResult(layers=[])
    for a, b in sorted(pairs, key=lambda p: manhattan(p[0], p[1])):
        if a == b:
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
            layer = ShuffleLayer(shape=shape)
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
