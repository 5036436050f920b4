"""The resource-state zoo (paper Sec. 2.1, 7.2).

Practical photonic hardware emits small, *identical* entangled states
every clock cycle.  The paper evaluates four shapes: the 3-qubit line
(GHZ-class), 4-qubit line, 4-qubit star and 4-qubit ring.  A resource
state's two numbers that matter to the compiler are its *size* (photons —
each fusion permanently consumes one) and its *max degree* (how connected
a single photon can be, which bounds how fast high-degree graph nodes can
be synthesized).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import networkx as nx


@dataclass(frozen=True)
class ResourceStateType:
    """An immutable description of the hardware's emitted resource state.

    The compiler sees a resource state only through :attr:`size` and
    :attr:`max_degree` (synthesis costs, fusion capacity, photon
    counts); ``edges`` beyond the maximum degree change nothing.  The
    4-line and the 4-ring are both ``(4, 2)``, so they compile to the
    same program: the Fig. 12 run table has identical 4-line and 4-ring
    rows.
    """

    name: str
    size: int
    edges: Tuple[Tuple[int, int], ...]

    def graph(self) -> nx.Graph:
        """The entanglement graph of one resource state."""
        g = nx.Graph()
        g.add_nodes_from(range(self.size))
        g.add_edges_from(self.edges)
        return g

    @cached_property
    def max_degree(self) -> int:
        """The largest degree of a qubit in the state (computed once)."""
        degree: Dict[int, int] = {q: 0 for q in range(self.size)}
        for u, v in self.edges:
            degree[u] += 1
            degree[v] += 1
        return max(degree.values())

    # ------------------------------------------------------------------
    # synthesis accounting (paper Sec. 5)
    # ------------------------------------------------------------------
    def states_for_degree(self, degree: int) -> int:
        """Resource states needed to synthesize a degree-*degree* node.

        Exact port-counting recurrence for the degree-increment pattern
        (Fig. 7a/8): the first state exposes ``m`` ports (its max-degree
        qubit is the synthesized node) and each further state trades one
        port for ``m`` new ones, a net gain of ``m - 1``.  For 3-qubit
        lines this gives the paper's ``n - 1`` exactly; for max degree
        ``m > 2`` it matches the paper's approximate ``n // m + 1`` on
        all the degrees arising in the evaluation and is exact beyond.
        """
        if degree <= 0:
            return 1
        m = self.max_degree
        if degree <= m:
            return 1
        # smallest k with m + (k - 1) * (m - 1) >= degree
        return 1 + -(-(degree - m) // (m - 1))

    def states_for_line(self, length: int) -> int:
        """Resource states to synthesize an *length*-node line.

        Line extension (Fig. 7b) joins two lines and loses two photons:
        ``k`` states of size ``s`` give a ``k*(s-2) + 2`` node line.
        """
        if length <= 2:
            return 1
        span = self.size - 2
        if span <= 0:  # pragma: no cover - all our states have size >= 3
            raise ValueError("resource state too small for line synthesis")
        return max(1, -(-(length - 2) // span))

    def fusion_capacity(self) -> int:
        """Max fusions a single resource state can participate in.

        Each fusion destroys one photon of the state, so the capacity is
        simply its photon count.
        """
        return self.size


#: The four shapes evaluated in the paper (Fig. 12).
THREE_LINE = ResourceStateType("3-line", 3, ((0, 1), (1, 2)))
FOUR_LINE = ResourceStateType("4-line", 4, ((0, 1), (1, 2), (2, 3)))
FOUR_STAR = ResourceStateType("4-star", 4, ((0, 1), (0, 2), (0, 3)))
FOUR_RING = ResourceStateType("4-ring", 4, ((0, 1), (1, 2), (2, 3), (3, 0)))

RESOURCE_STATES: Dict[str, ResourceStateType] = {
    rst.name: rst
    for rst in (THREE_LINE, FOUR_LINE, FOUR_STAR, FOUR_RING)
}


def get_resource_state(name: str) -> ResourceStateType:
    """Look up a resource-state type by its paper name (e.g. ``"3-line"``)."""
    try:
        return RESOURCE_STATES[name]
    except KeyError:
        raise ValueError(
            f"unknown resource state {name!r}; "
            f"available: {sorted(RESOURCE_STATES)}"
        ) from None
