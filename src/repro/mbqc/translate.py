"""Circuit -> measurement-pattern translation.

Implements the standard Broadbent-Kashefi style translation from the
universal gate set ``{J(alpha), CZ}`` (paper Sec. 2.2.1):

* ``J(alpha)`` on a wire appends a fresh node entangled with the wire's
  current node, measures the current node at nominal angle ``-alpha`` and
  leaves an ``X`` byproduct (dependent on the outcome) on the new node;
* ``CZ`` adds an edge between the two wires' current nodes.

Pending byproducts are tracked symbolically as XOR-sets of outcome
sources and folded into measurement angles ("postponing corrections"),
which yields exactly the X-/Z-dependencies of Sec. 4.
"""

from __future__ import annotations

from typing import Dict, Set

import networkx as nx

from repro.circuit.circuit import Circuit
from repro.circuit.library import jcz_ops
from repro.mbqc.pattern import MeasurementPattern
from repro.utils.angles import normalize_angle


def circuit_to_pattern(circuit: Circuit, simplify: bool = True) -> MeasurementPattern:
    """Translate *circuit* into an equivalent measurement pattern.

    The resulting pattern, executed on input nodes holding ``|0...0>``,
    produces the circuit's output state on its output nodes up to the
    recorded Pauli byproducts (see :mod:`repro.sim.pattern_sim`).  It
    consumes the ``{j, cz}`` op tuples of :func:`jcz_ops` directly.

    >>> from repro.circuit.circuit import Circuit
    >>> pattern = circuit_to_pattern(Circuit(2).h(0).cx(0, 1))
    >>> pattern.num_nodes, pattern.num_edges, pattern.outputs
    (5, 4, (2, 4))
    """
    n = circuit.num_qubits

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    cur: Dict[int, int] = {wire: wire for wire in range(n)}
    wire_of: Dict[int, int] = dict(cur)
    next_node = n
    inputs = tuple(range(n))

    # Pending byproducts per live node, as XOR-sets of measured sources.
    pend_x: Dict[int, Set[int]] = {v: set() for v in cur.values()}
    pend_z: Dict[int, Set[int]] = {v: set() for v in cur.values()}

    angles: Dict[int, float] = {}
    x_deps: Dict[int, frozenset] = {}
    z_deps: Dict[int, frozenset] = {}
    sequence = []

    for name, qubits, alpha in jcz_ops(circuit, simplify=simplify):
        if name == "j":
            wire = qubits[0]
            u = cur[wire]
            v = next_node
            next_node += 1
            # v is fresh, so the E_{uv} toggle always adds the edge
            graph.add_edge(u, v)
            wire_of[v] = wire
            # E_{uv} commutation: a pending X on u becomes a Z on v.
            pend_z[v] = set(pend_x[u])
            # Measure u at nominal angle -alpha, absorbing u's pendings
            # into its dependency sets.
            angles[u] = normalize_angle(-alpha)
            x_deps[u] = frozenset(pend_x.pop(u))
            z_deps[u] = frozenset(pend_z.pop(u))
            sequence.append(u)
            # New byproduct: X^{s_u} on the successor node.
            pend_x[v] = {u}
            cur[wire] = v
        else:  # cz
            a, b = qubits
            u, w = cur[a], cur[b]
            _toggle_edge(graph, u, w)
            # CZ commutation: pending X on one side becomes Z on the other.
            pend_z[w] ^= pend_x[u]
            pend_z[u] ^= pend_x[w]

    outputs = tuple(cur[wire] for wire in range(n))
    output_x = {v: frozenset(pend_x[v]) for v in outputs}
    output_z = {v: frozenset(pend_z[v]) for v in outputs}

    return MeasurementPattern(
        graph=graph,
        inputs=inputs,
        outputs=outputs,
        angles=angles,
        x_deps=x_deps,
        z_deps=z_deps,
        output_x=output_x,
        output_z=output_z,
        wire_of=wire_of,
        sequence=tuple(sequence),
    )


def _toggle_edge(graph: nx.Graph, u: int, v: int) -> None:
    """CZ is an involution: add the edge, or remove it if present."""
    if graph.has_edge(u, v):
        graph.remove_edge(u, v)
    else:
        graph.add_edge(u, v)
