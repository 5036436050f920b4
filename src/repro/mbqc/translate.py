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

from array import array
from typing import Dict, List, Set

from repro.circuit.circuit import Circuit
from repro.circuit.library import jcz_ops
from repro.mbqc.pattern import (
    DependencyMap,
    MeasurementPattern,
    PatternGraph,
    ValueMap,
)
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
    cur: List[int] = list(range(n))
    wire_of = array("i", range(n))
    inputs = tuple(range(n))

    # Each node's neighbours in the order their edges were last added: a
    # CZ toggle removes or appends, so a re-added edge moves to the end,
    # exactly as in networkx's adjacency dicts.
    nbrs: List[List[int]] = [[] for _ in range(n)]

    # Pending byproducts per live node, as XOR-sets of measured sources.
    pend_x: Dict[int, Set[int]] = {v: set() for v in cur}
    pend_z: Dict[int, Set[int]] = {v: set() for v in cur}

    # Per node: angle, and X/Z row lengths; the rows themselves go back
    # to back into flat arrays in measurement order.
    angles = array("d", bytes(8 * n))
    x_count = array("i", bytes(4 * n))
    z_count = array("i", bytes(4 * n))
    x_flat = array("i")
    z_flat = array("i")
    sequence: List[int] = []

    for name, qubits, alpha in jcz_ops(circuit, simplify=simplify):
        if name == "j":
            wire = qubits[0]
            u = cur[wire]
            v = len(wire_of)
            wire_of.append(wire)
            angles.append(0.0)
            x_count.append(0)
            z_count.append(0)
            # v is fresh, so the E_{uv} toggle always adds the edge
            nbrs[u].append(v)
            nbrs.append([u])
            # E_{uv} commutation: a pending X on u becomes a Z on v.
            pend_z[v] = set(pend_x[u])
            # Measure u at nominal angle -alpha, absorbing u's pendings
            # into its dependency rows.
            angles[u] = normalize_angle(-alpha)
            row = sorted(pend_x.pop(u))
            x_count[u] = len(row)
            x_flat.extend(row)
            row = sorted(pend_z.pop(u))
            z_count[u] = len(row)
            z_flat.extend(row)
            sequence.append(u)
            # New byproduct: X^{s_u} on the successor node.
            pend_x[v] = {u}
            cur[wire] = v
        else:  # cz
            a, b = qubits
            u, w = cur[a], cur[b]
            # CZ is an involution: add the edge, or remove it if present.
            if w in nbrs[u]:
                nbrs[u].remove(w)
                nbrs[w].remove(u)
            else:
                nbrs[u].append(w)
                nbrs[w].append(u)
            # CZ commutation: pending X on one side becomes Z on the other.
            pend_z[w] ^= pend_x[u]
            pend_z[u] ^= pend_x[w]

    num_nodes = len(wire_of)
    graph = PatternGraph.from_neighbors(nbrs)
    del nbrs  # the per-node lists go before the dependency CSR is laid out
    outputs = tuple(cur)
    output_x = {v: frozenset(pend_x[v]) for v in outputs}
    output_z = {v: frozenset(pend_z[v]) for v in outputs}

    measured = bytearray(b"\x01") * num_nodes
    for v in outputs:
        measured[v] = 0
    keys = tuple(sequence)
    return MeasurementPattern(
        graph=graph,
        inputs=inputs,
        outputs=outputs,
        angles=ValueMap(angles, keys, measured),
        x_deps=DependencyMap.from_rows(keys, measured, x_count, x_flat),
        z_deps=DependencyMap.from_rows(keys, measured, z_count, z_flat),
        output_x=output_x,
        output_z=output_z,
        wire_of=ValueMap(wire_of, range(num_nodes), bytearray(b"\x01") * num_nodes),
        sequence=keys,
    )
