"""Causal flow / gflow determinism certification (Mhalla & Perdrix).

A measurement pattern is *uniformly deterministic* — every outcome
branch produces the same output state, for any input — exactly when its
open graph ``(G, I, O)`` admits a generalized flow (Browne, Kashefi,
Mhalla & Perdrix; PAPERS.md).  This module implements the two
polynomial-time existence algorithms of Mhalla & Perdrix for patterns
measured on the X-Y equator (the only plane this codebase's translator
emits):

* :func:`find_causal_flow` — causal flow, the structure the
  Broadbent-Kashefi translation in :mod:`repro.mbqc.translate` produces
  by construction: a successor function ``f`` with ``u ~ f(u)`` where
  measuring ``u`` is repaired by ``X`` on ``f(u)`` and ``Z`` on the
  other neighbours of ``f(u)``;
* :func:`find_gflow` — generalized flow, where the repair is a *set*
  ``g(u)`` of later vertices with ``Odd(g(u))`` intersecting the
  unmeasured region exactly in ``{u}``; found layer by layer with GF(2)
  Gaussian elimination over the adjacency submatrix.

:func:`certify_pattern` packages the search as a
:class:`DeterminismCertificate` — either a proof (flow kind + layer
assignment + correction function) or a localized counterexample
(:class:`FlowViolation`: the stalled vertex set and the violated
condition).  The linter (:mod:`repro.analysis.lint`) additionally diffs
the pattern's recorded feed-forward sets against the flow-induced ones
(:func:`flow_corrections`), which is what catches a dropped correction
statically.

Layer convention: layer 0 contains the outputs; higher layers are
measured *earlier*.  A valid measurement order processes layers in
decreasing index (``depth`` down to 1), which matches the partial order
``u < f(u)`` of the flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.mbqc.pattern import GraphLike, MeasurementPattern

#: Correction maps keyed by node: which measured sources feed the X / Z
#: repair of that node (the shape of ``MeasurementPattern.x_deps``).
CorrectionMap = Dict[int, FrozenSet[int]]


@dataclass(frozen=True)
class FlowViolation:
    """Localized counterexample: why no flow/gflow exists.

    Attributes:
        node: a canonical stalled vertex (the smallest), or ``None``
            when the failure is structural (e.g. an output inside the
            measured set).
        condition: the violated flow condition, in words.
        stalled: every vertex that could not be assigned a correction
            when the search reached a fixed point.
    """

    node: Optional[int]
    condition: str
    stalled: Tuple[int, ...] = ()


@dataclass
class DeterminismCertificate:
    """Result of one :func:`certify_pattern` call.

    Attributes:
        ok: a flow or gflow exists — the open graph supports a uniformly
            deterministic pattern.
        kind: ``"flow"`` (causal flow), ``"gflow"`` (generalized flow
            only), or ``"none"``.
        depth: number of correction layers (0 for output-only graphs);
            the feed-forward critical path implied by the flow.
        layer_of: node -> layer index (outputs at 0, earlier-measured
            nodes higher).
        successor: the causal-flow successor function ``f`` (empty for
            gflow-only certificates).
        corrector: node -> correction set ``g(u)`` (for causal flow,
            ``{f(u)}``).
        violation: the counterexample when ``ok`` is false.
    """

    ok: bool
    kind: str
    depth: int
    layer_of: Dict[int, int] = field(default_factory=dict)
    successor: Dict[int, int] = field(default_factory=dict)
    corrector: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    violation: Optional[FlowViolation] = None

    def summary(self) -> str:
        if self.ok:
            return (
                f"deterministic ({self.kind}, {self.depth} correction "
                f"layer{'s' if self.depth != 1 else ''}, "
                f"{len(self.corrector)} corrected nodes)"
            )
        assert self.violation is not None
        detail = self.violation.condition
        if self.violation.node is not None:
            detail = f"node {self.violation.node}: {detail}"
        return f"no determinism certificate ({detail})"


def _structural_violation(
    graph: GraphLike, inputs: Sequence[int], outputs: Sequence[int]
) -> Optional[FlowViolation]:
    """Sanity conditions any open graph must satisfy before a search."""
    nodes = set(graph.nodes())
    for name, group in (("input", inputs), ("output", outputs)):
        missing = [v for v in group if v not in nodes]
        if missing:
            return FlowViolation(
                node=missing[0],
                condition=f"{name} node is not a vertex of the graph",
                stalled=tuple(missing),
            )
    if len(set(outputs)) != len(outputs):
        return FlowViolation(
            node=None, condition="duplicate output node", stalled=()
        )
    return None


def find_causal_flow(
    graph: GraphLike,
    inputs: Sequence[int],
    outputs: Sequence[int],
) -> Optional[Tuple[Dict[int, int], Dict[int, int]]]:
    """Find a causal flow of the open graph, or ``None``.

    Returns ``(f, layer_of)``: the successor function over measured
    (non-output) vertices and the layer assignment (outputs at layer 0).
    Mhalla & Perdrix's round-based algorithm: a processed non-input
    vertex with exactly one unprocessed neighbour corrects that
    neighbour; repeat until everything is processed or no round makes
    progress.
    """
    nodes = set(graph.nodes())
    processed: Set[int] = set(outputs)
    correctors: Set[int] = set(outputs) - set(inputs)
    f: Dict[int, int] = {}
    layer_of: Dict[int, int] = {v: 0 for v in outputs}
    k = 1
    while processed != nodes:
        claimed: Dict[int, int] = {}
        used: Set[int] = set()
        for c in sorted(correctors):
            unprocessed = [u for u in graph.neighbors(c) if u not in processed]
            if len(unprocessed) == 1:
                u = unprocessed[0]
                if u not in claimed:
                    claimed[u] = c
                    used.add(c)
        if not claimed:
            return None
        for u, c in claimed.items():
            f[u] = c
            layer_of[u] = k
        processed |= set(claimed)
        correctors = (correctors - used) | {
            u for u in claimed if u not in inputs
        }
        k += 1
    return f, layer_of


# ----------------------------------------------------------------------
# GF(2) elimination for gflow
# ----------------------------------------------------------------------
def _gf2_solvable(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Which columns ``b`` of *B* satisfy ``A x = b`` over GF(2).

    *A* is ``(m, n)`` uint8, *B* is ``(m, t)`` uint8; returns a ``(t,)``
    boolean mask.  One forward elimination over the stacked ``[A | B]``
    system answers all targets at once: ``b`` is solvable iff it has no
    support on rows where ``A`` was eliminated to zero.
    """
    A = A.copy()
    B = B.copy()
    m, n = A.shape
    pivot_row = 0
    for col in range(n):
        if pivot_row >= m:
            break
        rows = np.nonzero(A[pivot_row:, col])[0]
        if rows.size == 0:
            continue
        target = pivot_row + int(rows[0])
        if target != pivot_row:
            A[[pivot_row, target]] = A[[target, pivot_row]]
            B[[pivot_row, target]] = B[[target, pivot_row]]
        elim = np.nonzero(A[:, col])[0]
        elim = elim[elim != pivot_row]
        if elim.size:
            A[elim] ^= A[pivot_row]
            B[elim] ^= B[pivot_row]
        pivot_row += 1
    # rows from pivot_row on have A == 0: any residual B support there
    # makes the system inconsistent for that target
    if pivot_row >= m:
        return np.ones(B.shape[1], dtype=bool)
    return ~np.any(B[pivot_row:], axis=0)


def _gf2_solve(A: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """One solution ``x`` of ``A x = b`` over GF(2), or ``None``."""
    A = A.copy()
    b = b.copy()
    m, n = A.shape
    pivots: List[Tuple[int, int]] = []
    pivot_row = 0
    for col in range(n):
        if pivot_row >= m:
            break
        rows = np.nonzero(A[pivot_row:, col])[0]
        if rows.size == 0:
            continue
        target = pivot_row + int(rows[0])
        if target != pivot_row:
            A[[pivot_row, target]] = A[[target, pivot_row]]
            b[[pivot_row, target]] = b[[target, pivot_row]]
        elim = np.nonzero(A[:, col])[0]
        elim = elim[elim != pivot_row]
        if elim.size:
            A[elim] ^= A[pivot_row]
            b[elim] ^= b[pivot_row]
        pivots.append((pivot_row, col))
        pivot_row += 1
    if pivot_row < m and np.any(b[pivot_row:]):
        return None
    x = np.zeros(n, dtype=np.uint8)
    for row, col in pivots:
        x[col] = b[row]
    return x


def find_gflow(
    graph: GraphLike,
    inputs: Sequence[int],
    outputs: Sequence[int],
) -> Optional[Tuple[Dict[int, FrozenSet[int]], Dict[int, int]]]:
    """Find a gflow of the open graph (all X-Y plane), or ``None``.

    Returns ``(g, layer_of)``: the correction-set function over measured
    vertices and the layer assignment.  Layer by layer (Mhalla &
    Perdrix): an unprocessed vertex ``u`` joins the next layer when some
    ``K`` of processed non-input vertices has odd neighbourhood
    intersecting the unprocessed region exactly in ``{u}`` — a GF(2)
    linear system over the bipartite adjacency submatrix.
    """
    nodes = sorted(graph.nodes())
    processed: Set[int] = set(outputs)
    g: Dict[int, FrozenSet[int]] = {}
    layer_of: Dict[int, int] = {v: 0 for v in outputs}
    input_set = set(inputs)
    k = 1
    while processed != set(nodes):
        unprocessed = sorted(v for v in nodes if v not in processed)
        candidates = sorted(v for v in processed if v not in input_set)
        found: Dict[int, FrozenSet[int]] = {}
        if candidates:
            row_of = {v: i for i, v in enumerate(unprocessed)}
            A = np.zeros((len(unprocessed), len(candidates)), dtype=np.uint8)
            for j, c in enumerate(candidates):
                for nbr in graph.neighbors(c):
                    i = row_of.get(nbr)
                    if i is not None:
                        A[i, j] ^= 1
            B = np.eye(len(unprocessed), dtype=np.uint8)
            solvable = _gf2_solvable(A, B)
            for i, u in enumerate(unprocessed):
                if not solvable[i]:
                    continue
                x = _gf2_solve(A, B[:, i])
                assert x is not None  # solvable mask said so
                found[u] = frozenset(
                    candidates[j] for j in np.nonzero(x)[0]
                )
        if not found:
            return None
        for u, K in found.items():
            g[u] = K
            layer_of[u] = k
        processed |= set(found)
        k += 1
    return g, layer_of


def flow_corrections(
    graph: GraphLike,
    outputs: Sequence[int],
    successor: Dict[int, int],
) -> Tuple[CorrectionMap, CorrectionMap]:
    """Feed-forward sets induced by a causal flow.

    Measuring ``u`` is repaired by ``X^{s_u}`` on ``f(u)`` and
    ``Z^{s_u}`` on ``N(f(u)) \\ {u}``; accumulating over all measured
    vertices gives, per node ``v``, the XOR-set of outcome sources whose
    parity flips the sign (``x``) or adds pi (``z``) — exactly the shape
    of ``MeasurementPattern.x_deps`` / ``z_deps`` (and ``output_x`` /
    ``output_z`` on output nodes).  The Broadbent-Kashefi translator
    produces precisely these sets, so a compiled pattern whose recorded
    sets differ from the flow-induced ones has lost (or invented) a
    correction.
    """
    x_sources: Dict[int, Set[int]] = {v: set() for v in graph.nodes()}
    z_sources: Dict[int, Set[int]] = {v: set() for v in graph.nodes()}
    for u, v in successor.items():
        x_sources[v] ^= {u}
        for w in graph.neighbors(v):
            if w != u:
                z_sources[w] ^= {u}
    x_map = {v: frozenset(s) for v, s in x_sources.items()}
    z_map = {v: frozenset(s) for v, s in z_sources.items()}
    return x_map, z_map


def certify_pattern(pattern: MeasurementPattern) -> DeterminismCertificate:
    """Certify determinism of *pattern*'s open graph, or localize why not.

    Tries causal flow first (the structure the translator emits), then
    general gflow.  A certificate proves the open graph supports a
    uniformly deterministic X-Y pattern — it says nothing about *which*
    unitary the pattern implements (that is dynamic verification's job,
    :func:`repro.core.validate.verify_pattern`).
    """
    graph = pattern.graph
    structural = _structural_violation(graph, pattern.inputs, pattern.outputs)
    if structural is not None:
        return DeterminismCertificate(
            ok=False, kind="none", depth=0, violation=structural
        )
    flow = find_causal_flow(graph, pattern.inputs, pattern.outputs)
    if flow is not None:
        f, layer_of = flow
        return DeterminismCertificate(
            ok=True,
            kind="flow",
            depth=max(layer_of.values(), default=0),
            layer_of=layer_of,
            successor=f,
            corrector={u: frozenset((v,)) for u, v in f.items()},
        )
    gflow = find_gflow(graph, pattern.inputs, pattern.outputs)
    if gflow is not None:
        g, layer_of = gflow
        return DeterminismCertificate(
            ok=True,
            kind="gflow",
            depth=max(layer_of.values(), default=0),
            layer_of=layer_of,
            corrector=g,
        )
    # localize: rerun the gflow search one layer to collect the stall set
    stalled = _stalled_vertices(graph, pattern.inputs, pattern.outputs)
    node = min(stalled) if stalled else None
    return DeterminismCertificate(
        ok=False,
        kind="none",
        depth=0,
        violation=FlowViolation(
            node=node,
            condition=(
                "no correction set over measured-later vertices has odd "
                "neighbourhood isolating this vertex (gflow condition "
                "(g2)/(g3) for the X-Y plane)"
            ),
            stalled=tuple(stalled),
        ),
    )


def _stalled_vertices(
    graph: GraphLike, inputs: Sequence[int], outputs: Sequence[int]
) -> List[int]:
    """The unprocessed set at the gflow search's fixed point."""
    nodes = sorted(graph.nodes())
    processed: Set[int] = set(outputs)
    input_set = set(inputs)
    while True:
        unprocessed = sorted(v for v in nodes if v not in processed)
        if not unprocessed:
            return []
        candidates = sorted(v for v in processed if v not in input_set)
        found: Set[int] = set()
        if candidates:
            row_of = {v: i for i, v in enumerate(unprocessed)}
            A = np.zeros((len(unprocessed), len(candidates)), dtype=np.uint8)
            for j, c in enumerate(candidates):
                for nbr in graph.neighbors(c):
                    i = row_of.get(nbr)
                    if i is not None:
                        A[i, j] ^= 1
            solvable = _gf2_solvable(A, np.eye(len(unprocessed), dtype=np.uint8))
            found = {u for i, u in enumerate(unprocessed) if solvable[i]}
        if not found:
            return unprocessed
        processed |= found
