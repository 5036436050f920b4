"""Executability analysis: Lemma 1 and dependency layers (paper Sec. 4).

A measurement is *executable* once all of its X-dependency sources are
measured and all Z-dependency sources of those X-dependency sources are
measured (Lemma 1).  Z-dependencies of the node itself never block
execution: flipping an angle by ``pi`` merely relabels the two outcomes.
Pauli-basis measurements are never adaptive, so all Clifford measurements
land in the first dependency layer — the paper's observation that Clifford
gates execute simultaneously.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.mbqc.pattern import MeasurementPattern


def blocking_sources(pattern: MeasurementPattern, node: int) -> FrozenSet[int]:
    """Nodes that must be measured before *node* is executable (Lemma 1)."""
    if not pattern.is_adaptive(node):
        return frozenset()
    z_deps = pattern.z_deps
    sources = set()
    for xsrc in pattern.x_deps.sources(node):
        sources.add(xsrc)
        sources.update(z_deps.sources(xsrc))
    sources.discard(node)
    return frozenset(sources)


def dependency_layers(pattern: MeasurementPattern) -> List[List[int]]:
    """Partition all graph nodes into executability layers.

    Layer ``k`` contains nodes whose blocking sources are all in layers
    ``< k``.  Output nodes are treated as non-adaptive (their readout is a
    fixed-basis measurement), so they are placed according to graph
    proximity of their producers: an output's layer is the layer of its
    latest blocking source, or 0 when it has none.

    Level-synchronous Kahn: indegree counters over the blocking DAG with
    a ready queue, each blocking edge relaxed exactly once — a node's
    counter hits zero in the round after its last source, which is the
    same layer the seed's rescan-every-remaining-node loop assigned
    (pinned by the equivalence tests in ``tests/mbqc/test_flow.py``).
    """
    blocking = {v: blocking_sources(pattern, v) for v in pattern.graph.nodes()}
    indegree: Dict[int, int] = {}
    dependents: Dict[int, List[int]] = {}
    for node, sources in blocking.items():
        indegree[node] = len(sources)
        for src in sources:
            dependents.setdefault(src, []).append(node)
    current = [node for node, degree in indegree.items() if degree == 0]
    layers: List[List[int]] = []
    assigned = 0
    while current:
        layers.append(sorted(current))
        assigned += len(current)
        ready: List[int] = []
        for node in current:
            for dependent in dependents.get(node, ()):
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        current = ready
    if assigned != len(blocking):
        raise RuntimeError(
            "dependency cycle detected; pattern dependencies are corrupt"
        )
    return layers


def layer_assignment(pattern: MeasurementPattern) -> Dict[int, int]:
    """Map node -> dependency layer index."""
    assignment: Dict[int, int] = {}
    for idx, layer in enumerate(dependency_layers(pattern)):
        for node in layer:
            assignment[node] = idx
    return assignment


def adaptive_depth(pattern: MeasurementPattern) -> int:
    """Number of dependency layers (the feed-forward critical path)."""
    return len(dependency_layers(pattern))


def scheduling_ranks(pattern: MeasurementPattern) -> Dict[int, int]:
    """Geometry-preserving executability rank per node (Sec. 4).

    Longest-path rank in the *raw* dependency DAG (X- and Z-dependencies
    without the Pauli filter, plus output byproduct sources).  Because
    the translator threads an X-dependency along every wire, consecutive
    wire nodes get consecutive ranks — this is the paper's "concurrently
    consider dependencies and overall geometry": grouping consecutive
    ranks keeps wire chains together while never scheduling a node before
    its blocking sources (every dependency source has a strictly smaller
    rank, which is stronger than Lemma 1).
    """
    # Kahn-style longest-path ranking: dependencies are merged once per
    # node and each edge is relaxed once, instead of re-scanning every
    # unranked node per fixed-point round (quadratic on deep patterns).
    # Nodes are 0 .. N-1, so the per-node tables are lists.
    n = pattern.num_nodes
    x_deps, z_deps = pattern.x_deps, pattern.z_deps
    output_x, output_z = pattern.output_x, pattern.output_z
    empty: FrozenSet[int] = frozenset()
    deps: List[Set[int]] = []
    dependents: List[List[int]] = [[] for _ in range(n)]
    for node in range(n):
        merged = set(x_deps.sources(node))
        merged.update(z_deps.sources(node))
        merged |= output_x.get(node, empty)
        merged |= output_z.get(node, empty)
        merged.discard(node)
        deps.append(merged)
        for src in merged:
            if 0 <= src < n:
                dependents[src].append(node)
    indegree = [len(sources) for sources in deps]
    ready = deque(node for node in range(n) if indegree[node] == 0)
    rank: Dict[int, int] = {}
    while ready:
        node = ready.popleft()
        rank[node] = 1 + max(
            (rank[src] for src in deps[node]), default=-1
        )
        for dependent in dependents[node]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if len(rank) != n:
        raise RuntimeError("cycle in raw dependency DAG")
    return rank


def rank_layers(pattern: MeasurementPattern) -> List[List[int]]:
    """Nodes grouped by scheduling rank, in ascending rank order."""
    ranks = scheduling_ranks(pattern)
    depth = max(ranks.values(), default=0)
    layers: List[List[int]] = [[] for _ in range(depth + 1)]
    for node, r in ranks.items():
        layers[r].append(node)
    return [sorted(layer) for layer in layers if layer]


def verify_layering(
    pattern: MeasurementPattern, layers: List[List[int]]
) -> Tuple[bool, str]:
    """Check that *layers* is a valid Lemma-1 layering of *pattern*.

    Returns ``(ok, message)`` so tests can assert with context.
    """
    layer_of: Dict[int, int] = {}
    for idx, layer in enumerate(layers):
        for node in layer:
            if node in layer_of:
                return False, f"node {node} appears twice"
            layer_of[node] = idx
    if set(layer_of) != set(pattern.graph.nodes()):
        return False, "layers do not cover all nodes"
    for node in pattern.graph.nodes():
        for src in blocking_sources(pattern, node):
            if layer_of[src] >= layer_of[node]:
                return False, (
                    f"node {node} in layer {layer_of[node]} blocked by "
                    f"{src} in layer {layer_of[src]}"
                )
    return True, "ok"
