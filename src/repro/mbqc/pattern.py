"""Measurement patterns: the MBQC program representation.

A :class:`MeasurementPattern` is the paper's "graph state + measurement
basis per qubit + dependency structure" object (Sec. 2.2.1).  Nodes are
the integers ``0 .. N-1``.  Every non-output node carries a nominal
equatorial angle; the *actual* angle applied at runtime is

    ``(-1)**s * alpha + t * pi``

where ``s`` / ``t`` are XORs of the measurement outcomes of the node's X-
and Z-dependency sources (the classical feed-forward).

The pattern is held as int-indexed arrays from the stdlib :mod:`array`
module, not as Python objects per node: the graph is int32 CSR
(:class:`PatternGraph`), the dependency sets are int32 CSR
(:class:`DependencyMap`) and the angles and wires are flat arrays
(:class:`ValueMap`).  Read-only views give them the ``nx.Graph`` and
``dict`` reads the compiler, simulators and linter use.  Two orders are
part of the contract, because the planar rotation system downstream
depends on them:

* a node's neighbours are listed in the order their edges were last
  added.  A CZ toggle that removes an edge and adds it again moves it to
  the end, exactly as in networkx's adjacency dicts:

  >>> from repro.circuit.circuit import Circuit
  >>> from repro.mbqc.translate import circuit_to_pattern
  >>> once = circuit_to_pattern(Circuit(3).cz(0, 1).cz(0, 2))
  >>> [list(once.graph.adj[v]) for v in once.graph]
  [[1, 2], [0], [0]]
  >>> toggled = circuit_to_pattern(Circuit(3).cz(0, 1).cz(0, 2).cz(0, 1).cz(0, 1))
  >>> [list(toggled.graph.adj[v]) for v in toggled.graph]
  [[2, 1], [0], [0]]

* a translated pattern's ``angles``, ``x_deps`` and ``z_deps`` iterate
  in ``sequence`` order, and ``output_x`` / ``output_z`` in ``outputs``
  order (a hand-built pattern's maps keep the order they were given in).
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from itertools import accumulate, chain
from typing import (
    TYPE_CHECKING,
    Any,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.utils.angles import is_pauli_angle

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


#: ``bytes.translate`` table swapping 0 and 1 (an output mask becomes
#: the measured-node mask)
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _zeros(typecode: str, size: int) -> array:
    return array(typecode, bytes(array(typecode).itemsize * size))


class PatternGraph:
    """An undirected graph on nodes ``0 .. N-1`` as int32 CSR.

    Node ``v``'s neighbours are ``targets[offsets[v]:offsets[v + 1]]``.
    Every edge is stored from both ends; a self-loop (only ever seen in
    corrupted patterns) is stored once and counts once in :meth:`degree`.
    The read methods mirror the ``nx.Graph`` ones the compiler uses.
    They give the same neighbour order, and the node and edge order of
    an ``nx.Graph`` whose nodes were added in ascending order (as
    translation adds them).
    """

    __slots__ = ("_offsets", "_targets", "_num_edges")

    def __init__(self, offsets: array, targets: array, num_edges: int) -> None:
        if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(targets):
            raise ValueError("offsets must run from 0 to len(targets)")
        self._offsets = offsets
        self._targets = targets
        self._num_edges = num_edges

    @classmethod
    def from_neighbors(cls, rows: Sequence[Sequence[int]]) -> "PatternGraph":
        """The graph whose node ``v`` has neighbours ``rows[v]``, in
        order (each edge listed from both ends, a self-loop once)."""
        offsets = array("i", accumulate(map(len, rows), initial=0))
        targets = array("i", chain.from_iterable(rows))
        loops = sum(v in row for v, row in enumerate(rows))
        return cls(offsets, targets, (len(targets) + loops) // 2)

    @classmethod
    def from_graph(cls, graph: Any) -> "PatternGraph":
        """Copy any graph with ``nodes()`` and ``neighbors(v)`` (such as
        an ``nx.Graph``), keeping each node's neighbour order.

        Raises :class:`ValueError` unless the nodes are ``0 .. N-1``.
        """
        if isinstance(graph, PatternGraph):
            return graph
        nodes = sorted(graph.nodes())
        if nodes != list(range(len(nodes))):
            raise ValueError("pattern nodes must be the integers 0 .. N-1")
        return cls.from_neighbors([list(graph.neighbors(v)) for v in nodes])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._offsets) - 1))

    def __repr__(self) -> str:
        return f"PatternGraph(nodes={len(self)}, edges={self._num_edges})"

    def nodes(self) -> range:
        return range(len(self._offsets) - 1)

    def number_of_nodes(self) -> int:
        return len(self._offsets) - 1

    def number_of_edges(self) -> int:
        return self._num_edges

    def neighbors(self, node: int) -> Iterator[int]:
        offsets = self._offsets
        if not 0 <= node < len(offsets) - 1:
            raise KeyError(node)
        return iter(self._targets[offsets[node] : offsets[node + 1]])

    def __getitem__(self, node: int) -> array:
        """Node *node*'s neighbours in order (``graph.adj[node]``)."""
        offsets = self._offsets
        if not 0 <= node < len(offsets) - 1:
            raise KeyError(node)
        return self._targets[offsets[node] : offsets[node + 1]]

    @property
    def adj(self) -> "PatternGraph":
        """``adj[v]`` lists *v*'s neighbours, as on an ``nx.Graph``."""
        return self

    def degree(self, node: int) -> int:
        offsets = self._offsets
        if not 0 <= node < len(offsets) - 1:
            raise KeyError(node)
        return offsets[node + 1] - offsets[node]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Every edge once, in networkx order: nodes ascending, each
        node's neighbours in order, skipping edges to earlier nodes."""
        offsets, targets = self._offsets, self._targets
        for u in range(len(offsets) - 1):
            for v in targets[offsets[u] : offsets[u + 1]]:
                if v >= u:
                    yield u, v

    def to_networkx(self) -> "nx.Graph":
        """The same nodes and edges as an ``nx.Graph``, for verification
        code that runs networkx algorithms (``is_forest``, isomorphism).

        Edges enter in :meth:`edges` order, so a node's neighbour order
        there may differ from this graph's.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        graph.add_edges_from(self.edges())
        return graph


#: A pattern graph or an ``nx.Graph``: code that only reads ``nodes()``,
#: ``neighbors(v)``, ``degree(v)`` and ``edges()`` takes either.
GraphLike = Union[PatternGraph, "nx.Graph"]


class _NodeMap(Mapping):
    """A read-only map keyed by node id, iterating in a fixed key order.

    ``mask[v]`` is 1 exactly when ``v`` is a key, so lookups are one
    array read.  Maps over the same key set share one mask and one key
    sequence.
    """

    __slots__ = ("_keys", "_mask")

    def __init__(self, keys: Sequence[int], mask: bytearray) -> None:
        self._keys = keys
        self._mask = mask

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __contains__(self, node: int) -> bool:  # type: ignore[override]
        mask = self._mask
        return 0 <= node < len(mask) and mask[node] == 1

    def __getitem__(self, node: int) -> Any:
        mask = self._mask
        if 0 <= node < len(mask) and mask[node]:
            return self._value(node)
        raise KeyError(node)

    def get(self, node: int, default: Any = None) -> Any:
        mask = self._mask
        if 0 <= node < len(mask) and mask[node]:
            return self._value(node)
        return default

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"

    def _value(self, node: int) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError


def _key_mask(keys: Sequence[int], size: int) -> bytearray:
    mask = bytearray(size)
    for v in keys:
        if v < 0:
            raise ValueError(f"node ids are non-negative, got {v}")
        mask[v] = 1
    return mask


class ValueMap(_NodeMap):
    """node -> number, over a flat array indexed by node id
    (``angles`` as float64, ``wire_of`` as int32)."""

    __slots__ = ("_values",)

    def __init__(self, values: array, keys: Sequence[int], mask: bytearray) -> None:
        super().__init__(keys, mask)
        self._values = values

    @classmethod
    def from_mapping(
        cls, mapping: Dict[int, float], typecode: str, num_nodes: int
    ) -> "ValueMap":
        keys = tuple(mapping)
        size = max(num_nodes, max(keys, default=-1) + 1)
        values = _zeros(typecode, size)
        for v, value in mapping.items():
            values[v] = value
        return cls(values, keys, _key_mask(keys, size))

    def _value(self, node: int) -> Any:
        return self._values[node]


class DependencyMap(_NodeMap):
    """node -> frozenset of outcome sources, as int32 CSR by node id.

    Lookups build the frozenset on demand; :meth:`sources` and
    :meth:`count` read the CSR row without building one.
    """

    __slots__ = ("_offsets", "_sources")

    def __init__(
        self,
        offsets: array,
        sources: array,
        keys: Sequence[int],
        mask: bytearray,
    ) -> None:
        super().__init__(keys, mask)
        self._offsets = offsets
        self._sources = sources

    @classmethod
    def from_rows(
        cls,
        keys: Sequence[int],
        mask: bytearray,
        counts: array,
        flat: array,
    ) -> "DependencyMap":
        """CSR of rows stored back to back in *keys* order in *flat*;
        ``counts[v]`` is node ``v``'s row length (0 for non-keys)."""
        offsets = array("i", accumulate(counts, initial=0))
        sources = _zeros("i", len(flat))
        start = 0
        for v in keys:
            stop = start + counts[v]
            sources[offsets[v] : offsets[v + 1]] = flat[start:stop]
            start = stop
        return cls(offsets, sources, keys, mask)

    @classmethod
    def from_mapping(
        cls, mapping: Dict[int, Iterable[int]], num_nodes: int
    ) -> "DependencyMap":
        keys = tuple(mapping)
        size = max(num_nodes, max(keys, default=-1) + 1)
        counts = _zeros("i", size)
        flat = array("i")
        for v, row in mapping.items():
            row = sorted(set(row))
            counts[v] = len(row)
            flat.extend(row)
        return cls.from_rows(keys, _key_mask(keys, size), counts, flat)

    def _value(self, node: int) -> FrozenSet[int]:
        offsets = self._offsets
        return frozenset(self._sources[offsets[node] : offsets[node + 1]])

    def sources(self, node: int) -> array:
        """Node *node*'s sources, ascending; empty when *node* is not a
        key (a non-key's CSR row is empty, so no mask read is needed)."""
        offsets = self._offsets
        if 0 <= node < len(offsets) - 1:
            return self._sources[offsets[node] : offsets[node + 1]]
        return array("i")

    def count(self, node: int) -> int:
        """How many sources *node* has (0 when not a key)."""
        mask = self._mask
        if 0 <= node < len(mask) and mask[node]:
            offsets = self._offsets
            return offsets[node + 1] - offsets[node]
        return 0


def _as_value_map(values: Any, typecode: str, num_nodes: int) -> ValueMap:
    if isinstance(values, ValueMap):
        return values
    return ValueMap.from_mapping(dict(values or {}), typecode, num_nodes)


def _as_dependency_map(deps: Any, num_nodes: int) -> DependencyMap:
    if isinstance(deps, DependencyMap):
        return deps
    return DependencyMap.from_mapping(dict(deps or {}), num_nodes)


class MeasurementPattern:
    """An MBQC program over a graph state.

    Attributes:
        graph: the entanglement graph (includes output nodes).
        inputs: input nodes in wire order (hold the input state).
        outputs: output nodes in wire order (never measured in-pattern).
        angles: nominal measurement angle per non-output node.
        x_deps: node -> outcome sources whose XOR flips the angle sign.
        z_deps: node -> outcome sources whose XOR adds pi to the angle.
        output_x: residual Pauli-X byproduct sources per output node.
        output_z: residual Pauli-Z byproduct sources per output node.
        wire_of: node -> logical circuit wire (diagnostic / layout aid).
        sequence: chronological measurement order from translation; when
            empty, a topological order of the dependency DAG is used.
        output_mask: ``output_mask[v]`` is 1 exactly for output nodes
            (derived from ``outputs``).

    The constructor takes the array forms or any graph / mappings of the
    same shape (an ``nx.Graph``, dicts), and copies the latter into
    arrays; it raises :class:`ValueError` unless the graph's nodes are
    ``0 .. N-1``.  The pattern is read-only: :meth:`replace` builds a
    changed copy.  ``validate=False`` skips :meth:`validate`, for
    deliberately corrupted patterns (:mod:`repro.analysis.mutate`).
    """

    def __init__(
        self,
        graph: Any,
        inputs: Sequence[int],
        outputs: Sequence[int],
        angles: Any,
        x_deps: Any = None,
        z_deps: Any = None,
        output_x: Optional[Dict[int, Iterable[int]]] = None,
        output_z: Optional[Dict[int, Iterable[int]]] = None,
        wire_of: Any = None,
        sequence: Sequence[int] = (),
        *,
        validate: bool = True,
    ) -> None:
        self.graph = PatternGraph.from_graph(graph)
        n = self.graph.number_of_nodes()
        self.inputs: Tuple[int, ...] = tuple(inputs)
        self.outputs: Tuple[int, ...] = tuple(outputs)
        self.angles = _as_value_map(angles, "d", n)
        self.x_deps = _as_dependency_map(x_deps, n)
        self.z_deps = _as_dependency_map(z_deps, n)
        self.output_x: Dict[int, FrozenSet[int]] = {
            v: frozenset(s) for v, s in (output_x or {}).items()
        }
        self.output_z: Dict[int, FrozenSet[int]] = {
            v: frozenset(s) for v, s in (output_z or {}).items()
        }
        self.wire_of = _as_value_map(wire_of, "i", n)
        self.sequence: Tuple[int, ...] = tuple(sequence)
        self.output_mask = bytearray(n)
        for v in self.outputs:
            if 0 <= v < n:
                self.output_mask[v] = 1
        if validate:
            self.validate()

    def replace(self, *, validate: bool = True, **changes: Any) -> "MeasurementPattern":
        """A copy with the given fields replaced (arrays are shared)."""
        fields: Dict[str, Any] = dict(
            graph=self.graph,
            inputs=self.inputs,
            outputs=self.outputs,
            angles=self.angles,
            x_deps=self.x_deps,
            z_deps=self.z_deps,
            output_x=self.output_x,
            output_z=self.output_z,
            wire_of=self.wire_of,
            sequence=self.sequence,
        )
        fields.update(changes)
        return MeasurementPattern(**fields, validate=validate)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ValueError` unless the pattern is well formed.

        The checks run on whole arrays and sets at C speed; only a
        failing check walks the nodes to name the culprits.
        """
        n = self.graph.number_of_nodes()
        nodes = range(n)
        if not all(v in nodes for v in self.inputs):
            raise ValueError("inputs must be graph nodes")
        if not all(v in nodes for v in self.outputs):
            raise ValueError("outputs must be graph nodes")
        outputs = set(self.outputs)

        def measured_only(values: Collection[int]) -> bool:
            return not values or (
                min(values) >= 0
                and max(values) < n
                and outputs.isdisjoint(values)
            )

        angles = self.angles
        if angles._mask[:n] != self.output_mask.translate(
            _FLIP
        ) or any(angles._mask[n:]):
            missing = [v for v in nodes if v not in outputs and v not in angles]
            extra = [v for v in angles if v not in nodes or v in outputs]
            raise ValueError(
                f"angles must cover exactly the measured nodes "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        for dep_map in (self.x_deps, self.z_deps):
            unknown = [v for v in dep_map if v not in nodes]
            if unknown:
                raise ValueError(f"dependency on unknown node {unknown[0]}")
            if not measured_only(dep_map._sources):
                node = next(
                    v for v in dep_map if not measured_only(dep_map.sources(v))
                )
                raise ValueError(
                    f"dependency sources of {node} must be measured nodes"
                )
        if self.sequence:
            seen = set(self.sequence)
            if len(seen) != n - len(outputs) or not measured_only(seen):
                raise ValueError("sequence must enumerate the measured nodes")

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self.graph.number_of_edges()

    def measured_nodes(self) -> Tuple[int, ...]:
        is_output = self.output_mask
        return tuple(v for v in self.graph.nodes() if not is_output[v])

    def is_adaptive(self, node: int) -> bool:
        """True when *node*'s measurement must wait for other outcomes.

        Pauli-basis measurements (X/Y, i.e. angles that are multiples of
        ``pi/2``) never need adaptivity: sign flips map the basis to
        itself and only reinterpret the outcome bit (paper Sec. 4).
        """
        if self.output_mask[node]:
            return False
        if is_pauli_angle(self.angles[node]):
            return False
        return self.x_deps.count(node) > 0 or self.z_deps.count(node) > 0

    def effective_x_deps(self, node: int) -> FrozenSet[int]:
        """X-dependencies that actually gate execution (adaptive only)."""
        if not self.is_adaptive(node):
            return frozenset()
        return self.x_deps.get(node, frozenset())

    def dependency_dag(self) -> "nx.DiGraph":
        """Directed graph with an edge ``source -> node`` per dependency."""
        import networkx as nx

        dag = nx.DiGraph()
        dag.add_nodes_from(self.graph.nodes())
        for node in self.x_deps:
            for src in self.x_deps.sources(node):
                dag.add_edge(src, node, kind="x")
        for node in self.z_deps:
            for src in self.z_deps.sources(node):
                dag.add_edge(src, node, kind="z")
        return dag

    def measurement_order(self) -> Tuple[int, ...]:
        """A total order of measured nodes respecting all dependencies.

        Prefers the chronological ``sequence`` recorded by the translator
        (it keeps the simulator's active-qubit window minimal); falls back
        to a topological sort of the dependency DAG.
        """
        if self.sequence:
            return self.sequence
        import networkx as nx

        is_output = self.output_mask
        dag = self.dependency_dag()
        return tuple(v for v in nx.topological_sort(dag) if not is_output[v])

    def summary(self) -> str:
        return (
            f"MeasurementPattern(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, "
            f"adaptive={sum(1 for v in self.measured_nodes() if self.is_adaptive(v))})"
        )
