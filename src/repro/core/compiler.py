"""The end-to-end OneQ compiler (paper Fig. 1).

Pipeline:  circuit -> measurement pattern (graph state + dependencies)
-> graph partition & scheduling (Sec. 4) -> fusion graph generation
(Sec. 5) -> fusion mapping & routing with inter-layer shuffling (Sec. 6).

The two paper metrics fall out of the mapping:

* **physical depth** — mapped (extended) layers x extension factor, plus
  dynamically allocated shuffle layers;
* **# fusions** — synthesis + edge + routing + shuffling fusions.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.circuit.circuit import Circuit
from repro.core.fusion_graph import FGNode, build_fusion_graph
from repro.core.mapping import Coord, InLayerMapper, LayerLayout
from repro.core.partition import (
    PartitionConfig,
    partition_pattern,
    required_degrees,
    schedule_layers,
)
from repro.core.shuffling import connect_pairs
from repro.hardware.coupling import HardwareConfig
from repro.hardware.fusion import FusionTally
from repro.mbqc.pattern import MeasurementPattern
from repro.mbqc.translate import circuit_to_pattern

#: the two endpoint cells of one pair the shuffle stage reconnects
PairCoords = Tuple[Coord, Coord]


@dataclass(frozen=True)
class OneQConfig:
    """All compiler knobs in one place."""

    hardware: HardwareConfig
    partition: PartitionConfig = PartitionConfig()
    alpha: Optional[float] = None
    use_embedding: bool = True
    #: seed cross-partition ports near their earlier-layer counterparts
    #: (shortens shuffle paths; disable for ablation)
    use_placement_hints: bool = True
    #: run the static pattern lint + flow certification as a pipeline
    #: stage before mapping; a lint error aborts the compile
    #: (:class:`repro.core.validate.ValidationError`)
    lint: bool = False
    #: dead hardware cells ((row, col) on the extended layer grid):
    #: excluded from mapping and pre-seeded as blockades on every
    #: shuffle layer — the recompile recovery policy compiles around a
    #: degraded device by listing its dead sites here
    blocked_cells: Tuple[Tuple[int, int], ...] = ()


@dataclass
class CompiledProgram:
    """The compiler's output record (metrics + layouts).

    ``physical_depth`` and ``fusions.total`` are the paper's two
    evaluation metrics (Sec. 7.1).
    """

    name: str
    num_qubits: int
    pattern_nodes: int
    pattern_edges: int
    num_partitions: int
    mapping_layers: int
    shuffle_layers: int
    extension: int
    fusions: FusionTally
    layouts: List[LayerLayout] = field(default_factory=list)
    resource_states_used: int = 0
    deferred_pairs: int = 0
    #: photons consumed beyond those supplied by resource states; a
    #: non-zero value flags a bookkeeping bug (see ``z_measurements``)
    photon_deficit: int = 0
    #: wall seconds per pipeline stage (translate / schedule / partition /
    #: map / shuffle); the run table's ``stage_seconds`` column is this
    #: dict plus the stages a batch run times around the compile.
    #: The map stage additionally reports its ``map_score`` /
    #: ``map_route`` / ``map_place`` sub-stages (candidate scoring, path
    #: search, placement bookkeeping); their sum is below ``map``, whose
    #: remainder is building each partition's induced subgraph (charged
    #: to ``map``, not ``partition``: it is built right before
    #: synthesis), fusion-graph synthesis and edge-order bookkeeping.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def physical_depth(self) -> int:
        return self.mapping_layers * self.extension + self.shuffle_layers

    @property
    def num_fusions(self) -> int:
        return self.fusions.total

    def summary(self) -> str:
        return (
            f"{self.name}: depth={self.physical_depth} "
            f"fusions={self.num_fusions} "
            f"(synthesis={self.fusions.synthesis}, edge={self.fusions.edge}, "
            f"routing={self.fusions.routing}, shuffle={self.fusions.shuffling}) "
            f"layers={self.mapping_layers}+{self.shuffle_layers} "
            f"partitions={self.num_partitions}"
        )


def settle_photon_budget(
    photons: int, consumed: int, name: str = "program"
) -> Tuple[int, int]:
    """Balance the photon budget of a compiled program.

    Returns ``(z_measurements, deficit)``: leftover photons are measured
    in the Z basis to detach them from the cluster; consuming *more*
    photons than the resource states supply is a bookkeeping bug that
    used to be clamped silently — it is now recorded (and warned about)
    so it cannot hide.
    """
    balance = photons - consumed
    if balance >= 0:
        return balance, 0
    deficit = -balance
    warnings.warn(
        f"{name}: photon bookkeeping deficit of {deficit} "
        f"(consumed {consumed} > supplied {photons}); "
        "fusion or resource-state accounting is inconsistent",
        RuntimeWarning,
        stacklevel=2,
    )
    return 0, deficit


class OneQCompiler:
    """Compile circuits (or patterns) to photonic one-way programs."""

    def __init__(self, config: OneQConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def compile(self, circuit: Circuit, name: str = "circuit") -> CompiledProgram:
        """Full flow from a gate circuit."""
        t0 = time.perf_counter()
        pattern = circuit_to_pattern(circuit)
        translate_seconds = time.perf_counter() - t0
        program = self.compile_pattern(
            pattern, name=name, num_qubits=circuit.num_qubits
        )
        program.stage_seconds["translate"] = translate_seconds
        return program

    def compile_pattern(
        self,
        pattern: MeasurementPattern,
        name: str = "pattern",
        num_qubits: Optional[int] = None,
    ) -> CompiledProgram:
        """Compile an arbitrary measurement pattern (graph state program)."""
        cfg = self.config
        hardware = cfg.hardware
        rst = hardware.resource_state

        # Partition capacity defaults to one extended layer's area so each
        # partition maps onto roughly one layer (dynamic scheduling).
        part_cfg = cfg.partition
        if part_cfg.target_states is None:
            rows, cols = hardware.extended_shape
            part_cfg = replace(
                part_cfg, target_states=max(4, int(0.7 * rows * cols))
            )
        estimator = lambda node: rst.states_for_degree(  # noqa: E731
            pattern.graph.degree(node)
        )
        stage_seconds: Dict[str, float] = {}
        if cfg.lint:
            from repro.analysis.lint import lint_pattern
            from repro.core.validate import ValidationError

            t0 = time.perf_counter()
            report = lint_pattern(pattern, name=name)
            stage_seconds["lint"] = time.perf_counter() - t0
            if not report.ok:
                raise ValidationError(
                    f"{name}: pattern fails static lint before mapping:\n"
                    + report.render()
                )
        t0 = time.perf_counter()
        layers = schedule_layers(pattern, part_cfg)
        stage_seconds["schedule"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        partitions = partition_pattern(
            pattern, part_cfg, size_estimator=estimator, layers=layers
        )
        stage_seconds["partition"] = time.perf_counter() - t0
        home: Dict[int, int] = {}
        for part in partitions:
            for node in part.nodes:
                home[node] = part.index

        mapper = InLayerMapper(
            shape=hardware.extended_shape,
            resource_state=rst,
            alpha=cfg.alpha,
            blocked=set(cfg.blocked_cells),
        )
        tally = FusionTally()
        resource_states = 0
        # What outlives a mapped partition: its ports towards later
        # partitions (each popped when the later partition maps the back
        # edge), and its deferred and back-edge pairs as coordinates per
        # shuffle boundary.  connect_pairs sorts its pairs stably by
        # distance, so the order is fixed: a boundary lists every deferred
        # pair before every back-edge pair, each kind in partition order.
        forward_ports: Dict[Tuple[int, int], FGNode] = {}
        deferred_by_boundary: Dict[int, List[PairCoords]] = {}
        back_by_boundary: Dict[int, List[PairCoords]] = {}
        placements = mapper.placements

        def add_pair(
            pairs: Dict[int, List[PairCoords]], a: FGNode, b: FGNode
        ) -> None:
            pa, pb = placements[a], placements[b]
            pairs.setdefault(max(pa.layer, pb.layer), []).append(
                (pa.coord, pb.coord)
            )

        t0 = time.perf_counter()
        for part in partitions:
            index = part.index
            cross_nbrs = {
                node: [
                    nbr
                    for nbr in pattern.graph.neighbors(node)
                    if home[nbr] != index
                ]
                for node in part.nodes
            }
            fusion = build_fusion_graph(
                part.subgraph,
                required_degrees(part, pattern.graph),
                rst,
                cross_neighbors=cross_nbrs,
                use_embedding=cfg.use_embedding,
            )
            resource_states += fusion.num_resource_states
            back_ports = [
                (forward_ports.pop((u, v)), fusion.port_of[(v, u)])
                for u, v in part.back_edges
            ]
            hints: Dict[FGNode, Tuple[int, int]] = {}
            if cfg.use_placement_hints:
                for src_port, dst_port in back_ports:
                    placed = placements.get(src_port)
                    if placed is not None:
                        hints[dst_port] = placed.coord
            result = mapper.map_fusion_graph(fusion, hints=hints)
            tally.add("synthesis", result.synthesis_fusions)
            tally.add("edge", result.edge_fusions)
            tally.add("routing", result.routing_fusions)
            for a, b in result.deferred_edges:
                add_pair(deferred_by_boundary, a, b)
            for a, b in back_ports:
                add_pair(back_by_boundary, a, b)
            for (node, nbr), port in fusion.port_of.items():
                if home[nbr] > index:
                    forward_ports[(node, nbr)] = port
        stage_seconds["map"] = time.perf_counter() - t0
        for sub_stage, seconds in mapper.stage_seconds.items():
            stage_seconds[f"map_{sub_stage}"] = seconds

        # ---- inter-layer shuffling -----------------------------------
        t0 = time.perf_counter()
        pairs_by_boundary = {
            boundary: deferred_by_boundary.get(boundary, [])
            + back_by_boundary.get(boundary, [])
            for boundary in set(deferred_by_boundary) | set(back_by_boundary)
        }

        shuffle_layers = 0
        for boundary in sorted(pairs_by_boundary):
            result = connect_pairs(
                pairs_by_boundary[boundary],
                hardware.extended_shape,
                blocked=set(cfg.blocked_cells),
            )
            tally.add("shuffling", result.fusions)
            shuffle_layers += result.num_layers
            # reserved cells are dead-site blockades, not consumed states
            resource_states += sum(
                len(l.used) - l.reserved for l in result.layers
            )
        stage_seconds["shuffle"] = time.perf_counter() - t0

        # ---- photon bookkeeping --------------------------------------
        aux_cells = sum(len(l.aux_cells) for l in mapper.layers)
        resource_states += aux_cells
        photons = resource_states * rst.size
        consumed = 2 * tally.total + pattern.graph.number_of_nodes()
        tally.z_measurements, photon_deficit = settle_photon_budget(
            photons, consumed, name=name
        )

        return CompiledProgram(
            name=name,
            num_qubits=num_qubits or len(pattern.inputs),
            pattern_nodes=pattern.graph.number_of_nodes(),
            pattern_edges=pattern.graph.number_of_edges(),
            num_partitions=len(partitions),
            mapping_layers=len(mapper.layers),
            shuffle_layers=shuffle_layers,
            extension=hardware.extension,
            fusions=tally,
            layouts=mapper.layers,
            resource_states_used=resource_states,
            deferred_pairs=sum(len(v) for v in pairs_by_boundary.values()),
            photon_deficit=photon_deficit,
            stage_seconds=stage_seconds,
        )


def compile_circuit(
    circuit: Circuit,
    hardware: HardwareConfig,
    name: str = "circuit",
    **kwargs: Any,
) -> CompiledProgram:
    """Convenience one-call compile with default configuration."""
    config = OneQConfig(hardware=hardware, **kwargs)
    return OneQCompiler(config).compile(circuit, name=name)
