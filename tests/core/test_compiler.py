"""Tests for the end-to-end OneQ compiler."""

import gc
import weakref

import networkx as nx
import pytest

from repro.circuit import Circuit, bernstein_vazirani, get_benchmark, qft
import repro.core.compiler as compiler_mod
from repro.core import OneQCompiler, OneQConfig, PartitionConfig, compile_circuit
from repro.core.mapping import InLayerMapper
from repro.core.partition import GraphPartition
from repro.hardware import (
    FOUR_LINE,
    FOUR_RING,
    FOUR_STAR,
    FusionTally,
    HardwareConfig,
    THREE_LINE,
)
from repro.eval.experiments import _hardware_for
from repro.mbqc import circuit_to_pattern


class TestBasicCompilation:
    def test_tiny_circuit(self, small_hardware):
        prog = compile_circuit(Circuit(2).h(0).cx(0, 1), small_hardware)
        assert prog.physical_depth >= 1
        assert prog.num_fusions > 0

    def test_empty_wire_circuit(self, small_hardware):
        prog = compile_circuit(Circuit(3), small_hardware)
        assert prog.physical_depth >= 1

    def test_metrics_consistent(self, small_hardware):
        prog = compile_circuit(qft(4), small_hardware)
        t = prog.fusions
        assert prog.num_fusions == t.synthesis + t.edge + t.routing + t.shuffling
        assert prog.physical_depth == (
            prog.mapping_layers * prog.extension + prog.shuffle_layers
        )

    def test_deterministic(self, small_hardware):
        a = compile_circuit(qft(4), small_hardware)
        b = compile_circuit(qft(4), small_hardware)
        assert a.num_fusions == b.num_fusions
        assert a.physical_depth == b.physical_depth

    def test_layouts_recorded(self, small_hardware):
        prog = compile_circuit(qft(4), small_hardware)
        assert len(prog.layouts) == prog.mapping_layers
        assert all(l.shape == (8, 8) for l in prog.layouts)

    def test_compile_pattern_directly(self, small_hardware):
        pattern = circuit_to_pattern(qft(3))
        compiler = OneQCompiler(OneQConfig(hardware=small_hardware))
        prog = compiler.compile_pattern(pattern, name="direct")
        assert prog.name == "direct"
        assert prog.pattern_nodes == pattern.graph.number_of_nodes()

    def test_summary_text(self, small_hardware):
        prog = compile_circuit(qft(3), small_hardware, name="qft3")
        assert "qft3" in prog.summary()
        assert "depth=" in prog.summary()


class TestPaperShape:
    """Qualitative results the paper's Table 2 commits to."""

    def test_bv_maps_to_very_few_layers(self, paper_hardware):
        prog = compile_circuit(bernstein_vazirani(16), paper_hardware)
        assert prog.physical_depth <= 3  # paper: 1

    def test_bv_cheapest_qft_most_expensive(self, paper_hardware):
        metrics = {}
        for name in ("QFT", "QAOA", "RCA", "BV"):
            prog = compile_circuit(get_benchmark(name, 16), paper_hardware)
            metrics[name] = (prog.physical_depth, prog.num_fusions)
        assert metrics["BV"][0] == min(m[0] for m in metrics.values())
        assert metrics["QFT"][0] == max(m[0] for m in metrics.values())
        assert metrics["BV"][1] == min(m[1] for m in metrics.values())

    def test_fusions_scale_with_qubits(self, paper_hardware):
        f16 = compile_circuit(qft(8), paper_hardware).num_fusions
        f25 = compile_circuit(qft(12), paper_hardware).num_fusions
        assert f25 > f16

    def test_resource_states_bounded_by_depth_times_area(self, paper_hardware):
        prog = compile_circuit(get_benchmark("QAOA", 16), paper_hardware)
        assert prog.resource_states_used <= (
            prog.physical_depth * paper_hardware.physical_area
        )


class TestResourceStates:
    @pytest.mark.parametrize(
        "rst", [THREE_LINE, FOUR_LINE, FOUR_STAR, FOUR_RING], ids=lambda r: r.name
    )
    def test_all_resource_states_compile(self, rst):
        hw = HardwareConfig.square(12, resource_state=rst)
        prog = compile_circuit(qft(4), hw)
        assert prog.num_fusions > 0

    def test_four_star_fewer_synthesis_fusions(self):
        """Higher-degree resource states shorten synthesis chains."""
        c = get_benchmark("QFT", 8)
        three = compile_circuit(c, HardwareConfig.square(12, resource_state=THREE_LINE))
        star = compile_circuit(c, HardwareConfig.square(12, resource_state=FOUR_STAR))
        assert star.fusions.synthesis < three.fusions.synthesis


class TestExtendedLayers:
    def test_extension_reduces_mapping_layers(self):
        c = qft(6)
        flat = compile_circuit(c, HardwareConfig(rows=8, cols=8, extension=1))
        ext = compile_circuit(c, HardwareConfig(rows=8, cols=8, extension=3))
        assert ext.mapping_layers <= flat.mapping_layers

    def test_extension_counts_in_depth(self):
        c = Circuit(2).h(0).cx(0, 1)
        prog = compile_circuit(c, HardwareConfig(rows=6, cols=6, extension=2))
        assert prog.physical_depth >= 2 * prog.mapping_layers


class TestPartitionLifetime:
    def test_mapped_partitions_are_released(self, monkeypatch):
        """When partition k starts mapping, neither the induced subgraph
        nor the fusion graph of any earlier partition is alive."""
        built = []  # per partition: weakrefs to its subgraph, fusion graph
        build = compiler_mod.build_fusion_graph
        map_graph = InLayerMapper.map_fusion_graph
        alive_at_map = []

        def tracked_build(subgraph, *args, **kwargs):
            fusion = build(subgraph, *args, **kwargs)
            built.append((weakref.ref(subgraph), weakref.ref(fusion)))
            return fusion

        def tracked_map(mapper, fusion, *args, **kwargs):
            gc.collect()
            alive_at_map.append(sum(
                ref() is not None for refs in built[:-1] for ref in refs
            ))
            return map_graph(mapper, fusion, *args, **kwargs)

        monkeypatch.setattr(compiler_mod, "build_fusion_graph", tracked_build)
        monkeypatch.setattr(InLayerMapper, "map_fusion_graph", tracked_map)
        prog = compile_circuit(
            get_benchmark("QFT", 36, seed=7), _hardware_for(36, THREE_LINE)
        )
        assert prog.num_partitions == len(built) == len(alive_at_map) > 2
        assert alive_at_map == [0] * len(built)


class TestConfigPlumb:
    def test_partition_override(self, small_hardware):
        cfg = OneQConfig(
            hardware=small_hardware,
            partition=PartitionConfig(target_states=8),
        )
        prog = OneQCompiler(cfg).compile(qft(4))
        assert prog.num_partitions >= 2

    def test_lemma1_scheduling_ablation(self, small_hardware):
        """Lemma-1 scheduling scatters geometry -> more shuffle fusions."""
        c = qft(6)
        flow = OneQCompiler(
            OneQConfig(hardware=small_hardware)
        ).compile(c)
        lemma = OneQCompiler(
            OneQConfig(
                hardware=small_hardware,
                partition=PartitionConfig(scheduling="lemma1"),
            )
        ).compile(c)
        assert flow.fusions.shuffling <= lemma.fusions.shuffling

    def test_alpha_plumbed(self, small_hardware, monkeypatch):
        """The compiler hands ``alpha`` to the mapper it builds."""
        import repro.core.compiler as compiler_mod

        built = []

        class RecordingMapper(InLayerMapper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(compiler_mod, "InLayerMapper", RecordingMapper)
        for alpha, expected in ((10.0, 10.0), (None, 4.0)):
            built.clear()
            prog = OneQCompiler(
                OneQConfig(hardware=small_hardware, alpha=alpha)
            ).compile(qft(3))
            assert prog.num_fusions > 0
            assert [m.alpha for m in built] == [expected]

    @pytest.mark.parametrize(
        "knob,value",
        [
            ("map_jobs", 2),
            ("route_radius", 3),
            ("route_targets_limit", 1),
            ("connect_radius", 1),
            ("lint", True),
        ],
    )
    def test_removed_knobs_fail_loudly(self, small_hardware, knob, value):
        """Removed compiler knobs are rejected, not silently defaulted."""
        from repro.eval.batch import RunSpec, execute_spec

        with pytest.raises(TypeError, match=knob):
            OneQConfig(hardware=small_hardware, **{knob: value})
        spec = RunSpec(
            "BV", 8, include_baseline=False, compiler_options=((knob, value),)
        )
        with pytest.raises(TypeError, match=knob):
            execute_spec(spec)

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: PartitionConfig(enforce_planarity=True), "enforce_planarity"),
            (lambda: HardwareConfig(rows=2, cols=2, max_delay=2), "max_delay"),
            (
                lambda: GraphPartition(0, [0], graph=nx.Graph(), subgraph=nx.Graph()),
                "subgraph",
            ),
        ],
        ids=["enforce_planarity", "max_delay", "subgraph"],
    )
    def test_removed_settings_fail_loudly(self, build, name):
        """Settings no run read are gone: passing one is an error, not a
        silently ignored value."""
        with pytest.raises(TypeError, match=name):
            build()


class TestPhotonBudget:
    def test_settle_balance_positive(self):
        from repro.core.compiler import settle_photon_budget

        # 5 states x 2 photons against 1 fusion (2 photons) + 2 nodes
        z, deficit = settle_photon_budget(FusionTally(edge=1), 5, 2, 2)
        assert (z, deficit) == (6, 0)

    def test_settle_deficit_recorded_and_warned(self):
        from repro.core.compiler import settle_photon_budget

        with pytest.warns(RuntimeWarning, match="deficit of 3"):
            z, deficit = settle_photon_budget(
                FusionTally(edge=2), 2, 2, 3, name="x"
            )
        assert (z, deficit) == (0, 3)

    def test_compiled_programs_balance(self, small_hardware):
        """Real compiles must never run a (silently clamped) deficit."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            prog = compile_circuit(qft(6), small_hardware)
        assert prog.photon_deficit == 0
        assert prog.fusions.z_measurements >= 0
