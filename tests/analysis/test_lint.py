"""PatternLinter: clean artifacts pass, seeded defects produce the
pinned codes, reports render usefully."""

import dataclasses
import math

import networkx as nx
import pytest

from repro.analysis.lint import (
    PatternLinter,
    lint_compiled_program,
    lint_frame_program,
    lint_pattern,
)
from repro.circuit.benchmarks import get_benchmark
from repro.mbqc.pattern import MeasurementPattern
from repro.mbqc.translate import circuit_to_pattern


def _line_pattern():
    """0-1-2 path: measure 0 then 1, output 2 (textbook causal flow)."""
    graph = nx.Graph([(0, 1), (1, 2)])
    return MeasurementPattern(
        graph=graph,
        inputs=(0,),
        outputs=(2,),
        angles={0: 0.0, 1: 0.0},
        x_deps={1: frozenset({0})},
        output_x={2: frozenset({1})},
        output_z={2: frozenset({0})},
        sequence=(0, 1),
    )


def _broken(**changes):
    """The line pattern with *changes*, built without validation."""
    return _line_pattern().replace(validate=False, **changes)


class TestPatternLint:
    def test_clean_line_pattern(self):
        report = lint_pattern(_line_pattern(), name="line")
        assert report.ok, report.render()
        assert report.certificate is not None and report.certificate.ok
        assert "line: clean" in report.summary()

    @pytest.mark.parametrize(
        "name,qubits", [("QFT", 8), ("QAOA", 8), ("BV", 16)]
    )
    def test_benchmark_patterns_lint_clean(self, name, qubits):
        pattern = circuit_to_pattern(get_benchmark(name, qubits, seed=7))
        report = lint_pattern(pattern, name=f"{name}-{qubits}")
        assert report.ok, report.render()

    def test_missing_basis(self):
        bad = _broken(angles={0: 0.0})
        report = lint_pattern(bad)
        assert "P001" in report.codes() and not report.ok

    def test_output_measured(self):
        bad = _broken(angles={0: 0.0, 1: 0.0, 2: 0.0})
        assert "P002" in lint_pattern(bad).codes()

    def test_unknown_dependency_node(self):
        bad = _broken(x_deps={1: frozenset({99})})
        assert "P003" in lint_pattern(bad).codes()

    def test_unmeasured_source(self):
        # 2 is an output, never measured
        bad = _broken(x_deps={1: frozenset({2})})
        assert "P004" in lint_pattern(bad).codes()

    def test_forward_reference(self):
        # 1 depends on 0 but is measured first
        bad = _broken(sequence=(1, 0))
        assert "P005" in lint_pattern(bad).codes()

    def test_dependency_cycle(self):
        # closes 0 -> 1 -> 0
        bad = _broken(x_deps={0: frozenset({1}), 1: frozenset({0})})
        report = lint_pattern(bad)
        assert "P006" in report.codes()
        [cycle_issue] = [i for i in report.issues if i.code == "P006"]
        assert "->" in cycle_issue.message

    def test_sequence_mismatch(self):
        bad = _broken(sequence=(0,))
        assert "P007" in lint_pattern(bad).codes()

    def test_non_finite_angle(self):
        bad = _broken(angles={0: math.nan, 1: 0.0})
        assert "P008" in lint_pattern(bad).codes()

    def test_self_dependency(self):
        bad = _broken(z_deps={1: frozenset({1})})
        assert "P009" in lint_pattern(bad).codes()

    def test_self_loop_edge(self):
        bad = _broken(graph=nx.Graph([(0, 1), (1, 2), (1, 1)]))
        assert "P011" in lint_pattern(bad).codes()

    def test_no_determinism_counterexample(self):
        # 6-cycle alternating measured/output: no flow, no gflow
        graph = nx.Graph(
            [(0, 3), (2, 3), (2, 5), (1, 5), (1, 4), (0, 4)]
        )
        pattern = MeasurementPattern(
            graph=graph,
            inputs=(0, 1, 2),
            outputs=(3, 4, 5),
            angles={0: 0.3, 1: 0.3, 2: 0.3},
        )
        report = lint_pattern(pattern)
        assert "F001" in report.codes() and not report.ok
        [issue] = [i for i in report.issues if i.code == "F001"]
        assert issue.where == 0  # smallest stalled vertex

    def test_dropped_correction_is_flagged(self):
        bad = _broken(x_deps={1: frozenset()})
        report = lint_pattern(bad)
        assert "F002" in report.codes()

    def test_dropped_byproduct_is_flagged(self):
        bad = _broken(output_z={2: frozenset()})
        assert "F004" in lint_pattern(bad).codes()

    def test_certify_off_skips_flow_search(self):
        linter = PatternLinter(certify=False)
        report = linter.lint_pattern(_line_pattern())
        assert report.ok and report.certificate is None

    def test_issue_render_contains_code_and_location(self):
        bad = _broken(angles={0: 0.0})
        report = lint_pattern(bad, name="broken")
        text = report.render()
        assert "broken" in text and "P001" in text and "@ 1" in text


class TestFrameProgramLint:
    @pytest.fixture()
    def compiled(self):
        from repro.sim.frame import FrameProgram
        from repro.sim.stabilizer import StabilizerState

        circuit = get_benchmark("BV", 8, seed=7)
        pattern = circuit_to_pattern(circuit)
        state = StabilizerState(circuit.num_qubits)
        state.apply_circuit(circuit)
        program = FrameProgram.compile(pattern, state.stabilizer_rows())
        return pattern, program

    def test_clean_frame_program(self, compiled):
        pattern, program = compiled
        report = lint_frame_program(program, pattern)
        assert report.ok, report.render()

    def test_flipped_basis(self, compiled):
        pattern, program = compiled
        steps = list(program.steps)
        steps[0] = dataclasses.replace(steps[0], y_basis=not steps[0].y_basis)
        bad = dataclasses.replace(program, steps=tuple(steps))
        assert "R003" in lint_frame_program(bad, pattern).codes()

    def test_forward_reference(self, compiled):
        pattern, program = compiled
        steps = list(program.steps)
        steps[0] = dataclasses.replace(steps[0], z_deps=(0,))
        bad = dataclasses.replace(program, steps=tuple(steps))
        assert "R002" in lint_frame_program(bad, pattern).codes()

    def test_missing_step(self, compiled):
        pattern, program = compiled
        bad = dataclasses.replace(program, steps=program.steps[:-1])
        assert "R001" in lint_frame_program(bad, pattern).codes()

    def test_dropped_parity_check(self, compiled):
        pattern, program = compiled
        bad = dataclasses.replace(program, checks=program.checks[:-1])
        assert "R006" in lint_frame_program(bad, pattern).codes()

    def test_check_out_of_range(self, compiled):
        pattern, program = compiled
        checks = list(program.checks)
        checks[0] = dataclasses.replace(
            checks[0], frame_x=(program.num_qubits,)
        )
        bad = dataclasses.replace(program, checks=tuple(checks))
        assert "R007" in lint_frame_program(bad, pattern).codes()

    def test_check_reads_measured_row(self, compiled):
        """The engine skips the gauge reseed after a measurement, which
        is sound only while no check reads a measured qubit's row."""
        pattern, program = compiled
        checks = list(program.checks)
        checks[0] = dataclasses.replace(
            checks[0], frame_z=(program.steps[0].qubit,)
        )
        bad = dataclasses.replace(program, checks=tuple(checks))
        assert "R009" in lint_frame_program(bad, pattern).codes()


class TestCompiledProgramLint:
    @pytest.fixture()
    def compiled(self):
        from repro.core.compiler import OneQCompiler, OneQConfig
        from repro.eval.experiments import _hardware_for
        from repro.hardware.resource_state import get_resource_state

        hardware = _hardware_for(8, get_resource_state("3-line"))
        program = OneQCompiler(OneQConfig(hardware=hardware)).compile(
            get_benchmark("BV", 8, seed=7), name="BV-8"
        )
        return program, hardware

    def test_clean_program(self, compiled):
        program, hardware = compiled
        report = lint_compiled_program(program, hardware)
        assert report.ok, report.render()
        assert report.artifact == "BV-8"

    def test_photon_deficit(self, compiled):
        program, hardware = compiled
        bad = dataclasses.replace(program, photon_deficit=3)
        assert "B001" in lint_compiled_program(bad, hardware).codes()

    def test_budget_reconciliation(self, compiled):
        program, hardware = compiled
        bad = dataclasses.replace(
            program, resource_states_used=program.resource_states_used + 1
        )
        assert "B002" in lint_compiled_program(bad, hardware).codes()

    def test_layer_count_mismatch(self, compiled):
        program, hardware = compiled
        bad = dataclasses.replace(
            program, mapping_layers=program.mapping_layers + 1
        )
        codes = lint_compiled_program(bad, hardware).codes()
        assert "B004" in codes
