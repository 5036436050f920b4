"""Mutation harness: every seeded corruption class must be caught.

This is the linter's own validation — acceptance criterion for the
analysis layer.  The harness corrupts known-good benchmark artifacts
one class at a time and requires the pinned lint codes to fire.
"""

import pytest

from repro.analysis.mutate import (
    FRAME_MUTATIONS,
    MUTATION_EXPECTED_CODES,
    PATTERN_MUTATIONS,
    MutationError,
    corrupt_frame_program,
    corrupt_pattern,
    harness_report,
)
from repro.circuit.benchmarks import get_benchmark
from repro.mbqc.translate import circuit_to_pattern


@pytest.fixture(scope="module")
def bv_artifacts():
    from repro.sim.frame import FrameProgram
    from repro.sim.stabilizer import StabilizerState

    circuit = get_benchmark("BV", 16, seed=7)
    pattern = circuit_to_pattern(circuit)
    state = StabilizerState(circuit.num_qubits)
    state.apply_circuit(circuit)
    program = FrameProgram.compile(pattern, state.stabilizer_rows())
    return pattern, program


class TestHarness:
    def test_every_mutation_class_is_caught_on_bv(self, bv_artifacts):
        """The headline guarantee: all pattern AND frame corruption
        classes fire their pinned codes on a real compiled benchmark."""
        pattern, program = bv_artifacts
        results = harness_report(pattern, frame_program=program)
        # every class must have found a mutation site on this artifact
        assert all(r["caught"] is not None for r in results.values()), {
            m: r["caught"] for m, r in results.items()
        }
        missed = {
            m: (sorted(r["expected"]), sorted(r["found"]))
            for m, r in results.items()
            if not r["caught"]
        }
        assert not missed, missed
        # the issue requires >= 6 distinct corruption classes
        assert len(results) >= 6

    def test_pattern_only_harness_on_non_clifford(self):
        pattern = circuit_to_pattern(get_benchmark("QFT", 8, seed=7))
        results = harness_report(pattern)
        assert set(results) == set(PATTERN_MUTATIONS)
        assert all(r["caught"] for r in results.values()), results

    def test_expected_codes_cover_all_mutations(self):
        assert set(MUTATION_EXPECTED_CODES) == set(
            PATTERN_MUTATIONS + FRAME_MUTATIONS
        )


class TestCorruptPattern:
    def test_mutations_do_not_touch_the_original(self, bv_artifacts):
        pattern, _ = bv_artifacts
        from repro.analysis.lint import lint_pattern

        for mutation in PATTERN_MUTATIONS:
            corrupt_pattern(pattern, mutation)
        assert lint_pattern(pattern).ok

    def test_unknown_mutation_rejected(self, bv_artifacts):
        pattern, program = bv_artifacts
        with pytest.raises(ValueError, match="unknown pattern mutation"):
            corrupt_pattern(pattern, "blow-up")
        with pytest.raises(ValueError, match="unknown frame mutation"):
            corrupt_frame_program(program, "blow-up")

    def test_no_site_raises_mutation_error(self):
        import networkx as nx

        from repro.mbqc.pattern import MeasurementPattern

        # single measured node with no dependencies at all
        pattern = MeasurementPattern(
            graph=nx.Graph([(0, 1)]),
            inputs=(0,),
            outputs=(1,),
            angles={0: 0.0},
            sequence=(0,),
        )
        with pytest.raises(MutationError):
            corrupt_pattern(pattern, "drop-x-correction")

    def test_harness_refuses_a_dirty_baseline(self, bv_artifacts):
        pattern, _ = bv_artifacts
        bad = corrupt_pattern(pattern, "measure-output")
        with pytest.raises(MutationError, match="clean baseline"):
            harness_report(bad)
