"""The static verification method end to end: verify_pattern, the batch
runner's lint column, and the ``repro lint`` CLI."""

import pytest

from repro.circuit.benchmarks import get_benchmark
from repro.core.validate import verify_pattern
from repro.mbqc.translate import circuit_to_pattern


class TestVerifyStatic:
    def test_certifies_circuit_too_large_for_statevector(self):
        """Acceptance criterion: QFT-24 is non-Clifford with 24 outputs
        (past the dense limit of 12) — statically certifiable where the
        dense engine cannot go."""
        circuit = get_benchmark("QFT", 24, seed=7)
        report = verify_pattern(circuit, method="static")
        assert report.ok is True
        assert report.method == "static"
        assert "determinism certified" in report.detail

    def test_auto_falls_back_to_static_past_dense_limit(self):
        circuit = get_benchmark("QFT", 16, seed=7)
        report = verify_pattern(circuit)
        assert report.ok is True and report.method == "static"
        assert "fell back to static" in report.detail

    def test_static_detail_states_the_weaker_claim(self):
        report = verify_pattern(get_benchmark("QFT", 8, seed=7), method="static")
        assert report.ok is True
        assert "angles not checked" in report.detail

    def test_static_fails_on_corrupted_pattern(self):
        circuit = get_benchmark("BV", 8, seed=7)
        pattern = circuit_to_pattern(circuit)
        victim = next(n for n in pattern.x_deps if pattern.x_deps[n])
        pattern = pattern.replace(x_deps={**pattern.x_deps, victim: frozenset()})
        report = verify_pattern(circuit, pattern=pattern, method="static")
        assert report.ok is False
        assert "lint error" in report.detail

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown verification method"):
            verify_pattern(get_benchmark("BV", 8, seed=7), method="oracle")

    def test_forced_stabilizer_on_non_clifford_rejected(self):
        with pytest.raises(ValueError, match="Clifford"):
            verify_pattern(get_benchmark("QFT", 8, seed=7), method="stabilizer")

    def test_auto_still_prefers_executing_engines(self):
        # Clifford -> stabilizer; small dense -> statevector (unchanged)
        assert verify_pattern(get_benchmark("BV", 8, seed=7)).method == (
            "stabilizer"
        )
        assert verify_pattern(get_benchmark("QFT", 4, seed=7)).method == (
            "statevector"
        )


class TestLintCLI:
    def test_lint_command_exits_zero_on_clean_benchmark(self, capsys):
        from repro.cli import main

        code = main(["lint", "--benchmark", "BV", "--qubits", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out and "deterministic" in out

    def test_lint_frame_and_compile_flags(self, capsys):
        from repro.cli import main

        code = main(
            ["lint", "--benchmark", "BV", "--qubits", "8",
             "--frame", "--compile"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "frame program" in out and "compiled program" in out

    def test_lint_frame_skips_non_clifford(self, capsys):
        from repro.cli import main

        code = main(["lint", "--benchmark", "QFT", "--qubits", "4", "--frame"])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped (non-Clifford" in out
