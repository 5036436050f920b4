"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile"])
        assert args.benchmark == "QFT"
        assert args.qubits == 16

    def test_bad_resource_state_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "--resource-state", "5-blob"])


class TestCommands:
    def test_compile_benchmark(self, capsys):
        assert main(["compile", "--benchmark", "BV", "--qubits", "8"]) == 0
        out = capsys.readouterr().out
        assert "depth=" in out and "fusions=" in out

    def test_compile_with_layout(self, capsys):
        main(["compile", "--benchmark", "BV", "--qubits", "8", "--layout", "1"])
        out = capsys.readouterr().out
        assert "layer 0" in out

    def test_compile_custom_grid(self, capsys):
        main(
            [
                "compile", "--benchmark", "BV", "--qubits", "8",
                "--rows", "10", "--cols", "10", "--resource-state", "4-star",
            ]
        )
        assert "depth=" in capsys.readouterr().out

    def test_baseline(self, capsys):
        assert main(["baseline", "--benchmark", "BV", "--qubits", "8"]) == 0
        out = capsys.readouterr().out
        assert "cluster=" in out and "swaps=" in out

    def test_export_stdout(self, capsys):
        assert main(["export", "--benchmark", "BV", "--qubits", "6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OPENQASM 2.0;")

    def test_export_file_and_compile_qasm(self, tmp_path, capsys):
        path = tmp_path / "bv.qasm"
        main(["export", "--benchmark", "BV", "--qubits", "6", "--output", str(path)])
        assert path.exists()
        assert main(["compile", "--qasm", str(path), "--rows", "8", "--cols", "8"]) == 0
        assert "depth=" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "cluster area" in out
        assert "43x43" in out

    def test_table2_quick(self, capsys):
        assert main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "BV-16" in out
        assert "Improv." in out

    def test_fig13_quick_restricts_benchmarks(self, capsys):
        assert main(["fig13", "--qubits", "6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "QFT" in out and "BV" in out
        assert "QAOA" not in out and "RCA" not in out

    def test_fig14(self, capsys):
        assert main(["fig14", "--qubits", "8"]) == 0
        out = capsys.readouterr().out
        assert "extension=3" in out
        assert "depth=" in out

    def test_ablation(self, capsys):
        assert main(["ablation", "--qubits", "8"]) == 0
        out = capsys.readouterr().out
        assert "default" in out
        assert "no-embedding" in out
        assert "lemma1-scheduling" in out

    def test_bench_quick(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(
            [
                "bench", "--quick", "--jobs", "1",
                "--out", str(out_dir), "--cache", str(tmp_path / "cache"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "QFT-16" in out and "BV-16" in out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "run_table.csv", "run_table.json"
        ]

    def test_noise_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(
            [
                "noise-sweep", "--benchmarks", "BV", "--qubits", "8",
                "--shots", "200", "--fusion-success", "0.75",
                "--cycle-loss", "0.001", "0.01", "--jobs", "1",
                "--out", str(out_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "yield_mc=" in out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "noise_sweep.csv", "noise_sweep.json"
        ]

    def test_degrade_sweep_quick(self, tmp_path, capsys):
        out_dir = tmp_path / "degrade"
        assert main(
            [
                "degrade-sweep", "--quick", "--check-recovery",
                "--jobs", "1", "--out", str(out_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "BV-8 / dead-rsg" in out
        assert "36 rows: " in out and " unrecovered" in out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "degrade_sweep.csv", "degrade_sweep.json"
        ]

    def test_noise_sweep_rejects_bad_resource_state(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["noise-sweep", "--resource-state", "5-blob"]
            )

    def test_noise_sweep_has_no_engine_flag(self):
        """The frame engine is the only sampler: no engine option."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["noise-sweep", "--mc-engine", "frame"])

    def test_bench_cache_reused(self, tmp_path, capsys):
        args = [
            "bench", "--quick", "--jobs", "1",
            "--out", str(tmp_path / "results"),
            "--cache", str(tmp_path / "cache"),
        ]
        main(args)
        capsys.readouterr()
        main(args)
        assert "[cache]" in capsys.readouterr().out


class TestInvalidInput:
    """Bad input to the circuit commands is a usage error: exit 2 and a
    one-line message on stderr, never a traceback."""

    CASES = [
        (["--benchmark", "FOO"], "unknown benchmark 'FOO'"),
        (["--qubits", "0"], "argument --qubits: must be at least 1, got 0"),
        (["--qubits", "-3"], "argument --qubits: must be at least 1, got -3"),
        (["--qasm", "/no/such/dir/circuit.qasm"], "No such file or directory"),
    ]
    HARDWARE_CASES = [
        (["--rows", "1", "--cols", "1"], "extended layer (1x1) must be at least 2x2"),
        (["--extension", "0"], "extension must be at least 1"),
        (["--max-delay", "-1"], "max_delay must be at least 1"),
    ]

    @staticmethod
    def _usage_error(argv, capsys) -> str:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return captured.err.strip().splitlines()[-1]

    @pytest.mark.parametrize("command", ["compile", "baseline", "export", "lint"])
    @pytest.mark.parametrize("extra,message", CASES)
    def test_circuit_input(self, command, extra, message, capsys):
        line = self._usage_error([command, *extra], capsys)
        assert "error:" in line and message in line

    @pytest.mark.parametrize("extra,message", HARDWARE_CASES)
    def test_compile_hardware(self, extra, message, capsys):
        argv = ["compile", "--benchmark", "BV", "--qubits", "4", *extra]
        line = self._usage_error(argv, capsys)
        assert "error: compile:" in line and message in line

    @pytest.mark.parametrize("extra,message", HARDWARE_CASES)
    def test_lint_compile_hardware(self, extra, message, capsys):
        argv = ["lint", "--compile", "--benchmark", "BV", "--qubits", "4", *extra]
        line = self._usage_error(argv, capsys)
        assert "error: lint:" in line and message in line

    def test_malformed_qasm(self, tmp_path, capsys):
        path = tmp_path / "bad.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n")
        line = self._usage_error(["compile", "--qasm", str(path)], capsys)
        assert "error: compile:" in line

    SWEEP_CASES = [
        *(
            (command, extra, message)
            for command in ("noise-sweep", "degrade-sweep")
            for extra, message in [
                (["--shots", "-5"],
                 "argument --shots: must be a non-negative integer, got -5"),
                (["--qubits", "0"],
                 "argument --qubits: must be at least 1, got 0"),
                (["--benchmarks", "FOO"], "unknown benchmark 'FOO'"),
                (["--benchmarks", "RCA", "--qubits", "2"],
                 "needs at least 4 qubits"),
            ]
        ),
        ("noise-sweep", ["--fusion-success", "1.5"],
         "argument --fusion-success: must be in [0, 1], got 1.5"),
        ("noise-sweep", ["--fusion-success", "nan"],
         "argument --fusion-success: must be in [0, 1], got nan"),
        ("noise-sweep", ["--cycle-loss", "-0.1"],
         "argument --cycle-loss: must be in [0, 1], got -0.1"),
        ("noise-sweep", ["--cycle-loss", "lots"],
         "argument --cycle-loss: invalid float value: 'lots'"),
        ("degrade-sweep", ["--severities", "1.5"],
         "argument --severities: must be in [0, 1], got 1.5"),
        ("degrade-sweep", ["--severities", "-0.2"],
         "argument --severities: must be in [0, 1], got -0.2"),
        ("noise-sweep", ["--fusion-success", "0", "--shots", "10"],
         "--fusion-success 0 cannot be sampled"),
        *(
            (command, ["--jobs", jobs],
             f"argument --jobs: must be at least 1, got {jobs}")
            for command in ("bench", "noise-sweep", "degrade-sweep")
            for jobs in ("0", "-2")
        ),
        ("serve", ["--workers", "0"],
         "argument --workers: must be at least 1, got 0"),
        ("serve", ["--mem-capacity", "-1"],
         "argument --mem-capacity: must be a non-negative integer, got -1"),
        ("serve", ["--port", "70000"],
         "argument --port: must be in [0, 65535], got 70000"),
        ("serve", ["--port", "-1"],
         "argument --port: must be in [0, 65535], got -1"),
        ("bench", ["--reference", "x"], "unrecognized arguments: --reference"),
        *(
            (command, ["--label", "x"], "unrecognized arguments: --label")
            for command in ("bench", "noise-sweep", "degrade-sweep")
        ),
        ("loadgen", [], "invalid choice: 'loadgen'"),
    ]

    @pytest.mark.parametrize("command,extra,message", SWEEP_CASES)
    def test_sweep_input(self, command, extra, message, tmp_path, capsys):
        """Checked before any run: no artifacts are written."""
        out = tmp_path / "out"
        argv = [command, *extra]
        if command != "serve":  # the server writes no artifacts
            argv += ["--out", str(out)]
        line = self._usage_error(argv, capsys)
        assert "error:" in line and message in line
        assert not out.exists()


class TestServeCLI:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 7711
        assert args.workers is None
        assert args.cache is None
        assert args.mem_capacity == 256
        # serve-mixed binds an ephemeral port
        assert build_parser().parse_args(["serve", "--port", "0"]).port == 0
