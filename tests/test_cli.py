"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]

#: the exhibit subcommands: renderers without options
EXHIBITS = {
    "table1", "table2", "fig12", "fig13", "fig14", "fig15", "ablation",
    "noise-sweep", "degrade-sweep",
}

#: the options the sweep subcommands took before they became renderers
FORMER_SWEEP_FLAGS = [
    *(
        ("noise-sweep", flag)
        for flag in (
            "--benchmarks", "--qubits", "--shots", "--fusion-success",
            "--cycle-loss", "--resource-state", "--jobs", "--out",
            "--cache", "--stem", "--seed",
        )
    ),
    *(
        ("degrade-sweep", flag)
        for flag in (
            "--benchmarks", "--qubits", "--scenarios", "--severities",
            "--policies", "--shots", "--jobs", "--out", "--cache",
            "--stem", "--seed", "--quick", "--check-recovery",
        )
    ),
]


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

    @pytest.mark.parametrize(
        "exhibit,expected",
        [
            ("table2", "BV-100"),
            ("fig12", "#fusion improvement"),
            ("fig13", "ratio 2.6"),
            ("fig14", "extension=3"),
            ("fig15", "area 1000"),
            ("ablation", "lemma1-scheduling"),
            ("noise-sweep", "cycle_loss=0.01,fusion_success=0.75"),
            ("degrade-sweep", "120 rows: "),
        ],
    )
    def test_exhibit_renders_committed_table(
        self, exhibit, expected, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO)
        assert main([exhibit]) == 0
        captured = capsys.readouterr()
        assert expected in captured.out
        assert captured.err == ""

    def test_exhibit_claim_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        """A table that misses a claim renders, then fails the claim."""
        table = json.loads((REPO / "benchmarks" / "fig15.json").read_text())
        for row in table["records"]:
            if row["benchmark"] == "BV" and row["area"] == 100:
                row["depth"] = 1
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "fig15.json").write_text(json.dumps(table))
        monkeypatch.chdir(tmp_path)
        assert main(["fig15"]) == 1
        captured = capsys.readouterr()
        assert "area 1000" in captured.out
        assert captured.err.strip() == (
            "error: claim: BV-16: depth at area 100 is below depth at "
            "area 1000"
        )

    def test_bench_grid_writes_exhibit_table(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(
            ["bench", "--grid", "fig14", "--jobs", "1", "--out", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "extension=3 mapping_layers=14" in out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "fig14.csv", "fig14.json"
        ]
        meta = json.loads((out_dir / "fig14.json").read_text())["meta"]
        assert meta == {"grid": "fig14", "seed": 7, "verify": False}

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

    def test_degrade_sweep_exits_1_on_failed_recovery_gate(
        self, tmp_path, monkeypatch, capsys
    ):
        """A survival table where no scenario collapses renders, then
        fails the recovery gate."""
        table = json.loads(
            (REPO / "benchmarks" / "degrade_sweep.json").read_text()
        )
        for row in table["records"]:
            row["recovered"] = True
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "degrade_sweep.json").write_text(
            json.dumps(table)
        )
        monkeypatch.chdir(tmp_path)
        assert main(["degrade-sweep"]) == 1
        captured = capsys.readouterr()
        assert "BV-8 / dead-rsg" in captured.out
        assert "120 rows: 0 survive collapse(s)" in captured.out
        assert "error: claim: no scenario collapsed" in captured.err

    def test_bench_noise_sweep_grid(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(
            ["bench", "--grid", "noise-sweep", "--jobs", "1",
             "--out", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "yield_mc=" in out and "BV-16" in out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "noise_sweep.csv", "noise_sweep.json"
        ]
        meta = json.loads((out_dir / "noise_sweep.json").read_text())["meta"]
        assert meta == {"grid": "noise-sweep", "seed": 7, "verify": False}

    def test_bench_exits_1_on_failed_claim(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.eval import experiments

        monkeypatch.setattr(
            experiments, "check_claims", lambda exhibit, records: ["boom"]
        )
        out_dir = tmp_path / "results"
        assert main(
            ["bench", "--grid", "fig14", "--jobs", "1", "--out", str(out_dir)]
        ) == 1
        captured = capsys.readouterr()
        assert "extension=3" in captured.out
        assert captured.err.strip() == "error: claim: boom"
        # the table is written before its claims are checked
        assert (out_dir / "fig14.json").exists()

    def test_bench_quick_checks_no_claim(
        self, tmp_path, monkeypatch, capsys
    ):
        """--quick runs part of Table 2, whose claims need every row."""
        from repro.eval import experiments

        monkeypatch.setattr(
            experiments, "check_claims", lambda exhibit, records: ["boom"]
        )
        assert main(
            ["bench", "--quick", "--jobs", "1",
             "--out", str(tmp_path / "results")]
        ) == 0

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

    @pytest.mark.parametrize("command", ["compile", "baseline", "export", "lint"])
    def test_removed_max_delay_flag(self, command, capsys):
        """The compiler never read the delay-line bound, so the flag is
        gone rather than accepted and ignored."""
        argv = [command, "--benchmark", "BV", "--qubits", "4", "--max-delay", "2"]
        line = self._usage_error(argv, capsys)
        assert "unrecognized arguments: --max-delay" in line

    @pytest.mark.parametrize("exhibit", sorted(EXHIBITS - {"table1"}))
    def test_exhibit_without_run_table(self, exhibit, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.chdir(tmp_path)
        line = self._usage_error([exhibit], capsys)
        assert f"error: {exhibit}: no run table benchmarks/" in line
        assert f"`repro bench --grid {exhibit} --out benchmarks`" in line

    def test_malformed_qasm(self, tmp_path, capsys):
        path = tmp_path / "bad.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n")
        line = self._usage_error(["compile", "--qasm", str(path)], capsys)
        assert "error: compile:" in line

    SWEEP_CASES = [
        *(
            ("bench", ["--jobs", jobs],
             f"argument --jobs: must be at least 1, got {jobs}")
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
        *(
            ("bench", ["--grid", grid, "--quick"],
             "--quick applies to --grid table2 only")
            for grid in ("fig12", "degrade-sweep")
        ),
        ("bench", ["--grid", "fig15", "--resource-state", "4-star"],
         "--resource-state applies to --grid table2 only"),
        ("bench", ["--grid", "fig99"], "unknown grid 'fig99'"),
        ("bench", ["--stem", "x"], "unrecognized arguments: --stem"),
        *(
            (exhibit, ["--qubits", "8"], "unrecognized arguments: --qubits")
            for exhibit in (
                "table1", "table2", "fig12", "fig13", "fig14", "fig15",
                "ablation",
            )
        ),
        *(
            (command, [flag], f"unrecognized arguments: {flag}")
            for command, flag in FORMER_SWEEP_FLAGS
        ),
        ("fig13", ["--quick"], "unrecognized arguments: --quick"),
    ]

    @pytest.mark.parametrize("command,extra,message", SWEEP_CASES)
    def test_sweep_input(self, command, extra, message, tmp_path, capsys):
        """Checked before any run: no artifacts are written."""
        out = tmp_path / "out"
        argv = [command, *extra]
        if command != "serve" and command not in EXHIBITS:
            # the server and the renderers take no --out
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
