"""Tests for the batch experiment runner and its artifacts."""

import csv
import json

import pytest

from repro.circuit import get_benchmark
from repro.eval.batch import (
    RUN_TABLE_COLUMNS,
    SCHEMA_VERSION,
    BatchRunner,
    RunSpec,
    execute_spec,
    render_run_records,
    write_run_table,
)
from repro.eval.experiments import table2_specs

QUICK = [("BV", 8), ("BV", 12)]


class TestRunSpec:
    def test_key_stable_and_distinct(self):
        a = RunSpec("BV", 8)
        b = RunSpec("BV", 8)
        c = RunSpec("BV", 12)
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_key_sensitive_to_compiler_options(self):
        a = RunSpec("BV", 8)
        b = RunSpec("BV", 8, compiler_options=(("alpha", 2.0),))
        assert a.key() != b.key()

    def test_key_sensitive_to_qasm_source(self):
        from repro.circuit.qasm import to_qasm

        a = RunSpec("c", 0, qasm=to_qasm(get_benchmark("BV", 6, seed=7)))
        b = RunSpec("c", 0, qasm=to_qasm(get_benchmark("BV", 6, seed=8)))
        assert len({a.key(), b.key(), RunSpec("c", 0).key()}) == 3

    def test_keys_match_committed_run_table(self):
        """Spec keys are stable across releases: the committed Table-2
        run table's keys are today's, so existing caches stay valid."""
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "run_table.json"
        )
        committed = [r["key"] for r in json.loads(path.read_text())["records"]]
        assert len(committed) == 14
        assert [s.key() for s in table2_specs()] == committed


class TestExecuteSpec:
    def test_matches_direct_compile(self):
        """The batch path reproduces a direct compile exactly."""
        from repro.baseline.interpreter import compile_baseline
        from repro.core.compiler import OneQCompiler, OneQConfig
        from repro.eval.experiments import _hardware_for
        from repro.hardware.resource_state import THREE_LINE

        record = execute_spec(RunSpec("BV", 16))
        circuit = get_benchmark("BV", 16, seed=7)
        baseline = compile_baseline(
            circuit, name="BV", resource_state=THREE_LINE
        )
        hardware = _hardware_for(16, THREE_LINE)
        oneq = OneQCompiler(OneQConfig(hardware=hardware)).compile(circuit)
        assert record.depth == oneq.physical_depth
        assert record.num_fusions == oneq.num_fusions
        assert record.baseline_depth == baseline.depth
        assert record.baseline_fusions == baseline.num_fusions
        assert record.depth_improvement == pytest.approx(
            baseline.depth / oneq.physical_depth
        )

    def test_qasm_spec_matches_library_spec(self):
        """A QASM spec compiles the parsed circuit: same metrics as the
        library benchmark it was exported from, width from the text."""
        from repro.circuit.qasm import to_qasm

        qasm = to_qasm(get_benchmark("BV", 8, seed=7))
        record = execute_spec(RunSpec("bv8", 0, qasm=qasm))
        library = execute_spec(RunSpec("BV", 8))
        assert record.benchmark == "bv8"
        assert record.num_qubits == 8
        assert (record.depth, record.num_fusions, record.baseline_depth) == (
            library.depth, library.num_fusions, library.baseline_depth
        )

    def test_qasm_spec_samples_the_library_yield(self):
        """The noisy stage runs on the parsed circuit: same seed, same
        compiled program, so the same sampled yield."""
        from repro.circuit.qasm import to_qasm

        qasm = to_qasm(get_benchmark("BV", 8, seed=7))
        record = execute_spec(RunSpec("bv8", 0, qasm=qasm, shots=200))
        library = execute_spec(RunSpec("BV", 8, shots=200))
        assert record.shots == 200
        assert (record.yield_mc, record.mc_attempts_per_fusion) == (
            library.yield_mc, library.mc_attempts_per_fusion
        )

    def test_no_baseline(self):
        record = execute_spec(RunSpec("BV", 8, include_baseline=False))
        assert record.baseline_depth is None
        assert record.depth_improvement is None
        assert record.depth >= 1

    def test_compiler_options_forwarded(self):
        plain = execute_spec(RunSpec("QFT", 8))
        hintless = execute_spec(
            RunSpec("QFT", 8, compiler_options=(("use_placement_hints", False),))
        )
        # the option must reach the compiler; metrics differ for QFT
        assert (plain.depth, plain.num_fusions) != (
            hintless.depth,
            hintless.num_fusions,
        )


class TestBatchRunner:
    def test_serial_run_preserves_order(self):
        records = BatchRunner(jobs=1).run([RunSpec(n, q) for n, q in QUICK])
        assert [(r.benchmark, r.num_qubits) for r in records] == QUICK
        assert all(not r.cached for r in records)

    def test_parallel_matches_serial(self):
        specs = [RunSpec(n, q) for n, q in QUICK]
        serial = BatchRunner(jobs=1).run(specs)
        parallel = BatchRunner(jobs=2).run(specs)
        for a, b in zip(serial, parallel):
            assert a.depth == b.depth
            assert a.num_fusions == b.num_fusions
            assert a.key == b.key

    def test_cache_roundtrip(self, tmp_path):
        specs = [RunSpec("BV", 8)]
        first = BatchRunner(jobs=1, cache_dir=tmp_path).run(specs)
        assert not first[0].cached
        assert (tmp_path / f"{specs[0].key()}.json").exists()
        second = BatchRunner(jobs=1, cache_dir=tmp_path).run(specs)
        assert second[0].cached
        assert second[0].depth == first[0].depth
        assert second[0].num_fusions == first[0].num_fusions

    def test_corrupt_cache_recomputed(self, tmp_path):
        spec = RunSpec("BV", 8)
        (tmp_path / f"{spec.key()}.json").write_text("not json")
        records = BatchRunner(jobs=1, cache_dir=tmp_path).run([spec])
        assert not records[0].cached
        assert records[0].depth >= 1


class TestArtifacts:
    def test_run_table_json_and_csv(self, tmp_path):
        records = BatchRunner(jobs=1).run([RunSpec(n, q) for n, q in QUICK])
        json_path, csv_path = write_run_table(
            records, tmp_path, meta={"grid": "test"}
        )
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == RUN_TABLE_COLUMNS
        assert payload["meta"] == {"grid": "test"}
        assert len(payload["records"]) == len(QUICK)
        with csv_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(QUICK)
        assert set(rows[0].keys()) == set(RUN_TABLE_COLUMNS)
        assert rows[0]["benchmark"] == "BV"
        assert int(rows[0]["depth"]) == records[0].depth

    def test_render_run_records(self):
        records = BatchRunner(jobs=1).run([RunSpec("BV", 8)])
        text = render_run_records(records)
        assert "BV-8" in text
        assert "depth=" in text


class TestVerifyStage:
    def test_clifford_benchmark_verifies_on_stabilizer(self):
        record = execute_spec(RunSpec("BV", 8, verify=True))
        assert record.verified is True
        assert record.verify_method == "stabilizer"
        assert record.stage_seconds["verify"] > 0

    def test_large_clifford_benchmark_still_verifies(self):
        """The stabilizer path scales past dense limits."""
        record = execute_spec(RunSpec("BV", 24, verify=True))
        assert record.verified is True
        assert record.verify_method == "stabilizer"

    def test_small_non_clifford_verifies_dense(self):
        record = execute_spec(RunSpec("QFT", 4, verify=True))
        assert record.verified is True
        assert record.verify_method == "statevector"

    def test_verify_off_by_default(self):
        record = execute_spec(RunSpec("BV", 8))
        assert record.verified is None
        assert record.verify_method is None
        assert "verify" not in record.stage_seconds

    def test_verify_changes_cache_key(self):
        assert RunSpec("BV", 8).key() != RunSpec("BV", 8, verify=True).key()

    def test_render_marks_verification(self):
        from repro.eval.batch import render_run_records

        record = execute_spec(RunSpec("BV", 8, verify=True))
        assert "verify[stabilizer]=ok" in render_run_records([record])


class TestNoisyStage:
    """Schema v3/v4: Monte-Carlo yield columns in the run table."""

    def test_mc_stage_off_by_default(self):
        record = execute_spec(RunSpec("BV", 8))
        assert record.shots == 0
        assert record.yield_mc is None
        assert record.yield_analytic is None
        assert "mc" not in record.stage_seconds
        assert record.noise == ""

    def test_clifford_benchmark_samples_yield(self):
        record = execute_spec(RunSpec("BV", 8, shots=500))
        assert record.shots == 500
        assert 0.0 <= record.yield_mc <= 1.0
        assert 0.0 < record.yield_analytic < 1.0
        assert record.yield_mc >= 0.0
        assert record.stage_seconds["mc"] > 0.0
        # boosted fusions retry ~1/0.75 times on average
        assert record.mc_attempts_per_fusion == pytest.approx(4 / 3, rel=0.1)
        assert record.shots_per_second > 0.0

    def test_non_clifford_benchmark_analytic_only(self):
        record = execute_spec(RunSpec("QFT", 8, shots=200))
        assert record.yield_mc is None
        assert record.yield_analytic is not None
        # no sampling ran, so the recorded shot count must be 0
        assert record.shots == 0
        assert record.mc_attempts_per_fusion is None
        assert record.shots_per_second is None

    def test_fusion_success_moves_sampled_attempts(self):
        """The fusion_success sweep axis must be observable in the
        record (yields are invariant under repeat-until-success, but
        attempts are not)."""
        bare = execute_spec(
            RunSpec("BV", 8, shots=400, noise=(("fusion_success", 0.5),))
        )
        boosted = execute_spec(
            RunSpec("BV", 8, shots=400, noise=(("fusion_success", 0.75),))
        )
        assert bare.mc_attempts_per_fusion == pytest.approx(2.0, rel=0.1)
        assert boosted.mc_attempts_per_fusion == pytest.approx(4 / 3, rel=0.1)
        assert bare.mc_attempts_per_fusion > boosted.mc_attempts_per_fusion

    def test_noise_overrides_reach_the_model(self):
        lossless = execute_spec(
            RunSpec("BV", 8, shots=400, noise=(("cycle_loss", 0.0),))
        )
        lossy = execute_spec(
            RunSpec("BV", 8, shots=400, noise=(("cycle_loss", 0.05),))
        )
        assert lossy.yield_analytic < lossless.yield_analytic
        assert lossy.yield_mc < lossless.yield_mc
        assert lossy.noise == "cycle_loss=0.05"

    def test_shots_and_noise_change_cache_key(self):
        base = RunSpec("BV", 8)
        assert base.key() != RunSpec("BV", 8, shots=100).key()
        assert base.key() != RunSpec(
            "BV", 8, noise=(("cycle_loss", 0.01),)
        ).key()

    def test_noisy_record_survives_cache_roundtrip(self, tmp_path):
        spec = RunSpec("BV", 8, shots=300)
        first = BatchRunner(jobs=1, cache_dir=tmp_path).run([spec])
        second = BatchRunner(jobs=1, cache_dir=tmp_path).run([spec])
        assert second[0].cached
        assert second[0].yield_mc == first[0].yield_mc
        assert second[0].yield_analytic == first[0].yield_analytic

    def test_yield_columns_in_run_table(self, tmp_path):
        records = BatchRunner(jobs=1).run([RunSpec("BV", 8, shots=200)])
        _, csv_path = write_run_table(records, tmp_path)
        with csv_path.open() as handle:
            row = next(iter(csv.DictReader(handle)))
        for column in (
            "noise",
            "shots",
            "yield_mc",
            "yield_analytic",
            "mc_attempts_per_fusion",
            "shots_per_second",
        ):
            assert column in row
        assert "mc_engine" not in row  # v10: one sampler, no column
        assert row["shots"] == "200"
        assert 0.0 <= float(row["yield_mc"]) <= 1.0
        assert float(row["shots_per_second"]) > 0.0

    def test_render_shows_yields(self):
        records = BatchRunner(jobs=1).run([RunSpec("BV", 8, shots=200)])
        text = render_run_records(records)
        assert "yield_mc=" in text
        assert "200 shots" in text


class TestNoiseSweep:
    def test_specs_cover_the_grid(self):
        from repro.eval.experiments import noise_sweep_specs

        specs = noise_sweep_specs(
            benchmarks=[("BV", 8)],
            fusion_success=(0.5, 0.75),
            cycle_loss=(0.001,),
            resource_states=("3-line", "4-star"),
            shots=100,
        )
        assert len(specs) == 4
        assert all(s.shots == 100 for s in specs)
        assert {s.resource_state for s in specs} == {"3-line", "4-star"}

    def test_run_exhibit_writes_noise_sweep_table(self, tmp_path):
        from repro.eval.experiments import run_exhibit

        records = run_exhibit(
            "noise-sweep",
            jobs=1,
            out_dir=tmp_path,
            benchmarks=[("BV", 8)],
            fusion_success=(0.75,),
            cycle_loss=(0.001, 0.01),
            shots=200,
        )
        assert len(records) == 2
        assert all(r.yield_mc is not None for r in records)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "noise_sweep.csv", "noise_sweep.json"
        ]
        payload = json.loads((tmp_path / "noise_sweep.json").read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["meta"]["grid"] == "noise-sweep"
        assert payload["meta"]["benchmarks"] == [["BV", 8]]
        assert len(payload["records"]) == 2
        for entry in payload["records"]:
            assert 0.0 <= entry["yield_mc"] <= 1.0
            assert entry["shots"] == 200
            assert entry["shots_per_second"] > 0.0

    def test_fusion_success_zero_cannot_be_sampled(self):
        """Repeat-until-success never ends at fusion_success 0: the
        sampler refuses the spec instead of hanging."""
        spec = RunSpec("BV", 8, shots=10, noise=(("fusion_success", 0.0),))
        with pytest.raises(ValueError):
            execute_spec(spec)

    def test_committed_artifact_is_current_schema(self):
        """benchmarks/noise_sweep.json must track the current
        schema."""
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "noise_sweep.json"
        )
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["columns"] == RUN_TABLE_COLUMNS
        assert payload["records"]
        bv_rows = [
            entry
            for entry in payload["records"]
            if entry["benchmark"] == "BV"
        ]
        assert bv_rows and all(
            entry["yield_mc"] is not None and entry["shots"] >= 2000
            for entry in bv_rows
        )


class TestStageProfile:
    """Schema v11: one ``stage_seconds`` column carries every stage's
    wall time, from the compiler's dict through the run table."""

    def test_one_timing_column(self):
        assert SCHEMA_VERSION == 11
        assert len(RUN_TABLE_COLUMNS) == 47
        timed = [c for c in RUN_TABLE_COLUMNS if c.endswith("_seconds")]
        assert timed == ["stage_seconds", "cache_age_seconds"]
        assert "lint_issues" not in RUN_TABLE_COLUMNS

    def test_stage_seconds_recorded(self):
        record = execute_spec(RunSpec("BV", 8))
        compile_stages = ["translate", "schedule", "partition", "map",
                          "shuffle"]
        assert list(record.stage_seconds)[:4] == compile_stages[:4]
        assert all(value >= 0.0 for value in record.stage_seconds.values())
        assert record.stage_seconds["map"] > 0.0
        # stage breakdown stays within the total compile time
        assert sum(record.stage_seconds[s] for s in compile_stages) <= (
            record.seconds
        )

    def test_run_stages_only_when_they_ran(self):
        full = execute_spec(RunSpec("BV", 8, verify=True, shots=200))
        assert list(full.stage_seconds)[-3:] == ["verify", "mc", "baseline"]
        for stage in ("verify", "mc", "baseline"):
            assert full.stage_seconds[stage] > 0.0
        plain = execute_spec(RunSpec("BV", 8, include_baseline=False))
        assert not {"verify", "mc", "baseline"} & set(plain.stage_seconds)

    def test_csv_cell_is_json_of_the_dict(self, tmp_path):
        records = BatchRunner(jobs=1).run([RunSpec("BV", 8, verify=True)])
        _, csv_path = write_run_table(records, tmp_path)
        with csv_path.open() as handle:
            row = next(iter(csv.DictReader(handle)))
        assert json.loads(row["stage_seconds"]) == records[0].stage_seconds
        assert row["verified"] == "True"
        assert row["verify_method"] == "stabilizer"

    def test_render_stage_profile(self):
        from repro.eval.batch import render_stage_profile

        records = BatchRunner(jobs=1).run(
            [RunSpec("BV", 8, verify=True), RunSpec("BV", 12)]
        )
        lines = render_stage_profile(records).splitlines()
        for stage in ("translate", "shuffle", "map_route", "verify"):
            assert stage in lines[0]
        assert lines[2].startswith("BV-8") and lines[3].startswith("BV-12")
        # BV-12 ran no verify stage: its cell is a dash, not a zero
        assert lines[3].split()[-2] == "-"

    def test_verify_survives_cache_roundtrip(self, tmp_path):
        spec = RunSpec("BV", 8, verify=True)
        first = BatchRunner(jobs=1, cache_dir=tmp_path).run([spec])
        second = BatchRunner(jobs=1, cache_dir=tmp_path).run([spec])
        assert second[0].cached
        assert second[0].verified is True
        assert second[0].verify_method == "stabilizer"
        # a cached row keeps the original run's stage timings
        assert second[0].stage_seconds == first[0].stage_seconds


class TestCacheTiers:
    """The ISSUE-8 cache satellites: torn-file recovery, tier/age
    provenance columns, and tmp-file hygiene."""

    def test_torn_cache_file_is_a_miss_and_gets_repaired(self, tmp_path):
        """A partially-written cache entry (as left by a crash mid-write
        before atomic replace existed) must read as a miss, recompute,
        and be overwritten with a complete entry."""
        spec = RunSpec("BV", 8)
        fresh = BatchRunner(jobs=1, cache_dir=tmp_path).run([spec])
        path = tmp_path / f"{spec.key()}.json"
        complete = path.read_text()
        path.write_text(complete[: len(complete) // 2])  # tear the file

        repaired = BatchRunner(jobs=1, cache_dir=tmp_path).run([spec])
        assert not repaired[0].cached  # the torn entry was not trusted
        assert repaired[0].depth == fresh[0].depth
        # the recompute overwrote the torn entry with a parseable one
        assert json.loads(path.read_text())["artifact"]["depth"] == fresh[0].depth
        third = BatchRunner(jobs=1, cache_dir=tmp_path).run([spec])
        assert third[0].cached

    def test_fresh_and_cached_rows_are_distinguishable(self, tmp_path):
        spec = RunSpec("BV", 8)
        fresh = BatchRunner(jobs=1, cache_dir=tmp_path).run([spec])[0]
        assert fresh.cached is False
        assert fresh.cache_tier is None
        assert fresh.cache_age_seconds is None

        cached = BatchRunner(jobs=1, cache_dir=tmp_path).run([spec])[0]
        assert cached.cached is True
        assert cached.cache_tier == "disk"  # new runner: memory tier is cold
        assert cached.cache_age_seconds >= 0.0

    def test_memory_tier_hit_within_one_runner(self, tmp_path):
        spec = RunSpec("BV", 8)
        runner = BatchRunner(jobs=1, cache_dir=tmp_path)
        runner.run([spec])
        again = runner.run([spec])[0]
        assert again.cached is True
        assert again.cache_tier == "memory"

    def test_cache_columns_flow_into_artifacts(self, tmp_path):
        spec = RunSpec("BV", 8)
        BatchRunner(jobs=1, cache_dir=tmp_path / "cache").run([spec])
        cached = BatchRunner(jobs=1, cache_dir=tmp_path / "cache").run([spec])

        assert "cache_tier" in RUN_TABLE_COLUMNS
        assert "cache_age_seconds" in RUN_TABLE_COLUMNS
        json_path, csv_path = write_run_table(cached, tmp_path)
        with csv_path.open() as handle:
            row = next(iter(csv.DictReader(handle)))
        assert row["cached"] == "True"
        assert row["cache_tier"] == "disk"
        assert float(row["cache_age_seconds"]) >= 0.0

        record = json.loads(json_path.read_text())["records"][0]
        assert record["cached"] is True
        assert record["cache_tier"] == "disk"
        assert record["cache_age_seconds"] >= 0.0

    def test_no_tmp_files_left_in_cache_dir(self, tmp_path):
        BatchRunner(jobs=1, cache_dir=tmp_path).run(
            [RunSpec(n, q) for n, q in QUICK]
        )
        leftovers = [p.name for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []
