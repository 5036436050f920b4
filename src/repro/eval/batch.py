"""Batch experiment runner: grids of compiles, cached and parallel.

The table/figure runners in :mod:`repro.eval.experiments` compile one
configuration at a time.  This module adds the production layer on top:

* :class:`RunSpec` — one hashable experiment coordinate (benchmark,
  qubits, hardware, compiler knobs);
* :class:`BatchRunner` — fans specs across ``multiprocessing`` workers,
  memoizes results in a two-tier artifact store
  (:class:`repro.serve.store.ArtifactStore`: in-memory LRU over atomic
  content-hash-keyed disk files; compiles are deterministic, so a cache
  hit is exact), and returns :class:`RunRecord` rows;
* run-table artifacts — every batch can be persisted as machine-readable
  JSON + CSV (one row per run, schema in ``RUN_TABLE_COLUMNS``), the
  convention the paper-adjacent replication repos use for all analysis.
  :func:`write_run_table` is the only artifact writer: every sweep
  (Table 2, noise, degradation) persists its rows through it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing
import pathlib
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.store import ArtifactStore, atomic_write_json

SCHEMA_VERSION = 10

#: Run-table columns, in on-disk CSV order (v10 dropped the v4-v9
#: sampler-engine column: the frame engine is the only sampler).  Meanings:
#:   key                 content hash of the spec (cache identity)
#:   benchmark/num_qubits/seed   which circuit was compiled (for a QASM
#:       spec: the circuit's name and the width parsed from the text)
#:   resource_state/ratio/area/extension   hardware coordinate
#:   depth/num_fusions   the paper's two headline metrics (OneQ)
#:   synthesis/edge/routing/shuffling/z_measurements   fusion breakdown
#:   mapping_layers/shuffle_layers/num_partitions   layer accounting
#:   pattern_nodes/pattern_edges   measurement-pattern size
#:   resource_states_used/deferred_pairs/photon_deficit   bookkeeping
#:   baseline_depth/baseline_fusions   baseline interpreter on the same
#:       area (absent when the spec disables the baseline)
#:   depth_improvement/fusion_improvement   baseline / OneQ ratios
#:   seconds   OneQ compile wall time;  baseline_seconds   baseline time
#:   translate/schedule/partition/map/shuffle_seconds   per-stage compile
#:       breakdown (``bench --profile`` renders these)
#:   map_score/map_route/map_place_seconds   mapper sub-stages (v7):
#:       candidate scoring, path routing, and cell placement inside the
#:       map stage; their sum is below map_seconds, whose remainder is
#:       fusion-graph synthesis and edge-order bookkeeping
#:   verified/verify_method/verify_seconds   semantic verification stage
#:       (``verify=True`` specs): did the compiled pattern implement the
#:       circuit, which engine checked it (stabilizer for Clifford
#:       patterns, statevector for small dense ones, static flow-based
#:       determinism certification otherwise)
#:   lint_issues   static-lint error count over the pattern and compiled
#:       program (v6, ``lint=True`` specs; None = lint stage not run)
#:   noise     NoiseModel overrides as "name=value,..." ("" = defaults)
#:   shots     Monte-Carlo shots actually sampled (0 = no sampling ran,
#:       including non-Clifford programs where only the analytic yield
#:       applies)
#:   yield_mc  fraction of shots whose executed output passed the
#:       stabilizer check (None for non-Clifford programs: analytic only)
#:   yield_analytic   closed-form zero-fault probability from the
#:       compiled program's fault counts
#:   mc_attempts_per_fusion   mean sampled fusion attempts per required
#:       fusion (repeat-until-success; expected 1/fusion_success — the
#:       observable the fusion_success axis moves), tallied over the
#:       shots that completed their fusion sequence
#:   mc_seconds   wall seconds of the Monte-Carlo stage
#:   shots_per_second   Monte-Carlo sampling throughput (v4; None when
#:       no sampling ran)
#:   scenario  hardware-degradation scenario name (v9; "" = pristine
#:       hardware, no degradation stage)
#:   severity  scenario severity knob in [0, 1] (v9)
#:   dead_fraction   fraction of grid cells the scenario killed outright
#:       (v9; None when no degradation stage ran)
#:   policy    recovery policy evaluated (v9): "survive", "reroute",
#:       "recompile", or the ladder winner when the spec asked "auto"
#:   recovered   did the policy retain >= 50% of the clean yield with a
#:       non-zero yield (v9; the RECOVERY_THRESHOLD bar)
#:   yield_degraded   per-site closed-form yield of the (possibly
#:       re-routed/recompiled) program under the scenario map (v9)
#:   rerouted_fusions   fusions living on re-routed or re-placed routes
#:       (v9; 0 for survive, the full fusion count for recompile)
#:   cached    True when the row came from the artifact store
#:   cache_tier   which store tier served a cached row (v8): "memory"
#:       (in-process LRU) or "disk" (content-hash JSON file); empty for
#:       freshly computed rows
#:   cache_age_seconds   seconds between the cached artifact's original
#:       compute and this read (v8; empty for fresh rows) — the honest
#:       companion to ``seconds``, which for cached rows reports the
#:       *original* run's timing, not this invocation's
RUN_TABLE_COLUMNS: List[str] = [
    "key",
    "benchmark",
    "num_qubits",
    "seed",
    "resource_state",
    "ratio",
    "area",
    "extension",
    "depth",
    "num_fusions",
    "synthesis",
    "edge",
    "routing",
    "shuffling",
    "z_measurements",
    "mapping_layers",
    "shuffle_layers",
    "num_partitions",
    "pattern_nodes",
    "pattern_edges",
    "resource_states_used",
    "deferred_pairs",
    "photon_deficit",
    "baseline_depth",
    "baseline_fusions",
    "depth_improvement",
    "fusion_improvement",
    "seconds",
    "baseline_seconds",
    "translate_seconds",
    "schedule_seconds",
    "partition_seconds",
    "map_seconds",
    "map_score_seconds",
    "map_route_seconds",
    "map_place_seconds",
    "shuffle_seconds",
    "verified",
    "verify_method",
    "verify_seconds",
    "lint_issues",
    "noise",
    "shots",
    "yield_mc",
    "yield_analytic",
    "mc_attempts_per_fusion",
    "mc_seconds",
    "shots_per_second",
    "scenario",
    "severity",
    "dead_fraction",
    "policy",
    "recovered",
    "yield_degraded",
    "rerouted_fusions",
    "cached",
    "cache_tier",
    "cache_age_seconds",
]

#: compile stages reported by ``CompiledProgram.stage_seconds``, in
#: pipeline order (the ``verify`` stage is appended by ``execute_spec``)
PROFILE_STAGES: Tuple[str, ...] = (
    "translate", "schedule", "partition", "map",
    "map_score", "map_route", "map_place", "shuffle",
)

#: the spec-key serializer (stateless, shared across threads)
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


@dataclass(frozen=True)
class RunSpec:
    """One experiment coordinate: circuit x hardware x compiler config.

    The circuit is the library benchmark ``benchmark``/``num_qubits``
    (generated at ``seed``), or, when ``qasm`` is set, that OpenQASM
    text: ``benchmark`` then names the circuit and ``num_qubits`` is
    ignored (pass 0; the width comes from the parsed text).
    """

    benchmark: str
    num_qubits: int
    seed: int = 7
    resource_state: str = "3-line"
    ratio: float = 1.0
    area: Optional[int] = None
    extension: int = 1
    include_baseline: bool = True
    #: semantically verify the compiled pattern against the circuit
    #: (auto-picking the stabilizer, statevector or static engine)
    verify: bool = False
    #: statically lint the pattern and compiled program
    #: (:class:`repro.analysis.lint.PatternLinter`); the error count
    #: lands in the ``lint_issues`` column
    lint: bool = False
    #: Monte-Carlo shots for noisy execution (0 disables the MC stage)
    shots: int = 0
    #: ``NoiseModel`` overrides as a sorted tuple of (name, value), e.g.
    #: ``(("cycle_loss", 0.01), ("fusion_success", 0.5))``
    noise: Tuple[Tuple[str, float], ...] = ()
    #: OpenQASM 2.0 source of the circuit (None: the library benchmark)
    qasm: Optional[str] = None
    #: hardware-degradation scenario
    #: (:data:`repro.hardware.degradation.SCENARIOS`); "" disables the
    #: degradation stage
    scenario: str = ""
    #: scenario severity knob in [0, 1]
    severity: float = 0.0
    #: recovery policy to evaluate when ``scenario`` is set: "survive",
    #: "reroute", "recompile", or "auto" to walk the ladder
    #: (:func:`repro.core.recovery.recover`) and record the winner
    policy: str = "survive"
    #: extra ``OneQConfig`` kwargs as a sorted tuple of (name, value)
    compiler_options: Tuple[Tuple[str, object], ...] = ()

    def noise_label(self) -> str:
        """Canonical "name=value,..." string of the noise overrides."""
        return ",".join(f"{k}={v}" for k, v in sorted(self.noise))

    def key(self) -> str:
        """Content hash: identical specs share cache entries.

        Runs on every compile-service request, so the payload is a
        shallow copy of the instance dict (exactly the dataclass
        fields) rather than a recursive ``asdict``; the JSON is the
        same either way, so keys never change.
        """
        payload = dict(vars(self))
        payload["compiler_options"] = sorted(
            (str(k), repr(v)) for k, v in self.compiler_options
        )
        payload["noise"] = sorted((str(k), repr(v)) for k, v in self.noise)
        blob = _KEY_ENCODER.encode(payload)
        return hashlib.sha1(blob.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """One run-table row (see ``RUN_TABLE_COLUMNS`` for field meanings)."""

    key: str
    benchmark: str
    num_qubits: int
    seed: int
    resource_state: str
    ratio: float
    area: Optional[int]
    extension: int
    depth: int
    num_fusions: int
    synthesis: int
    edge: int
    routing: int
    shuffling: int
    z_measurements: int
    mapping_layers: int
    shuffle_layers: int
    num_partitions: int
    pattern_nodes: int
    pattern_edges: int
    resource_states_used: int
    deferred_pairs: int
    photon_deficit: int
    baseline_depth: Optional[int] = None
    baseline_fusions: Optional[int] = None
    depth_improvement: Optional[float] = None
    fusion_improvement: Optional[float] = None
    seconds: float = 0.0
    baseline_seconds: float = 0.0
    translate_seconds: float = 0.0
    schedule_seconds: float = 0.0
    partition_seconds: float = 0.0
    map_seconds: float = 0.0
    map_score_seconds: float = 0.0
    map_route_seconds: float = 0.0
    map_place_seconds: float = 0.0
    shuffle_seconds: float = 0.0
    verified: Optional[bool] = None
    verify_method: Optional[str] = None
    verify_seconds: float = 0.0
    lint_issues: Optional[int] = None
    noise: str = ""
    shots: int = 0
    yield_mc: Optional[float] = None
    yield_analytic: Optional[float] = None
    mc_attempts_per_fusion: Optional[float] = None
    mc_seconds: float = 0.0
    shots_per_second: Optional[float] = None
    scenario: str = ""
    severity: float = 0.0
    dead_fraction: Optional[float] = None
    policy: Optional[str] = None
    recovered: Optional[bool] = None
    yield_degraded: Optional[float] = None
    rerouted_fusions: Optional[int] = None
    cached: bool = False
    cache_tier: Optional[str] = None
    cache_age_seconds: Optional[float] = None

    @property
    def label(self) -> str:
        return f"{self.benchmark}-{self.num_qubits}"


def execute_spec(spec: RunSpec) -> RunRecord:
    """Compile one spec and measure it (runs inside worker processes)."""
    from repro.baseline.interpreter import compile_baseline
    from repro.circuit.benchmarks import get_benchmark
    from repro.circuit.qasm import from_qasm
    from repro.core.compiler import OneQCompiler, OneQConfig
    from repro.eval.experiments import _hardware_for
    from repro.hardware.resource_state import get_resource_state
    from repro.mbqc.translate import circuit_to_pattern

    rst = get_resource_state(spec.resource_state)
    if spec.qasm is None:
        circuit = get_benchmark(
            spec.benchmark, spec.num_qubits, seed=spec.seed
        )
    else:
        circuit = from_qasm(spec.qasm)
    label = f"{spec.benchmark}-{circuit.num_qubits}"
    hardware = _hardware_for(
        circuit.num_qubits,
        rst,
        ratio=spec.ratio,
        area=spec.area,
        extension=spec.extension,
    )
    compiler = OneQCompiler(
        OneQConfig(hardware=hardware, **dict(spec.compiler_options))
    )
    # translate once: the compiler consumes the pattern and the verify
    # stage re-checks the same pattern against the circuit
    t0 = time.perf_counter()
    pattern = circuit_to_pattern(circuit)
    translate_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    program = compiler.compile_pattern(
        pattern, name=label, num_qubits=circuit.num_qubits
    )
    oneq_seconds = translate_seconds + time.perf_counter() - t0
    program.stage_seconds["translate"] = translate_seconds

    verified = verify_method = None
    verify_seconds = 0.0
    if spec.verify:
        from repro.core.validate import verify_pattern

        report = verify_pattern(circuit, pattern=pattern, seed=spec.seed)
        verified = report.ok
        verify_method = report.method
        verify_seconds = report.seconds

    lint_issues = None
    if spec.lint:
        from repro.analysis.lint import lint_compiled_program, lint_pattern

        lint_report = lint_pattern(pattern, name=label)
        lint_report.extend(
            lint_compiled_program(program, hardware, name=label)
        )
        lint_issues = len(lint_report.errors())

    dead_fraction = policy_used = recovered = None
    yield_degraded = rerouted_fusions = None
    degrade_map = degrade_program = None
    if spec.scenario:
        from repro.core.recovery import POLICIES, recover
        from repro.hardware.degradation import make_scenario
        from repro.hardware.noise import NoiseModel

        degrade_map = make_scenario(
            spec.scenario,
            hardware.extended_shape,
            spec.severity,
            base=NoiseModel(**dict(spec.noise)),
            seed=spec.seed,
        )
        dead_fraction = degrade_map.dead_fraction
        report = recover(
            circuit,
            program,
            degrade_map,
            compiler.config,
            scenario=spec.scenario,
            severity=spec.severity,
            policies=POLICIES if spec.policy == "auto" else (spec.policy,),
        )
        policy_used = report.policy
        recovered = report.recovered
        yield_degraded = report.yield_degraded
        rerouted_fusions = report.rerouted_fusions
        degrade_program = report.program

    yield_mc = yield_analytic = mc_attempts = None
    shots_per_second = None
    mc_shots = 0
    mc_seconds = 0.0
    if spec.shots > 0:
        from repro.core.validate import estimate_yield
        from repro.hardware.noise import NoiseModel
        from repro.sim.noisy import FaultCounts

        estimate = None
        if degrade_map is not None:
            # degradation specs sample the policy's program under the
            # per-site map; dead-assigned fusions (a failed "survive")
            # cannot be sampled — the analytic yield_degraded column
            # already records the collapse, so MC is skipped
            from repro.hardware.degradation import program_site_profile

            if degrade_program is not None:
                try:
                    estimate = estimate_yield(
                        circuit,
                        pattern=pattern,
                        shots=spec.shots,
                        seed=spec.seed,
                        counts=FaultCounts.from_program(degrade_program),
                        site_map=degrade_map,
                        site_profile=program_site_profile(
                            degrade_program, degrade_map.shape
                        ),
                    )
                except ValueError:
                    estimate = None
        else:
            estimate = estimate_yield(
                circuit,
                pattern=pattern,
                model=NoiseModel(**dict(spec.noise)),
                shots=spec.shots,
                seed=spec.seed,
                counts=FaultCounts.from_program(program),
            )
        if estimate is not None:
            # estimate.shots is 0 when no sampling engine applied
            # (non-Clifford program, analytic-only fallback)
            mc_shots = estimate.shots
            yield_mc = estimate.yield_mc
            yield_analytic = estimate.yield_analytic
            mc_attempts = estimate.attempts_per_fusion
            mc_seconds = estimate.seconds
            shots_per_second = estimate.shots_per_second

    baseline_depth = baseline_fusions = None
    depth_improvement = fusion_improvement = None
    baseline_seconds = 0.0
    if spec.include_baseline:
        t0 = time.perf_counter()
        baseline = compile_baseline(
            circuit, name=spec.benchmark, resource_state=rst
        )
        baseline_seconds = time.perf_counter() - t0
        baseline_depth = baseline.depth
        baseline_fusions = baseline.num_fusions
        depth_improvement = baseline.depth / max(1, program.physical_depth)
        fusion_improvement = baseline.num_fusions / max(1, program.num_fusions)

    tally = program.fusions
    return RunRecord(
        key=spec.key(),
        benchmark=spec.benchmark,
        num_qubits=circuit.num_qubits,
        seed=spec.seed,
        resource_state=spec.resource_state,
        ratio=spec.ratio,
        area=spec.area,
        extension=spec.extension,
        depth=program.physical_depth,
        num_fusions=program.num_fusions,
        synthesis=tally.synthesis,
        edge=tally.edge,
        routing=tally.routing,
        shuffling=tally.shuffling,
        z_measurements=tally.z_measurements,
        mapping_layers=program.mapping_layers,
        shuffle_layers=program.shuffle_layers,
        num_partitions=program.num_partitions,
        pattern_nodes=program.pattern_nodes,
        pattern_edges=program.pattern_edges,
        resource_states_used=program.resource_states_used,
        deferred_pairs=program.deferred_pairs,
        photon_deficit=program.photon_deficit,
        baseline_depth=baseline_depth,
        baseline_fusions=baseline_fusions,
        depth_improvement=depth_improvement,
        fusion_improvement=fusion_improvement,
        seconds=oneq_seconds,
        baseline_seconds=baseline_seconds,
        translate_seconds=program.stage_seconds.get("translate", 0.0),
        schedule_seconds=program.stage_seconds.get("schedule", 0.0),
        partition_seconds=program.stage_seconds.get("partition", 0.0),
        map_seconds=program.stage_seconds.get("map", 0.0),
        map_score_seconds=program.stage_seconds.get("map_score", 0.0),
        map_route_seconds=program.stage_seconds.get("map_route", 0.0),
        map_place_seconds=program.stage_seconds.get("map_place", 0.0),
        shuffle_seconds=program.stage_seconds.get("shuffle", 0.0),
        verified=verified,
        verify_method=verify_method,
        verify_seconds=verify_seconds,
        lint_issues=lint_issues,
        noise=spec.noise_label(),
        shots=mc_shots,
        yield_mc=yield_mc,
        yield_analytic=yield_analytic,
        mc_attempts_per_fusion=mc_attempts,
        mc_seconds=mc_seconds,
        shots_per_second=shots_per_second,
        scenario=spec.scenario,
        severity=spec.severity,
        dead_fraction=dead_fraction,
        policy=policy_used,
        recovered=recovered,
        yield_degraded=yield_degraded,
        rerouted_fusions=rerouted_fusions,
    )


def record_artifact(record: RunRecord) -> Dict:
    """The stored artifact of *record*: every column but the ones that
    describe how a row was *read* (``cached``, ``cache_tier``,
    ``cache_age_seconds``).  The batch runner and the compile service
    both store and serve exactly this dict under ``RunSpec.key()``, so
    one cache directory serves either path."""
    artifact = asdict(record)
    for name in ("cached", "cache_tier", "cache_age_seconds"):
        del artifact[name]
    return artifact


class BatchRunner:
    """Run grids of :class:`RunSpec` with caching and multiprocessing.

    ``jobs=None`` picks ``min(cpu_count, #specs)``; ``jobs=1`` stays
    in-process (useful under pytest).  ``cache_dir`` enables the
    artifact store (:class:`repro.serve.store.ArtifactStore`): an
    in-memory LRU over one atomic JSON file per spec hash, shared
    across runner instances, concurrent processes and the compile
    service (:mod:`repro.serve.service` keys and stores the same
    artifacts).  Writes are
    atomic (temp file + ``os.replace``) and torn/corrupt cache files
    read as misses — the spec recomputes and overwrites the bad entry.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[pathlib.Path] = None,
        memory_capacity: int = 256,
    ):
        self.jobs = jobs
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else None
        self.store: Optional[ArtifactStore] = (
            ArtifactStore(
                cache_dir=self.cache_dir,
                memory_capacity=memory_capacity,
                schema_version=SCHEMA_VERSION,
            )
            if self.cache_dir is not None
            else None
        )

    # -- cache ---------------------------------------------------------
    def _load_cached(self, spec: RunSpec) -> Optional[RunRecord]:
        if self.store is None:
            return None
        hit = self.store.get(spec.key())
        if hit is None:
            return None
        try:
            record = RunRecord(**hit.artifact)
        except TypeError:  # column drift within one schema version
            return None
        record.cached = True
        record.cache_tier = hit.tier
        record.cache_age_seconds = round(hit.age_seconds, 3)
        return record

    def _store(self, record: RunRecord) -> None:
        if self.store is not None:
            self.store.put(record.key, record_artifact(record))

    # -- execution -----------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute *specs* (cache-first), preserving input order."""
        records: Dict[int, RunRecord] = {}
        todo: List[Tuple[int, RunSpec]] = []
        for idx, spec in enumerate(specs):
            cached = self._load_cached(spec)
            if cached is not None:
                records[idx] = cached
            else:
                todo.append((idx, spec))

        jobs = self.jobs
        if jobs is None:
            jobs = min(multiprocessing.cpu_count(), max(1, len(todo)))
        pending = [spec for _, spec in todo]
        if len(todo) <= 1 or jobs <= 1:
            fresh = [execute_spec(spec) for spec in pending]
        else:
            with multiprocessing.Pool(processes=min(jobs, len(todo))) as pool:
                fresh = pool.map(execute_spec, pending)
        for (idx, _), record in zip(todo, fresh):
            self._store(record)
            records[idx] = record
        return [records[idx] for idx in range(len(specs))]


# ----------------------------------------------------------------------
# grid helpers and artifacts
# ----------------------------------------------------------------------
def table2_specs(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
    resource_state: str = "3-line",
    seed: int = 7,
    verify: bool = False,
) -> List[RunSpec]:
    """Specs for the Table-2 benchmark grid (the default batch)."""
    from repro.eval.experiments import TABLE_BENCHMARKS

    benchmarks = list(benchmarks or TABLE_BENCHMARKS)
    return [
        RunSpec(
            benchmark=name,
            num_qubits=n,
            seed=seed,
            resource_state=resource_state,
            verify=verify,
        )
        for name, n in benchmarks
    ]


def write_run_table(
    records: Sequence[RunRecord],
    out_dir: pathlib.Path,
    stem: str = "run_table",
    meta: Optional[Dict] = None,
) -> Tuple[pathlib.Path, pathlib.Path]:
    """Persist *records* as ``<stem>.json`` + ``<stem>.csv`` in *out_dir*.

    The JSON carries schema/provenance metadata; the CSV is the flat
    analysis artifact (one row per run, ``RUN_TABLE_COLUMNS`` order).
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [asdict(r) for r in records]
    json_path = out_dir / f"{stem}.json"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "columns": RUN_TABLE_COLUMNS,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "meta": meta or {},
        "records": rows,
    }
    atomic_write_json(json_path, payload)
    csv_path = out_dir / f"{stem}.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=RUN_TABLE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col) for col in RUN_TABLE_COLUMNS})
    return json_path, csv_path


def run_grid(
    benchmarks: Optional[Sequence[Tuple[str, int]]] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[pathlib.Path] = None,
    out_dir: Optional[pathlib.Path] = None,
    stem: str = "run_table",
    seed: int = 7,
    resource_state: str = "3-line",
    verify: bool = False,
) -> List[RunRecord]:
    """One-call batch: Table-2 grid -> records (+ artifacts when asked)."""
    specs = table2_specs(
        benchmarks, resource_state=resource_state, seed=seed, verify=verify
    )
    runner = BatchRunner(jobs=jobs, cache_dir=cache_dir)
    records = runner.run(specs)
    if out_dir is not None:
        write_run_table(
            records,
            out_dir,
            stem=stem,
            meta={
                "grid": "table2",
                "seed": seed,
                "resource_state": resource_state,
                "verify": verify,
            },
        )
    return records


def render_run_records(records: Sequence[RunRecord]) -> str:
    """Terminal summary of a batch (one line per run)."""
    lines = []
    for r in records:
        origin = "cache" if r.cached else f"{r.seconds:.3f}s"
        improvement = (
            f"  depth x{r.depth_improvement:.0f} fusions x{r.fusion_improvement:.0f}"
            if r.depth_improvement is not None
            else ""
        )
        verify = ""
        if r.verify_method == "skipped":
            verify = "  verify=skipped"
        elif r.verify_method is not None:
            verify = (
                f"  verify[{r.verify_method}]="
                f"{'ok' if r.verified else 'FAILED'}"
            )
        if r.lint_issues is not None:
            verify += (
                "  lint=clean" if r.lint_issues == 0
                else f"  lint={r.lint_issues} error(s)"
            )
        noisy = ""
        if r.yield_analytic is not None:
            if r.yield_mc is not None:
                noisy = (
                    f"  yield_mc={r.yield_mc:.4f} "
                    f"analytic={r.yield_analytic:.4f} ({r.shots} shots)"
                )
            else:
                noisy = f"  yield=analytic-only:{r.yield_analytic:.4f}"
        lines.append(
            f"{r.label}: depth={r.depth} fusions={r.num_fusions:,} "
            f"[{origin}]{improvement}{verify}{noisy}"
        )
    return "\n".join(lines)


def render_stage_profile(records: Sequence[RunRecord]) -> str:
    """Per-stage compile timing breakdown (``bench --profile``)."""
    stage_cols = [f"{stage}_seconds" for stage in PROFILE_STAGES] + [
        "verify_seconds"
    ]
    header = f"{'run':<12}" + "".join(
        f"{col[:-8]:>11}" for col in stage_cols
    ) + f"{'total':>11}"
    lines = [header, "-" * len(header)]
    for r in records:
        cells = [getattr(r, col) for col in stage_cols]
        total = r.seconds + r.verify_seconds
        lines.append(
            f"{r.label:<12}"
            + "".join(f"{value:>10.3f}s" for value in cells)
            + f"{total:>10.3f}s"
        )
    return "\n".join(lines)
