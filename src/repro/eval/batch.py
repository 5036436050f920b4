"""Batch experiment runner: grids of compiles, cached and parallel.

Every experiment is a grid of :class:`RunSpec` rows: the paper's
exhibits (``EXHIBITS`` in :mod:`repro.eval.experiments`), the noise
sweep and the degradation sweep all run through this module:

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
  (the paper's exhibits, noise, degradation) persists its rows through
  it, and :func:`read_run_table` loads them back for rendering.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import multiprocessing
import pathlib
import time
from dataclasses import (
    MISSING, asdict, dataclass, field, fields, is_dataclass,
)
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.store import ArtifactStore, atomic_write_json

SCHEMA_VERSION = 11

#: Run-table columns, in on-disk CSV order (v11 folded the per-stage
#: ``*_seconds`` columns into ``stage_seconds`` and dropped
#: ``lint_issues``).  Meanings:
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
#:   seconds   OneQ compile wall time (translate included)
#:   stage_seconds   wall seconds per stage that ran, in pipeline order
#:       (one JSON object; a JSON-text cell in the CSV): the compiler's
#:       ``CompiledProgram.stage_seconds`` (schedule, partition, map and
#:       its map_score/map_route/map_place sub-stages, shuffle) after
#:       ``translate``, then ``verify``, ``mc`` and ``baseline`` when
#:       the spec ran them.  The map sub-stages sum below ``map``, whose
#:       remainder is fusion-graph synthesis and edge-order bookkeeping;
#:       ``bench --profile`` renders the dict
#:   verified/verify_method   semantic verification stage
#:       (``verify=True`` specs): did the compiled pattern implement the
#:       circuit, which engine checked it (stabilizer for Clifford
#:       patterns, statevector for small dense ones, static flow-based
#:       determinism certification otherwise)
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
    "stage_seconds",
    "verified",
    "verify_method",
    "noise",
    "shots",
    "yield_mc",
    "yield_analytic",
    "mc_attempts_per_fusion",
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

#: the spec-key serializer (stateless, shared across threads)
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def _option_repr(value: object) -> str:
    """A compiler option's key text: ``repr``, except that a config
    dataclass names only its fields that differ from their defaults.

    Adding or dropping a defaulted config field thus leaves every key
    that does not set it unchanged, just as a spec without options
    leaves ``OneQConfig``'s defaults out of its key.
    """
    if not is_dataclass(value) or isinstance(value, type):
        return repr(value)
    changed = []
    for spec_field in fields(value):
        current = getattr(value, spec_field.name)
        if spec_field.default is not MISSING:
            default = spec_field.default
        elif spec_field.default_factory is not MISSING:
            default = spec_field.default_factory()
        else:
            default = MISSING
        if default is MISSING or current != default:
            changed.append(f"{spec_field.name}={_option_repr(current)}")
    return f"{type(value).__name__}({', '.join(changed)})"


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
            (str(k), _option_repr(v)) for k, v in self.compiler_options
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
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    verified: Optional[bool] = None
    verify_method: Optional[str] = None
    noise: str = ""
    shots: int = 0
    yield_mc: Optional[float] = None
    yield_analytic: Optional[float] = None
    mc_attempts_per_fusion: Optional[float] = None
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


#: the modules the verify and mc stages run on.  ``execute_spec``
#: imports them before it starts a stage's timer, so ``stage_seconds``
#: charges a stage its work, not a process's first import of its engine
#: (numpy itself loads ``numpy.random`` only on first use).
_STAGE_ENGINES = {
    "verify": (
        "numpy.random", "repro.analysis.lint", "repro.sim.pattern_sim",
        "repro.sim.statevector",
    ),
    "mc": ("numpy.random", "repro.sim.noisy"),
}


def _load_engines(stage: str) -> None:
    for module in _STAGE_ENGINES[stage]:
        importlib.import_module(module)


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
    # every stage that runs adds its wall seconds here, in pipeline order
    stage_seconds = {"translate": translate_seconds, **program.stage_seconds}

    verified = verify_method = None
    if spec.verify:
        from repro.core.validate import verify_pattern

        _load_engines("verify")
        t0 = time.perf_counter()
        report = verify_pattern(circuit, pattern=pattern, seed=spec.seed)
        stage_seconds["verify"] = time.perf_counter() - t0
        verified = report.ok
        verify_method = report.method

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
    if spec.shots > 0:
        from repro.core.validate import estimate_yield
        from repro.hardware.noise import NoiseModel
        from repro.sim.noisy import FaultCounts

        _load_engines("mc")
        t0 = time.perf_counter()
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
            stage_seconds["mc"] = time.perf_counter() - t0
            # estimate.shots is 0 when no sampling engine applied
            # (non-Clifford program, analytic-only fallback)
            mc_shots = estimate.shots
            yield_mc = estimate.yield_mc
            yield_analytic = estimate.yield_analytic
            mc_attempts = estimate.attempts_per_fusion
            shots_per_second = estimate.shots_per_second

    baseline_depth = baseline_fusions = None
    depth_improvement = fusion_improvement = None
    if spec.include_baseline:
        t0 = time.perf_counter()
        baseline = compile_baseline(
            circuit, name=spec.benchmark, resource_state=rst
        )
        stage_seconds["baseline"] = time.perf_counter() - t0
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
        stage_seconds=stage_seconds,
        verified=verified,
        verify_method=verify_method,
        noise=spec.noise_label(),
        shots=mc_shots,
        yield_mc=yield_mc,
        yield_analytic=yield_analytic,
        mc_attempts_per_fusion=mc_attempts,
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
# run-table artifacts
# ----------------------------------------------------------------------
def write_run_table(
    records: Sequence[RunRecord],
    out_dir: pathlib.Path,
    stem: str = "run_table",
    meta: Optional[Dict] = None,
) -> Tuple[pathlib.Path, pathlib.Path]:
    """Persist *records* as ``<stem>.json`` + ``<stem>.csv`` in *out_dir*.

    The JSON carries schema/provenance metadata; the CSV is the flat
    analysis artifact (one row per run, ``RUN_TABLE_COLUMNS`` order,
    ``stage_seconds`` as one JSON-text cell).
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
            cells = {col: row.get(col) for col in RUN_TABLE_COLUMNS}
            cells["stage_seconds"] = json.dumps(cells["stage_seconds"])
            writer.writerow(cells)
    return json_path, csv_path


def read_run_table(json_path: pathlib.Path) -> List[RunRecord]:
    """The records of a run table :func:`write_run_table` wrote."""
    payload = json.loads(pathlib.Path(json_path).read_text())
    return [RunRecord(**row) for row in payload["records"]]


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
    """Per-stage timing breakdown (``bench --profile``): ``seconds``,
    then one column per ``stage_seconds`` key, in first-seen order."""
    stages: Dict[str, None] = {}
    for r in records:
        stages.update(dict.fromkeys(r.stage_seconds))
    header = f"{'run':<12}{'seconds':>11}" + "".join(
        f"{stage:>11}" for stage in stages
    )
    lines = [header, "-" * len(header)]
    for r in records:
        cells = [r.seconds] + [r.stage_seconds.get(stage) for stage in stages]
        lines.append(f"{r.label:<12}" + "".join(
            f"{'-':>11}" if value is None else f"{value:>10.3f}s"
            for value in cells
        ))
    return "\n".join(lines)
