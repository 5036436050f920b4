"""yield-clifford: compile -> validate -> verify -> Monte-Carlo yield on
seeded Clifford inputs.

Three groups stress the sim layers in three different ways:

* BV-16/64/100 at high shot counts: execution-bound (the frame engine
  runs ~10^5 faulty shots; compile is a few percent of the pass);
* one random H/S/CX/CZ circuit on 48 qubits at low shots: build-bound
  (the sampler's reference run, the frame-program build and
  verification dominate);
* BV-16 under a seeded ``SiteNoiseMap`` scenario: the heterogeneous
  per-site rate path of the same sampler.

Each input's noise is fixed so its yield sits well inside (0, 1); at
default noise the random circuit would lose every shot and nothing would
execute.  The workload seed draws the BV secrets and the degradation
map.  The random circuit is one fixed draw (seed 7), like the Table-2
grid: its size and layout vary by ~10% from draw to draw, which would
swamp the timings and totals this workload exists to compare.  The
Monte-Carlo seed is pinned, as the repo's own yield estimates pin it.

Each input's compile, verify and yield stages are timed as separate
operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from bench_common import DEFAULT_SEED, Tally, Workload
from bench_trace import Tracer
from workload_compile import fingerprint

#: Monte-Carlo seed of every estimate (the repo default)
MC_SEED = DEFAULT_SEED
#: binomial standard errors the fault-free rate may stray from the
#: closed form
SIGMAS = 3.0
RANDOM_QUBITS = 48
RANDOM_GATES = 800
SITE_SCENARIO = "loss-gradient"
SITE_SEVERITY = 0.3


@dataclass
class YieldInput:
    label: str
    circuit: Any
    hardware: Any
    shots: int
    #: uniform noise model, or the base model of the site map
    model: Any
    #: degradation scenario name ("" = uniform noise)
    scenario: str = ""


def random_clifford(num_qubits: int, num_gates: int, seed: int) -> Any:
    """Seeded random circuit over H, S, CX and CZ."""
    from repro.circuit.circuit import Circuit

    rng = random.Random(seed)
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.choice(("h", "s", "cx", "cz"))
        if kind in ("h", "s"):
            circuit.add(kind, rng.randrange(num_qubits))
        else:
            circuit.add(kind, *rng.sample(range(num_qubits), 2))
    return circuit


def make_inputs(seed: int) -> List[YieldInput]:
    from repro.circuit.benchmarks import get_benchmark
    from repro.eval.experiments import _hardware_for
    from repro.hardware.noise import DEFAULT_NOISE
    from repro.hardware.resource_state import THREE_LINE

    def bv(qubits: int) -> Tuple[Any, Any]:
        return (
            get_benchmark("BV", qubits, seed=seed),
            _hardware_for(qubits, THREE_LINE),
        )

    # noise scaled per input so the zero-fault probability is ~0.3-0.6
    return [
        YieldInput("BV-16", *bv(16), 1_000_000, DEFAULT_NOISE),
        YieldInput("BV-64", *bv(64), 300_000, DEFAULT_NOISE.scaled(0.3)),
        YieldInput("BV-100", *bv(100), 300_000, DEFAULT_NOISE.scaled(0.2)),
        YieldInput(
            f"RND-{RANDOM_QUBITS}",
            random_clifford(RANDOM_QUBITS, RANDOM_GATES, DEFAULT_SEED),
            _hardware_for(RANDOM_QUBITS, THREE_LINE),
            2_000,
            DEFAULT_NOISE.scaled(0.005),
        ),
        YieldInput(
            "BV-16-site", *bv(16), 200_000, DEFAULT_NOISE.scaled(0.5),
            scenario=SITE_SCENARIO,
        ),
    ]


class YieldClifford(Workload):
    """Pass = every input through compile, ``validate_program``,
    ``verify_pattern`` and ``estimate_yield``.  Operation = one of three
    stages of one input (compile + validate, verify, yield), each timed
    and checked on its own, so the per-operation latencies separate the
    execution-bound stages from the build- and compile-bound ones."""

    name = "yield-clifford"

    def __init__(self, seed: int, tally: Tally, tracer: Tracer) -> None:
        super().__init__(seed, tally, tracer)
        self.inputs: List[YieldInput] = []

    def setup(self) -> None:
        self.inputs = make_inputs(self.seed)

    def operations(self) -> List[Tuple[str, Callable[[], Any]]]:
        ops: List[Tuple[str, Callable[[], Any]]] = []
        for item in self.inputs:
            # what the compile stage hands on to the later ones
            state: Dict[str, Any] = {}
            stages = (("compile", self.compile), ("verify", self.verify),
                      ("yield", self.sample))
            ops.extend(
                (f"{item.label} {stage}", partial(method, item, state))
                for stage, method in stages
            )
        return ops

    def programs(self) -> List[Tuple[Any, ...]]:
        return [p for label, p in self.first.items() if label.endswith(" compile")]

    def compile(self, item: YieldInput, state: Dict[str, Any]) -> Tuple[str, Any]:
        import repro.core.validate as validate
        import repro.mbqc.translate as translate
        from repro.core.compiler import OneQCompiler, OneQConfig

        state["pattern"] = pattern = translate.circuit_to_pattern(item.circuit)
        state["program"] = program = OneQCompiler(
            OneQConfig(hardware=item.hardware)
        ).compile_pattern(pattern, name=item.label, num_qubits=item.circuit.num_qubits)
        return "compile", (program, validate.validate_program(program, item.hardware))

    def verify(self, item: YieldInput, state: Dict[str, Any]) -> Tuple[str, Any]:
        import repro.core.validate as validate

        return "verify", validate.verify_pattern(item.circuit, pattern=state["pattern"])

    def sample(self, item: YieldInput, state: Dict[str, Any]) -> Tuple[str, Any]:
        import repro.core.validate as validate
        import repro.hardware.degradation as degradation
        from repro.sim.noisy import FaultCounts

        program = state["program"]
        site_map = profile = None
        if item.scenario:
            site_map = degradation.make_scenario(
                item.scenario, item.hardware.extended_shape, SITE_SEVERITY,
                base=item.model, seed=self.seed,
            )
            profile = degradation.program_site_profile(program, site_map.shape)
        return "yield", validate.estimate_yield(
            item.circuit,
            pattern=state["pattern"],
            model=item.model,
            shots=item.shots,
            seed=MC_SEED,
            counts=FaultCounts.from_program(program),
            site_map=site_map,
            site_profile=profile,
        )

    def check(self, label: str, outcome: Any) -> List[str]:
        stage, result = outcome
        if stage == "compile":
            program, (ok, errors) = result
            problems = [] if ok else [f"validate_program: {errors[0]}"]
            return problems + self.same_as_first(label, fingerprint(program))
        if stage == "verify":
            if result.ok is not True:
                return [f"verify_pattern {result.method}: {result.detail}"]
            return []
        estimate = result
        if estimate.yield_mc is None or estimate.fault_free_yield is None:
            return [f"no Monte-Carlo yield ({estimate.method})"]
        problems = []
        gap = abs(estimate.fault_free_yield - estimate.yield_analytic)
        if gap > SIGMAS * estimate.sigma:
            problems.append(
                f"fault-free yield {estimate.fault_free_yield:.5f} is "
                f"{gap / estimate.sigma:.2f} sigma from the closed form "
                f"{estimate.yield_analytic:.5f}"
            )
        if not 0.0 < estimate.yield_mc < 1.0:
            problems.append(f"yield {estimate.yield_mc} not inside (0, 1)")
        problems.extend(self.same_as_first(label, (
            estimate.yield_mc, estimate.fault_free_yield,
        )))
        return problems
