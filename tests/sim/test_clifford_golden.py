"""Golden values of the Clifford verify + Monte-Carlo yield path.

Pins ``verify_pattern(...).ok`` and ``estimate_yield``'s ``yield_mc`` /
``fault_free_yield`` exactly at seed 7, so any change to the tableau
kernels (outcomes, rng draws, collapse order) that perturbs the sampled
yields fails here even when the yields stay statistically plausible.
The values are the outputs of the row-popcount measurement and the
row-by-row stabilizer product that the current kernels replaced.
"""

import pytest

from repro.circuit.benchmarks import get_benchmark
from repro.core.validate import estimate_yield, verify_pattern
from repro.hardware.noise import DEFAULT_NOISE
from tests.conftest import random_circuit

SEED = 7

#: label -> (circuit factory, noise model, shots, yield_mc, fault_free)
CASES = {
    "BV-16": (
        lambda: get_benchmark("BV", 16, seed=SEED),
        DEFAULT_NOISE, 20_000, 0.84065, 0.7348,
    ),
    "RND-48": (
        lambda: random_circuit(
            48, 800, seed=SEED,
            two_qubit_gates=("cx", "cz"), one_qubit_gates=("h", "s"),
        ),
        DEFAULT_NOISE.scaled(0.005), 500, 0.964, 0.952,
    ),
}


@pytest.mark.parametrize("label", sorted(CASES))
def test_verify_and_yield_golden(label):
    factory, model, shots, yield_mc, fault_free = CASES[label]
    circuit = factory()
    verdict = verify_pattern(circuit, seed=SEED)
    assert verdict.ok is True
    assert verdict.method == "stabilizer"
    estimate = estimate_yield(circuit, model=model, shots=shots, seed=SEED)
    assert estimate.method == "mc-stabilizer"
    assert estimate.yield_mc == yield_mc
    assert estimate.fault_free_yield == fault_free
