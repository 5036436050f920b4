"""Law-level checks of the sparse fault draw.

``NoisySampler._draw_faults`` places fault events by geometric gaps over
one Bernoulli sequence per rate group instead of drawing per-shot
binomials.  The two have the same joint law; these tests check the
marginals that law fixes, at fixed seeds, in three regimes (heavy
scalar noise, a heterogeneous site map, readout-heavy noise):

* per-shot fusion-error and measurement-flip counts follow the
  (Poisson-)binomial pmf, by a chi-square test against a fixed
  threshold;
* the loss-abort rate is ``1 - prod (1 - p)^events``;
* flip slots are distinct within a shot and uniform over the
  non-readout slots;
* ``attempts_per_fusion`` is ``1 / p`` within the negative-binomial
  standard error.

numpy only: the chi-square threshold is the Wilson-Hilferty quantile.
"""

import math

import numpy as np
import pytest

from repro.circuit import get_benchmark
from repro.core import compile_circuit
from repro.hardware import HardwareConfig
from repro.hardware.degradation import SiteNoiseMap, program_site_profile
from repro.hardware.noise import NoiseModel
from repro.sim.noisy import FaultCounts, NoisySampler

HEAVY = NoiseModel(
    fusion_success=0.5, fusion_error=0.2, cycle_loss=0.0005,
    measurement_error=0.02,
)

#: readout-dominated noise: most shots fail on a flipped readout
FLIPPY = NoiseModel(
    fusion_success=0.9, fusion_error=0.001, cycle_loss=0.0001,
    measurement_error=0.15,
)

#: standard normal quantile of the one-sided tail every check allows
#: (~1e-4): a fixed threshold, not a fitted one
Z_TAIL = 3.719
#: chi-square bins are pooled until each expects at least this many
MIN_EXPECTED = 5.0


def _heavy():
    return NoisySampler(get_benchmark("BV", 12), model=HEAVY, seed=0)


def _site_map():
    """BV-8 compiled on a 6x6 layer, with three or four distinct rates
    per site plane (so several rate groups per channel)."""
    circuit = get_benchmark("BV", 8)
    hardware = HardwareConfig.square(6)
    program = compile_circuit(circuit, hardware)
    shape = hardware.extended_shape
    rng = np.random.default_rng(2024)
    site_map = SiteNoiseMap(
        shape=shape,
        base=NoiseModel(
            fusion_success=0.75, fusion_error=0.02, cycle_loss=0.002,
            measurement_error=0.01,
        ),
        fusion_success=rng.choice([0.6, 0.75, 0.9], size=shape),
        fusion_error=rng.choice([0.01, 0.02, 0.05], size=shape),
        cycle_loss=rng.choice([0.0005, 0.001, 0.002, 0.004], size=shape),
    )
    return NoisySampler(
        circuit,
        counts=FaultCounts.from_program(program),
        seed=5,
        site_map=site_map,
        site_profile=program_site_profile(program, shape),
    )


def _flippy():
    return NoisySampler(get_benchmark("BV", 10), model=FLIPPY, seed=3)


#: name -> (sampler factory, shots)
REGIMES = {
    "heavy": (_heavy, 20_000),
    "site-map": (_site_map, 40_000),
    "flippy": (_flippy, 40_000),
}


@pytest.fixture(scope="module", params=sorted(REGIMES))
def regime(request):
    build, shots = REGIMES[request.param]
    sampler = build()
    draw = sampler._draw_faults(shots, np.random.default_rng(sampler.seed))
    return request.param, sampler, draw


def binomial_pmf(n, p):
    k = np.arange(n + 1)
    if p >= 1.0:
        return (k == n).astype(float)
    log_pmf = (
        np.array([math.lgamma(n + 1) - math.lgamma(i + 1)
                  - math.lgamma(n - i + 1) for i in k])
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    return np.exp(log_pmf)


def poisson_binomial_pmf(groups):
    """Event-count pmf of independent ``(rate, events)`` groups."""
    pmf = np.ones(1)
    for rate, events in groups:
        pmf = np.convolve(pmf, binomial_pmf(events, rate))
    return pmf


def chi_square_threshold(dof):
    """Wilson-Hilferty upper quantile of chi-square(dof) at Z_TAIL."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + Z_TAIL * math.sqrt(c)) ** 3


def assert_fits(observed, probs):
    """Chi-square goodness of fit of the histogram *observed* against
    *probs*, low bins pooled upward until each expects MIN_EXPECTED."""
    total = observed.sum()
    size = max(observed.size, probs.size)
    obs = np.zeros(size)
    obs[: observed.size] = observed
    exp = np.zeros(size)
    exp[: probs.size] = probs * total
    bins = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= MIN_EXPECTED:
            bins.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    assert bins, "no bin expects enough events to test"
    o_last, e_last = bins[-1]
    bins[-1] = (o_last + acc_o, e_last + acc_e)  # the thin tail
    if len(bins) < 2:  # one bin holds everything: nothing to compare
        return
    stat = sum((o - e) ** 2 / e for o, e in bins)
    assert stat <= chi_square_threshold(len(bins) - 1), (stat, bins)


def count_histogram(draw, shot_index):
    """Per-shot event counts over the shots neither lost nor failed by
    a readout flip (fault-free shots count zero)."""
    per_shot = np.bincount(shot_index, minlength=draw.executed)
    hist = np.bincount(per_shot)
    hist[0] += draw.fault_free
    return hist


def test_fusion_error_counts_follow_the_poisson_binomial(regime):
    """Loss and readout failure are independent of the fusion-error
    channel, so over the surviving shots its count keeps its law."""
    _, sampler, draw = regime
    assert_fits(
        count_histogram(draw, draw.fault_shot),
        poisson_binomial_pmf(sampler._error_groups),
    )


def test_flip_counts_follow_the_binomial(regime):
    """Flips on non-readout slots, over the shots no readout flip
    failed: Binomial(non-readout slots, measurement_error)."""
    _, sampler, draw = regime
    slots = int((~sampler._slot_readout).sum())
    assert_fits(
        count_histogram(draw, draw.flip_shot),
        binomial_pmf(slots, sampler.model.measurement_error),
    )


def test_loss_abort_rate(regime):
    _, sampler, draw = regime
    survive = math.prod(
        (1.0 - rate) ** events for rate, events in sampler._loss_groups
    )
    q = 1.0 - survive
    sigma = math.sqrt(draw.shots * q * (1.0 - q))
    assert abs(draw.loss_aborts - draw.shots * q) <= Z_TAIL * sigma


def test_flip_slots_distinct_and_uniform(regime):
    _, sampler, draw = regime
    slots = np.flatnonzero(~sampler._slot_readout)
    pairs = draw.flip_shot.astype(np.int64) * len(sampler._nodes) + draw.flip_qubit
    assert np.unique(pairs).size == pairs.size
    per_slot = np.bincount(draw.flip_qubit, minlength=len(sampler._nodes))
    assert not per_slot[sampler._slot_readout[: len(sampler._nodes)]].any()
    observed = per_slot[slots]
    assert_fits(observed, np.full(slots.size, 1.0 / slots.size))


def test_attempts_per_fusion_within_standard_error(regime):
    """Completed shots' retries are NB(events, p) per group: attempts
    per fusion average the mean of 1/p over the fusions."""
    _, sampler, draw = regime
    kept = draw.shots - draw.loss_aborts
    fusions = sampler.counts.fusions
    mean = sum(events / rate for rate, events in sampler._success_groups)
    var = sum(
        events * (1.0 - rate) / rate**2
        for rate, events in sampler._success_groups
    )
    per_fusion = draw.fusion_attempts / (kept * fusions)
    sigma = math.sqrt(kept * var) / (kept * fusions)
    assert sigma > 0.0
    assert abs(per_fusion - mean / fusions) <= Z_TAIL * sigma
