"""Golden tallies and fault-draw digests above one draw block.

``NoisySampler`` draws its per-shot fault channels and places the
faults of every faulty shot from one master generator.  These cases run
well past ``FRAME_CHUNK_SHOTS`` shots (several blocks plus a ragged last
one), through several rate groups per channel and through rows carrying
several measurement flips, and pin:

* the exact ``NoisySampler.run`` tally;
* every scalar field of ``_draw_faults`` and a sha256 of every array
  field cast to int64, so a change of storage dtype cannot hide a moved
  placement.

A change here changes every committed yield at a fixed seed.
"""

import hashlib

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

#: readout-dominated noise: most faulty rows carry several flips
FLIPPY = NoiseModel(
    fusion_success=0.9, fusion_error=0.001, cycle_loss=0.0001,
    measurement_error=0.15,
)


def _heavy_bv12():
    return NoisySampler(get_benchmark("BV", 12), model=HEAVY, seed=11)


def _site_map_bv16():
    """BV-16 compiled on a 16x16 layer under a seeded heterogeneous site
    map: three or four distinct rates per site plane."""
    circuit = get_benchmark("BV", 16)
    hardware = HardwareConfig.square(16)
    program = compile_circuit(circuit, hardware)
    shape = hardware.extended_shape
    rng = np.random.default_rng(2024)
    site_map = SiteNoiseMap(
        shape=shape,
        base=NoiseModel(
            fusion_success=0.75, fusion_error=0.002, cycle_loss=0.0002,
            measurement_error=0.001,
        ),
        fusion_success=rng.choice([0.6, 0.75, 0.9], size=shape),
        fusion_error=rng.choice([0.0005, 0.001, 0.002], size=shape),
        cycle_loss=rng.choice([0.00005, 0.0001, 0.0002, 0.0004], size=shape),
    )
    return NoisySampler(
        circuit,
        counts=FaultCounts.from_program(program),
        seed=5,
        site_map=site_map,
        site_profile=program_site_profile(program, shape),
    )


def _flippy_bv10():
    return NoisySampler(get_benchmark("BV", 10), model=FLIPPY, seed=3)


#: name -> (sampler factory, shots)
CASES = {
    "bv12-heavy": (_heavy_bv12, 200_003),
    "bv16-site-map": (_site_map_bv16, 70_001),
    "bv10-flippy": (_flippy_bv10, 131_075),
}

#: ``NoisySampler.run`` tallies: shots, successes, fault_free,
#: loss_aborts, logical_failures, executed, fusion_attempts
GOLDEN_TALLIES = {
    "bv10-flippy": (131075, 11113, 4266, 233, 119729, 21288, 2180996),
    "bv12-heavy": (200003, 26247, 2194, 2431, 171325, 152739, 7108946),
    "bv16-site-map": (70001, 65437, 63321, 1549, 3015, 4082, 3612798),
}

#: ``_draw_faults`` fields: scalars verbatim, arrays as the sha256 of
#: their int64 bytes
GOLDEN_DRAWS = {
    "bv10-flippy": {
        "shots": 131075,
        "fault_free": 4266,
        "loss_aborts": 233,
        "readout_failures": 105288,
        "executed": 21288,
        "fusion_attempts": 2180996,
        "fault_shot": (
            "5742d4dc518a9a7c66213b6816a0f77c4f0c8deac7d13938ff5d84c1ba49016f"
        ),
        "fault_qubit": (
            "75e8b12277a56d1a62336744ce9e4823548f88afaf59cd03478e83c8f5f1f951"
        ),
        "fault_kind": (
            "ac8c7aea5bb122f43cd0cc6c841da960042b98664407c6284ecb8cffc0261e0a"
        ),
        "flip_shot": (
            "cfb9ba43b0688e5845320ba114da07d90fe3570bc7c02f850b87fdcef2986248"
        ),
        "flip_qubit": (
            "7c190eda6abe6a26c8784d3324c8daacd80b599164ba5d0cc92e4f97fd9fb341"
        ),
    },
    "bv12-heavy": {
        "shots": 200003,
        "fault_free": 2194,
        "loss_aborts": 2431,
        "readout_failures": 42639,
        "executed": 152739,
        "fusion_attempts": 7108946,
        "fault_shot": (
            "d2c78038331e1d9cc37c834a45bebabf6a2505657cb42c6d8433e58d2e777fa8"
        ),
        "fault_qubit": (
            "d67ee7c05ec669762102de13e4aeac7aad0e7425d7bd25d0b8e0d8dacf0aa02f"
        ),
        "fault_kind": (
            "860644dacd2746af16e62bfc0422b5b7ab62ef5cd07c8a980af4e30db2e398b6"
        ),
        "flip_shot": (
            "a45f504ca9dab1c6728aea04a6e80e8bf8c0ab44ad3a53732b4bcaf6bb22639e"
        ),
        "flip_qubit": (
            "ef93c203f2e24ef27f96cc07ce5b69adfaed87b792d022e9ebf0889ddd7b034a"
        ),
    },
    "bv16-site-map": {
        "shots": 70001,
        "fault_free": 63321,
        "loss_aborts": 1549,
        "readout_failures": 1049,
        "executed": 4082,
        "fusion_attempts": 3612798,
        "fault_shot": (
            "92cca9d59ab64326c6b9b7e358a16da7a2f91b79dd1419df1a186c8fc8d8dcde"
        ),
        "fault_qubit": (
            "5bcac3e9877cbc4093178a3b56d00e41d77489fbe7e3779f2e77d98040383d5c"
        ),
        "fault_kind": (
            "361f11058a8108bd1ef86bcbef1baf2a20677b65b6c76d7a5a6826c95efc96a0"
        ),
        "flip_shot": (
            "7e8820f48cabb885a5dcafc5663869e9ac838feddce48041dae02c24010c58c0"
        ),
        "flip_qubit": (
            "4eda35c81ed63aeae3193a5aca2aa1ec644dae36f4bb8e86b237a5aaa6fb8fe0"
        ),
    },
}


def tally(result):
    return (
        result.shots,
        result.successes,
        result.fault_free,
        result.loss_aborts,
        result.logical_failures,
        result.executed,
        result.fusion_attempts,
    )


def draw_digest(draw):
    digest = {}
    for field in draw.__dataclass_fields__:
        value = getattr(draw, field)
        if isinstance(value, np.ndarray):
            data = np.ascontiguousarray(value, dtype=np.int64).tobytes()
            digest[field] = hashlib.sha256(data).hexdigest()
        else:
            digest[field] = value
    return digest


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    build, shots = CASES[request.param]
    return request.param, build(), shots


def test_run_tally_pinned(case):
    name, sampler, shots = case
    assert tally(sampler.run(shots)) == GOLDEN_TALLIES[name]


def test_draw_digest_pinned(case):
    name, sampler, shots = case
    draw = sampler._draw_faults(shots, np.random.default_rng(sampler.seed))
    assert draw_digest(draw) == GOLDEN_DRAWS[name]


def test_cases_cross_block_boundaries(case):
    """The cases exercise what they claim: several draw blocks, several
    rate groups per channel, and rows with several flips."""
    from repro.sim import noisy

    name, sampler, shots = case
    assert shots > noisy.FRAME_CHUNK_SHOTS
    if name == "bv16-site-map":
        for groups in (
            sampler._loss_groups,
            sampler._error_groups,
            sampler._success_groups,
        ):
            assert len(groups) >= 3
    if name == "bv10-flippy":
        draw = sampler._draw_faults(
            shots, np.random.default_rng(sampler.seed)
        )
        per_row = np.bincount(draw.flip_shot)
        assert per_row.max() >= 3
