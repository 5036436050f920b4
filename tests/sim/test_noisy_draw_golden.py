"""Golden tallies and fault-draw digests across block boundaries.

``NoisySampler`` places the fault events of every shot from one master
generator, a block of geometric gaps at a time.  These cases run well
past ``FRAME_CHUNK_SHOTS`` shots (several frame chunks plus a ragged
last one), through more fault events than one gap block holds, through
several rate groups per channel and through rows carrying several
measurement flips, and pin:

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
    "bv10-flippy": (131075, 11365, 4237, 239, 119471, 21668, 2180302),
    "bv12-heavy": (200003, 26540, 2174, 2522, 170941, 153177, 7108446),
    "bv16-site-map": (70001, 65327, 63239, 1603, 3071, 4101, 3611518),
}

#: ``_draw_faults`` fields: scalars verbatim, arrays as the sha256 of
#: their int64 bytes
GOLDEN_DRAWS = {
    "bv10-flippy": {
        "shots": 131075,
        "fault_free": 4237,
        "loss_aborts": 239,
        "readout_failures": 104931,
        "executed": 21668,
        "fusion_attempts": 2180302,
        "fault_shot": (
            "c0d1585fa61a83b851d1ac143b84b49ed1084fcf2fa541db5ec7e201e118b703"
        ),
        "fault_qubit": (
            "3cbbb507b018baa9b5bbbd005dcd7b6bd32b29a9c11383a31a01ff4fe897fae1"
        ),
        "fault_kind": (
            "6556cb2dbbe153df5e4fe18078a55ffe04285e6271667517ab54f882f514c99b"
        ),
        "flip_shot": (
            "4e8a776e3c4e0e3ec1dafcfc7351939a3f3b3796e80f2be9f26524997c403237"
        ),
        "flip_qubit": (
            "027f6fb0ad6abe6f3fb1edcc755f509ede5253586462339d58a01218ce01be55"
        ),
    },
    "bv12-heavy": {
        "shots": 200003,
        "fault_free": 2174,
        "loss_aborts": 2522,
        "readout_failures": 42130,
        "executed": 153177,
        "fusion_attempts": 7108446,
        "fault_shot": (
            "bdc482b56d1c9d961625f78d685ec60696af4e4ef60435ce6f89ce06b4994a3e"
        ),
        "fault_qubit": (
            "f36e02fcc3b900eb238dda78402e2a5eef541db33a742b9db1075ef1d170c002"
        ),
        "fault_kind": (
            "dd115fd8cb4a0059ba3fbcd739428efb32fe154b784ed2a7b718c0659e5f4445"
        ),
        "flip_shot": (
            "d4ca075844457b2ae87879e54d0f32d502400f1ceb5781055aef50bb657aebb6"
        ),
        "flip_qubit": (
            "e233d2899045c94bb51fc08139f69fe2179fd5cbc0ffc272bfee53bd1d7e6513"
        ),
    },
    "bv16-site-map": {
        "shots": 70001,
        "fault_free": 63239,
        "loss_aborts": 1603,
        "readout_failures": 1058,
        "executed": 4101,
        "fusion_attempts": 3611518,
        "fault_shot": (
            "728159b7330624352432364d8602372d27d18379bdd6c54791a78e26c1d6f386"
        ),
        "fault_qubit": (
            "e12575bd69a59ea22c0575b19330efd41733ddc932fae2095ef1765daffc9f98"
        ),
        "fault_kind": (
            "ac1a997271e7d8d7a644661848a19c4d2b3d4a7c33dfb2627ae824ab3dc85b3a"
        ),
        "flip_shot": (
            "9449ead253f218e9fcfcd704fd26f761f326578ea92ab2cc220ee796eae47d37"
        ),
        "flip_qubit": (
            "5523500ea25ba4e292fb933874847fdec94c4262ef6705cb490cff7d928d4207"
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
    """The cases exercise what they claim: several frame chunks and gap
    blocks, several rate groups per channel, and rows with several
    flips."""
    from repro.sim import noisy

    name, sampler, shots = case
    assert shots > noisy.FRAME_CHUNK_SHOTS
    if name == "bv12-heavy":
        draw = sampler._draw_faults(
            shots, np.random.default_rng(sampler.seed)
        )
        assert draw.executed > noisy.FRAME_CHUNK_SHOTS
        assert draw.fault_shot.size > noisy._GAP_BLOCK
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
