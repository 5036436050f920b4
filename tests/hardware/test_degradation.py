"""Tests for per-site noise maps, scenarios and site attribution."""

import numpy as np
import pytest

from repro.circuit import get_benchmark
from repro.core import compile_circuit
from repro.hardware import HardwareConfig
from repro.hardware.degradation import (
    SCENARIOS,
    SiteNoiseMap,
    SiteProfile,
    active_cells,
    dead_assigned_fusions,
    make_scenario,
    program_site_profile,
    scenario_dead_rsg,
    scenario_degraded_fusion,
    scenario_loss_gradient,
    scenario_loss_hotspot,
    site_analytic_yield,
)
from repro.hardware.noise import DEFAULT_NOISE, NoiseModel
from repro.sim.noisy import FaultCounts

MILD = NoiseModel(
    fusion_success=0.9,
    fusion_error=5e-05,
    cycle_loss=1e-05,
    measurement_error=1e-05,
)


class TestSiteNoiseMap:
    def test_uniform_map_reduces_to_its_model(self):
        site_map = SiteNoiseMap.uniform(MILD, (4, 4))
        model = site_map.as_uniform_model()
        assert model == MILD

    def test_dead_map_is_never_uniform(self):
        dead = np.zeros((3, 3), dtype=bool)
        dead[1, 1] = True
        site_map = SiteNoiseMap(shape=(3, 3), base=MILD, dead=dead)
        assert site_map.as_uniform_model() is None

    def test_heterogeneous_plane_is_not_uniform(self):
        loss = np.full((3, 3), 0.001)
        loss[0, 0] = 0.002
        site_map = SiteNoiseMap(shape=(3, 3), base=MILD, cycle_loss=loss)
        assert site_map.as_uniform_model() is None

    def test_dead_sites_normalized(self):
        dead = np.zeros((3, 3), dtype=bool)
        dead[2, 1] = True
        site_map = SiteNoiseMap(shape=(3, 3), base=MILD, dead=dead)
        assert site_map.fusion_success[2, 1] == 0.0
        assert site_map.cycle_loss[2, 1] == 1.0
        assert site_map.dead_fraction == pytest.approx(1 / 9)
        assert site_map.dead_cells == ((2, 1),)

    def test_planes_are_read_only(self):
        site_map = SiteNoiseMap.uniform(MILD, (2, 2))
        with pytest.raises(ValueError):
            site_map.cycle_loss[0, 0] = 0.5

    def test_wrong_plane_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SiteNoiseMap(
                shape=(3, 3), base=MILD, cycle_loss=np.zeros((2, 2))
            )

    def test_out_of_range_rates_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            SiteNoiseMap(
                shape=(2, 2), base=MILD, cycle_loss=np.full((2, 2), 1.5)
            )

    def test_avoid_mask_flags_dead_and_degraded(self):
        dead = np.zeros((3, 3), dtype=bool)
        dead[0, 0] = True
        loss = np.full((3, 3), 0.001)
        loss[1, 1] = 0.09  # above AVOID_CYCLE_LOSS
        site_map = SiteNoiseMap(
            shape=(3, 3), base=MILD, dead=dead, cycle_loss=loss
        )
        assert site_map.avoid_cells() == ((0, 0), (1, 1))


class TestScenarios:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_severity_zero_is_pristine(self, name):
        site_map = make_scenario(name, (5, 5), 0.0, base=MILD)
        assert site_map.as_uniform_model() == MILD

    def test_dead_rsg_fraction_tracks_severity(self):
        site_map = scenario_dead_rsg((10, 10), 0.3, base=MILD, seed=3)
        assert site_map.dead_fraction == pytest.approx(0.3)

    def test_dead_rsg_severity_one_kills_everything(self):
        site_map = scenario_dead_rsg((4, 4), 1.0, base=MILD)
        assert site_map.dead_fraction == 1.0

    def test_dead_rsg_deterministic_per_seed(self):
        a = scenario_dead_rsg((6, 6), 0.2, base=MILD, seed=11)
        b = scenario_dead_rsg((6, 6), 0.2, base=MILD, seed=11)
        c = scenario_dead_rsg((6, 6), 0.2, base=MILD, seed=12)
        np.testing.assert_array_equal(a.dead, b.dead)
        assert not np.array_equal(a.dead, c.dead)

    def test_loss_gradient_ramps_along_columns(self):
        site_map = scenario_loss_gradient((3, 5), 1.0, base=MILD)
        loss = site_map.cycle_loss
        assert loss[0, 0] == pytest.approx(MILD.cycle_loss)
        assert loss[0, -1] == pytest.approx(MILD.cycle_loss + 0.02)
        assert (np.diff(loss, axis=1) > 0).all()

    def test_loss_hotspot_peaks_at_centre(self):
        site_map = scenario_loss_hotspot((7, 7), 1.0, base=MILD)
        loss = site_map.cycle_loss
        assert loss[3, 3] == loss.max()
        assert loss[3, 3] == pytest.approx(MILD.cycle_loss + 0.1)
        assert loss[0, 0] < loss[3, 3]

    def test_degraded_fusion_moves_both_channels(self):
        site_map = scenario_degraded_fusion((6, 6), 0.5, base=MILD, seed=5)
        assert (site_map.fusion_success <= MILD.fusion_success).all()
        assert (site_map.fusion_error >= MILD.fusion_error).all()
        assert site_map.as_uniform_model() is None

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("meteor-strike", (4, 4), 0.5)

    def test_severity_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            make_scenario("dead-rsg", (4, 4), 1.5)


@pytest.fixture(scope="module")
def compiled():
    hardware = HardwareConfig.square(6)
    program = compile_circuit(get_benchmark("BV", 8), hardware)
    return hardware, program


class TestSiteProfile:
    def test_out_of_grid_sites_rejected(self):
        with pytest.raises(ValueError, match="out-of-grid"):
            SiteProfile(
                shape=(2, 2),
                fusion_sites=np.array([5]),
                cycle_sites=np.array([0]),
            )

    def test_event_counts_match_program_accounting(self, compiled):
        hardware, program = compiled
        profile = program_site_profile(program, hardware.extended_shape)
        assert profile.fusion_sites.size == program.num_fusions
        assert profile.cycle_sites.size == program.resource_states_used * 3

    def test_events_only_on_occupied_cells(self, compiled):
        hardware, program = compiled
        rows, cols = hardware.extended_shape
        profile = program_site_profile(program, hardware.extended_shape)
        occupied = {r * cols + c for r, c in active_cells(program)}
        assert set(profile.active_sites.tolist()) <= occupied

    def test_shape_mismatch_rejected(self, compiled):
        _, program = compiled
        with pytest.raises(ValueError, match="outside"):
            program_site_profile(program, (2, 2))


class TestSiteAnalyticYield:
    def test_uniform_map_matches_scalar_closed_form(self, compiled):
        hardware, program = compiled
        site_map = SiteNoiseMap.uniform(MILD, hardware.extended_shape)
        profile = program_site_profile(program, hardware.extended_shape)
        per_site = site_analytic_yield(
            profile, site_map, program.pattern_nodes
        )
        scalar = FaultCounts.from_program(program).analytic_yield(MILD)
        assert per_site == pytest.approx(scalar, rel=1e-9)

    def test_dead_assigned_fusion_zeroes_the_yield(self, compiled):
        hardware, program = compiled
        dead = np.ones(hardware.extended_shape, dtype=bool)
        site_map = SiteNoiseMap(
            shape=hardware.extended_shape, base=MILD, dead=dead
        )
        profile = program_site_profile(program, hardware.extended_shape)
        assert site_analytic_yield(profile, site_map, 0) == 0.0
        assert dead_assigned_fusions(profile, site_map) == (
            profile.fusion_sites.size
        )

    def test_healthy_map_counts_no_dead_fusions(self, compiled):
        hardware, program = compiled
        site_map = SiteNoiseMap.uniform(MILD, hardware.extended_shape)
        profile = program_site_profile(program, hardware.extended_shape)
        assert dead_assigned_fusions(profile, site_map) == 0
