"""Tests for the hardware config and extended-layer coordinates."""

import pytest

from repro.hardware.coupling import HardwareConfig, extended_to_physical
from repro.hardware.resource_state import FOUR_STAR, THREE_LINE


class TestHardwareConfig:
    def test_physical_area(self):
        assert HardwareConfig(rows=4, cols=5).physical_area == 20

    def test_square(self):
        cfg = HardwareConfig.square(7)
        assert (cfg.rows, cfg.cols) == (7, 7)

    def test_with_area_square(self):
        cfg = HardwareConfig.with_area(256)
        assert (cfg.rows, cfg.cols) == (16, 16)

    def test_with_area_ratio(self):
        cfg = HardwareConfig.with_area(256, ratio=1.5)
        assert cfg.rows < cfg.cols
        assert abs(cfg.physical_area - 256) <= 30

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            HardwareConfig(rows=0, cols=4)

    def test_invalid_extension_rejected(self):
        with pytest.raises(ValueError):
            HardwareConfig(rows=2, cols=2, extension=0)

    def test_extended_shape(self):
        cfg = HardwareConfig(rows=13, cols=13, extension=3)
        assert cfg.extended_shape == (13, 39)

    def test_default_resource_state(self):
        assert HardwareConfig.square(4).resource_state is THREE_LINE

    def test_custom_resource_state(self):
        cfg = HardwareConfig.square(4, resource_state=FOUR_STAR)
        assert cfg.resource_state is FOUR_STAR


class TestExtendedToPhysical:
    def test_first_sublayer_identity(self):
        cfg = HardwareConfig(rows=4, cols=4, extension=3)
        assert extended_to_physical((2, 1), cfg) == (0, (2, 1))

    def test_second_sublayer_flipped(self):
        """Fig. 5b: odd sub-layers are flipped horizontally."""
        cfg = HardwareConfig(rows=4, cols=4, extension=3)
        sub, coord = extended_to_physical((2, 4), cfg)
        assert sub == 1
        assert coord == (2, 3)  # first column of sublayer 1 = last physical

    def test_third_sublayer_unflipped(self):
        cfg = HardwareConfig(rows=4, cols=4, extension=3)
        sub, coord = extended_to_physical((0, 8), cfg)
        assert sub == 2
        assert coord == (0, 0)

    def test_boundary_continuity(self):
        """Cells adjacent across a sub-layer boundary map to the same RSG."""
        cfg = HardwareConfig(rows=4, cols=4, extension=2)
        _, last_of_0 = extended_to_physical((1, 3), cfg)
        _, first_of_1 = extended_to_physical((1, 4), cfg)
        assert last_of_0 == first_of_1  # same RSG, consecutive cycles
