"""The machine description and extended physical layers (paper Sec. 3.1).

The hardware is a ``rows x cols`` array of resource-state generators
(RSGs).  Each clock cycle every RSG emits one resource state; fusions
join neighbouring RSGs within a cycle (spatial) or the same RSG across
cycles through a delay line (temporal).  The compiler maps one layer at
a time, so it never materialises this space-time graph.

Consecutive physical layers can be glued into an *extended physical
layer*: a ``rows x (cols * extension)`` logical grid in which boundary
temporal connections act like spatial ones (Fig. 5b / Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.hardware.resource_state import (
    THREE_LINE,
    ResourceStateType,
)

LayerCoord = Tuple[int, int]  # (row, col) within a (possibly extended) layer


@dataclass(frozen=True)
class HardwareConfig:
    """Machine description consumed by both compilers.

    Attributes:
        rows, cols: RSG array shape; ``rows * cols`` is the physical area.
        resource_state: the emitted resource-state type.
        extension: physical layers merged into one extended layer for
            mapping (1 = no extension).
    """

    rows: int
    cols: int
    resource_state: ResourceStateType = THREE_LINE
    extension: int = 1

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.extension < 1:
            raise ValueError("extension must be at least 1")

    @property
    def physical_area(self) -> int:
        """Number of RSGs (resource states per clock cycle)."""
        return self.rows * self.cols

    @property
    def extended_shape(self) -> Tuple[int, int]:
        """Grid shape of one extended physical layer."""
        return (self.rows, self.cols * self.extension)

    @classmethod
    def square(
        cls,
        side: int,
        resource_state: ResourceStateType = THREE_LINE,
        **kwargs,
    ) -> "HardwareConfig":
        """Square RSG array of a given side (paper's default shape)."""
        return cls(rows=side, cols=side, resource_state=resource_state, **kwargs)

    @classmethod
    def with_area(
        cls,
        area: int,
        ratio: float = 1.0,
        resource_state: ResourceStateType = THREE_LINE,
        **kwargs,
    ) -> "HardwareConfig":
        """Closest ``rows x cols`` grid to *area* with cols/rows ~= ratio.

        Used by the Fig. 13 (aspect ratio) and Fig. 15 (physical area)
        sweeps.
        """
        if area <= 0:
            raise ValueError("area must be positive")
        rows = max(1, round((area / ratio) ** 0.5))
        cols = max(1, round(area / rows))
        return cls(rows=rows, cols=cols, resource_state=resource_state, **kwargs)


def extended_to_physical(
    coord: LayerCoord, config: HardwareConfig
) -> Tuple[int, LayerCoord]:
    """Map an extended-layer coordinate to (sub-layer, physical coord).

    Extended layers glue ``extension`` consecutive physical layers along
    the column axis, flipping odd sub-layers so boundary temporal links
    line up (Fig. 5b).
    """
    row, col = coord
    sub = col // config.cols
    within = col % config.cols
    if sub % 2 == 1:  # flipped in the horizontal direction
        within = config.cols - 1 - within
    return sub, (row, within)
