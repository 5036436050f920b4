"""Shared utilities: angles, bit grids and geometry."""

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "ANGLE_ATOL": ".angles",
    "is_clifford_angle": ".angles",
    "is_pauli_angle": ".angles",
    "normalize_angle": ".angles",
    "BitGridSpec": ".bitgrid",
    "expand": ".bitgrid",
    "lexmin_path": ".bitgrid",
    "nearest_free": ".bitgrid",
    "spec_for": ".bitgrid",
    "Rect": ".geometry",
    "bounding_rect": ".geometry",
    "manhattan": ".geometry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
