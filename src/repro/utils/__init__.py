"""Shared utilities: angles, geometry, RNG and lock instrumentation."""

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
    "GLOBAL_REGISTRY": ".sync",
    "LockOrderError": ".sync",
    "TrackedLock": ".sync",
    "WitnessRegistry": ".sync",
    "check_witness_against": ".sync",
    "enable_sanitizer": ".sync",
    "find_cycle": ".sync",
    "make_lock": ".sync",
    "sanitizer_enabled": ".sync",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
