"""Baseline cluster-state interpreter (the paper's comparison point)."""

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "LayerSynthesisCost": ".cluster",
    "cluster_3d_graph": ".cluster",
    "cluster_layer_graph": ".cluster",
    "layer_synthesis_cost": ".cluster",
    "logical_sites": ".cluster",
    "redundancy_stats": ".cluster",
    "verify_against_flat_bound": ".cluster",
    "BaselineResult": ".interpreter",
    "baseline_depth": ".interpreter",
    "compile_baseline": ".interpreter",
    "gate_width": ".interpreter",
    "PATTERN_WIDTHS": ".interpreter",
    "GridRouter": ".mapper",
    "RoutedCircuit": ".mapper",
    "logical_grid_side": ".mapper",
    "route_on_grid": ".mapper",
    "BaselineAreas": ".metrics",
    "CLUSTER_NODE_DEGREE": ".metrics",
    "cluster_area": ".metrics",
    "cluster_side": ".metrics",
    "physical_area": ".metrics",
    "physical_side": ".metrics",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
