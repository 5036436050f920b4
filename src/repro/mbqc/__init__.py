"""MBQC substrate: graph states, patterns, translation and flow analysis."""

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "adaptive_depth": ".flow",
    "blocking_sources": ".flow",
    "dependency_layers": ".flow",
    "layer_assignment": ".flow",
    "verify_layering": ".flow",
    "disjoint_union": ".graph_state",
    "fuse": ".graph_state",
    "graph_state_vector": ".graph_state",
    "grid_graph": ".graph_state",
    "linear_graph": ".graph_state",
    "max_degree": ".graph_state",
    "neighborhood": ".graph_state",
    "relabeled": ".graph_state",
    "ring_graph": ".graph_state",
    "star_graph": ".graph_state",
    "z_measure": ".graph_state",
    "MeasurementPattern": ".pattern",
    "PatternGraph": ".pattern",
    "circuit_to_pattern": ".translate",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
