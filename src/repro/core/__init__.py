"""The OneQ compiler: partitioning, fusion graphs, mapping and routing."""

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "CompiledProgram": ".compiler",
    "OneQCompiler": ".compiler",
    "OneQConfig": ".compiler",
    "compile_circuit": ".compiler",
    "FGNode": ".fusion_graph",
    "FusionGraph": ".fusion_graph",
    "build_fusion_graph": ".fusion_graph",
    "verify_fusion_graph": ".fusion_graph",
    "InLayerMapper": ".mapping",
    "LayerLayout": ".mapping",
    "MappingResult": ".mapping",
    "NoViableSitesError": ".mapping",
    "Placement": ".mapping",
    "GraphPartition": ".partition",
    "PartitionConfig": ".partition",
    "cross_partition_edges": ".partition",
    "partition_pattern": ".partition",
    "required_degrees": ".partition",
    "verify_partitioning": ".partition",
    "is_planar": ".planarity",
    "maximal_planar_subgraph": ".planarity",
    "planar_edge_decomposition": ".planarity",
    "planar_embedding_order": ".planarity",
    "POLICIES": ".recovery",
    "DegradationReport": ".recovery",
    "PolicyOutcome": ".recovery",
    "apply_policy": ".recovery",
    "recover": ".recovery",
    "reroute_program": ".recovery",
    "render_layer": ".render",
    "render_program": ".render",
    "ShuffleLayer": ".shuffling",
    "ShuffleResult": ".shuffling",
    "connect_pairs": ".shuffling",
    "PatternVerification": ".validate",
    "ValidationError": ".validate",
    "YieldEstimate": ".validate",
    "assert_valid": ".validate",
    "estimate_yield": ".validate",
    "validate_program": ".validate",
    "verify_pattern": ".validate",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
