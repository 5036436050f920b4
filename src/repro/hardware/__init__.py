"""Hardware model: machine config, resource states, noise and fusion accounting."""

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "HardwareConfig": ".coupling",
    "extended_to_physical": ".coupling",
    "SCENARIOS": ".degradation",
    "SiteNoiseMap": ".degradation",
    "SiteProfile": ".degradation",
    "dead_assigned_fusions": ".degradation",
    "make_scenario": ".degradation",
    "program_site_profile": ".degradation",
    "site_analytic_yield": ".degradation",
    "FusionTally": ".fusion",
    "DEFAULT_NOISE": ".noise",
    "NoiseModel": ".noise",
    "baseline_log_fidelity": ".noise",
    "expected_fusion_attempts": ".noise",
    "fidelity_improvement_factor": ".noise",
    "log_fidelity": ".noise",
    "program_log_fidelity": ".noise",
    "success_probability": ".noise",
    "FOUR_LINE": ".resource_state",
    "FOUR_RING": ".resource_state",
    "FOUR_STAR": ".resource_state",
    "RESOURCE_STATES": ".resource_state",
    "THREE_LINE": ".resource_state",
    "ResourceStateType": ".resource_state",
    "get_resource_state": ".resource_state",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
