"""Evaluation harness: the paper's exhibits and yield sweeps as run-spec
grids, the batch runner that runs them, and their renderers and claim
checks."""

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "ABLATION_VARIANTS": ".experiments",
    "DEGRADE_BENCHMARKS": ".experiments",
    "DEGRADE_SEVERITIES": ".experiments",
    "EXHIBITS": ".experiments",
    "FIG13_RATIOS": ".experiments",
    "FIG15_AREAS": ".experiments",
    "MILD_NOISE": ".experiments",
    "NOISE_SWEEP_BENCHMARKS": ".experiments",
    "PAPER_TABLE2": ".experiments",
    "TABLE_BENCHMARKS": ".experiments",
    "check_claims": ".experiments",
    "check_recovery": ".experiments",
    "degrade_specs": ".experiments",
    "noise_sweep_specs": ".experiments",
    "run_exhibit": ".experiments",
    "run_table1": ".experiments",
    "summarize_survival": ".experiments",
    "table2_specs": ".experiments",
    "BatchRunner": ".batch",
    "RunRecord": ".batch",
    "RunSpec": ".batch",
    "execute_spec": ".batch",
    "read_run_table": ".batch",
    "render_run_records": ".batch",
    "render_stage_profile": ".batch",
    "write_run_table": ".batch",
    "RENDERERS": ".reporting",
    "render_ablation": ".reporting",
    "render_fig12": ".reporting",
    "render_fig13": ".reporting",
    "render_fig14": ".reporting",
    "render_fig15": ".reporting",
    "render_survival_table": ".reporting",
    "render_table1": ".reporting",
    "render_table2": ".reporting",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
