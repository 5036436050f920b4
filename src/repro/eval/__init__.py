"""Evaluation harness: one runner + renderer per paper table/figure."""

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "FIG13_SHAPES": ".experiments",
    "NOISE_SWEEP_BENCHMARKS": ".experiments",
    "PAPER_TABLE2": ".experiments",
    "TABLE_BENCHMARKS": ".experiments",
    "ComparisonRow": ".experiments",
    "compare_one": ".experiments",
    "noise_sweep_specs": ".experiments",
    "run_ablation": ".experiments",
    "run_fidelity": ".experiments",
    "run_fig12": ".experiments",
    "run_fig13": ".experiments",
    "run_fig14": ".experiments",
    "run_fig15": ".experiments",
    "run_noise_sweep": ".experiments",
    "run_table1": ".experiments",
    "run_table2": ".experiments",
    "BatchRunner": ".batch",
    "RunRecord": ".batch",
    "RunSpec": ".batch",
    "execute_spec": ".batch",
    "render_run_records": ".batch",
    "render_stage_profile": ".batch",
    "run_grid": ".batch",
    "table2_specs": ".batch",
    "write_run_table": ".batch",
    "DEGRADE_BENCHMARKS": ".degrade",
    "DEGRADE_SEVERITIES": ".degrade",
    "MILD_NOISE": ".degrade",
    "check_recovery": ".degrade",
    "degrade_specs": ".degrade",
    "run_degrade_sweep": ".degrade",
    "summarize_survival": ".degrade",
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
