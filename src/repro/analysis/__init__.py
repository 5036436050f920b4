"""Static verification of compiled artifacts (patterns, frame programs).

The simulation engines in :mod:`repro.sim` check compiled patterns
*dynamically* — by executing them.  This package gives the static
answer: structural linting of the artifacts themselves
(:mod:`repro.analysis.lint`) and causal-flow / gflow determinism
certification of the underlying open graph
(:mod:`repro.analysis.flow`), the Mhalla-Perdrix machinery that proves
a pattern is runnable and deterministic without a single shot.  The
mutation harness (:mod:`repro.analysis.mutate`) validates the linter by
corrupting known-good artifacts and asserting every corruption class is
flagged.  :mod:`repro.analysis.concurrency` turns the same static lens
on the repo's own serving/eval source: lock discipline, async blocking
effects, lock-order cycles and resource lifetimes, CC-coded.
"""

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "CC_CODES": ".concurrency",
    "ConcurrencyAnalyzer": ".concurrency",
    "ConcurrencyFinding": ".concurrency",
    "analyze_paths": ".concurrency",
    "analyze_source": ".concurrency",
    "DeterminismCertificate": ".flow",
    "FlowViolation": ".flow",
    "certify_pattern": ".flow",
    "find_causal_flow": ".flow",
    "find_gflow": ".flow",
    "flow_corrections": ".flow",
    "LintIssue": ".lint",
    "LintReport": ".lint",
    "PatternLinter": ".lint",
    "lint_compiled_program": ".lint",
    "lint_frame_program": ".lint",
    "lint_pattern": ".lint",
    "FRAME_MUTATIONS": ".mutate",
    "MUTATION_EXPECTED_CODES": ".mutate",
    "PATTERN_MUTATIONS": ".mutate",
    "corrupt_frame_program": ".mutate",
    "corrupt_pattern": ".mutate",
    "harness_report": ".mutate",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
