"""Circuit IR: gates, circuits, lowering passes and paper benchmarks."""

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "BENCHMARKS": ".benchmarks",
    "bernstein_vazirani": ".benchmarks",
    "get_benchmark": ".benchmarks",
    "qaoa_maxcut": ".benchmarks",
    "qft": ".benchmarks",
    "random_maxcut_edges": ".benchmarks",
    "random_secret_string": ".benchmarks",
    "ripple_carry_adder": ".benchmarks",
    "Circuit": ".circuit",
    "CLIFFORD_1Q": ".gates",
    "GATE_SIGNATURES": ".gates",
    "Gate": ".gates",
    "simplify_basic": ".library",
    "to_basic": ".library",
    "to_jcz": ".library",
    "from_qasm": ".qasm",
    "to_qasm": ".qasm",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
