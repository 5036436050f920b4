"""OneQ: a compilation framework for photonic one-way quantum computation.

Reproduction of Zhang et al., ISCA 2023 (arXiv:2209.01545).  The public
API re-exports the main entry points of each subsystem:

>>> from repro import qft, HardwareConfig, compile_circuit
>>> prog = compile_circuit(qft(8), HardwareConfig.square(12))
>>> prog.physical_depth > 0
True

Every package exports its names lazily: importing a package loads none
of its submodules, and a name's defining module is imported on the
name's first access, so each process loads only the layers it runs.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple

__version__ = "1.0.0"


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package.

    *namespace* is the package's ``globals()``; *exports* maps each
    public name to its defining module, relative to the package
    (``{"OneQCompiler": ".compiler"}``).  A name's module is imported on
    the name's first access and the value is cached in *namespace*, so
    later lookups never reach ``__getattr__``.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(exports[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


#: public name -> defining module, imported on first access
_EXPORTS = {
    "BaselineResult": ".baseline.interpreter",
    "compile_baseline": ".baseline.interpreter",
    "Circuit": ".circuit.circuit",
    "Gate": ".circuit.gates",
    "bernstein_vazirani": ".circuit.benchmarks",
    "get_benchmark": ".circuit.benchmarks",
    "qaoa_maxcut": ".circuit.benchmarks",
    "qft": ".circuit.benchmarks",
    "ripple_carry_adder": ".circuit.benchmarks",
    "to_basic": ".circuit.library",
    "to_jcz": ".circuit.library",
    "CompiledProgram": ".core.compiler",
    "OneQCompiler": ".core.compiler",
    "OneQConfig": ".core.compiler",
    "PartitionConfig": ".core.partition",
    "compile_circuit": ".core.compiler",
    "render_program": ".core.render",
    "FOUR_LINE": ".hardware.resource_state",
    "FOUR_RING": ".hardware.resource_state",
    "FOUR_STAR": ".hardware.resource_state",
    "HardwareConfig": ".hardware.coupling",
    "RESOURCE_STATES": ".hardware.resource_state",
    "THREE_LINE": ".hardware.resource_state",
    "ResourceStateType": ".hardware.resource_state",
    "MeasurementPattern": ".mbqc.pattern",
    "circuit_to_pattern": ".mbqc.translate",
    "dependency_layers": ".mbqc.flow",
    "simulate": ".sim.statevector",
    "simulate_pattern": ".sim.pattern_sim",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
