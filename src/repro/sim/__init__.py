"""Simulation substrates: statevector, MBQC pattern, stabilizer,
Pauli frames, noisy MC."""

from repro import lazy_exports

#: public name -> defining module, imported on first access
_EXPORTS = {
    "FrameProgram": ".frame",
    "PauliFrameSimulator": ".frame",
    "FaultCounts": ".noisy",
    "NoisySampler": ".noisy",
    "NoisySampleResult": ".noisy",
    "PatternResult": ".pattern_sim",
    "PatternSimulator": ".pattern_sim",
    "StabilizerPatternResult": ".pattern_sim",
    "StabilizerPatternSimulator": ".pattern_sim",
    "pattern_is_clifford": ".pattern_sim",
    "simulate_pattern": ".pattern_sim",
    "simulate_pattern_stabilizer": ".pattern_sim",
    "PauliString": ".stabilizer",
    "StabilizerState": ".stabilizer",
    "Statevector": ".statevector",
    "basis_state_distribution": ".statevector",
    "circuit_unitary": ".statevector",
    "fidelity": ".statevector",
    "gate_matrix": ".statevector",
    "j_matrix": ".statevector",
    "simulate": ".statevector",
    "states_equal_up_to_phase": ".statevector",
    "unitaries_equal_up_to_phase": ".statevector",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
