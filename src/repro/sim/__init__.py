"""Simulation substrates: statevector, MBQC pattern, stabilizer,
Pauli frames, noisy MC."""

from repro.sim.frame import FrameProgram, PauliFrameSimulator
from repro.sim.noisy import FaultCounts, NoisySampler, NoisySampleResult
from repro.sim.pattern_sim import (
    PatternResult,
    PatternSimulator,
    StabilizerPatternResult,
    StabilizerPatternSimulator,
    pattern_is_clifford,
    simulate_pattern,
    simulate_pattern_stabilizer,
)
from repro.sim.stabilizer import PauliString, StabilizerState
from repro.sim.statevector import (
    Statevector,
    basis_state_distribution,
    circuit_unitary,
    fidelity,
    gate_matrix,
    j_matrix,
    simulate,
    states_equal_up_to_phase,
    unitaries_equal_up_to_phase,
)

__all__ = [
    "FaultCounts",
    "FrameProgram",
    "NoisySampleResult",
    "NoisySampler",
    "PauliFrameSimulator",
    "PatternResult",
    "PatternSimulator",
    "PauliString",
    "StabilizerPatternResult",
    "StabilizerPatternSimulator",
    "StabilizerState",
    "Statevector",
    "basis_state_distribution",
    "circuit_unitary",
    "fidelity",
    "gate_matrix",
    "j_matrix",
    "pattern_is_clifford",
    "simulate",
    "simulate_pattern",
    "simulate_pattern_stabilizer",
    "states_equal_up_to_phase",
    "unitaries_equal_up_to_phase",
]
