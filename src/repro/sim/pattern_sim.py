"""Execution of measurement patterns: dense (lazy window) and stabilizer.

:class:`PatternSimulator` plays the role of the photonic machine: qubits
come into existence when first needed, are entangled by CZ along graph
edges, measured once in an adaptive equatorial basis, and destroyed.
Keeping only the *active* window of qubits (the frontier) makes the
memory cost ``O(2^(wires+1))`` rather than ``O(2^nodes)``.  It is the
end-to-end correctness oracle for the whole stack: the output state of a
translated pattern must equal the circuit's output state.

:class:`StabilizerPatternSimulator` executes *Clifford* patterns (every
measurement at a Pauli angle — the translator emits these exactly for
Clifford circuits) on the bit-packed CHP engine instead, which scales
verification to hundreds of qubits.  ``repro.core.validate.verify_pattern``
picks between the two automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.mbqc.pattern import MeasurementPattern
from repro.sim.stabilizer import PauliString, StabilizerState
from repro.utils.angles import is_pauli_angle, normalize_angle

_SQRT2 = math.sqrt(2.0)


@dataclass
class PatternResult:
    """Outcome record of one pattern execution.

    Attributes:
        state: statevector over the pattern's output nodes, little-endian
            in output order, with all byproducts corrected.
        outcomes: measured node -> outcome bit.
    """

    state: np.ndarray
    outcomes: Dict[int, int]


class PatternSimulator:
    """Executes a :class:`MeasurementPattern` with adaptive angles."""

    def __init__(
        self,
        pattern: MeasurementPattern,
        seed: Optional[int] = None,
        force_outcomes: Optional[Dict[int, int]] = None,
        max_active: int = 22,
    ) -> None:
        self.pattern = pattern
        self.rng = np.random.default_rng(seed)
        self.force_outcomes = force_outcomes or {}
        self.max_active = max_active
        self._reset()

    # ------------------------------------------------------------------
    def _reset(self) -> None:
        self._state = np.ones(1, dtype=complex)
        self._pos: Dict[int, int] = {}
        self._applied_edges = set()
        self.outcomes: Dict[int, int] = {}

    def run(
        self, input_state: Optional[Dict[int, Sequence[complex]]] = None
    ) -> PatternResult:
        """Execute the pattern; inputs default to ``|0>`` per input node.

        ``input_state`` maps an input node to a 2-amplitude vector.
        """
        self._reset()
        pattern = self.pattern
        inits: Dict[int, np.ndarray] = {}
        for node in pattern.inputs:
            amp = np.array([1.0, 0.0], dtype=complex)
            if input_state and node in input_state:
                amp = np.asarray(input_state[node], dtype=complex)
                amp = amp / np.linalg.norm(amp)
            inits[node] = amp

        for node in pattern.measurement_order():
            self._activate_with_neighbors(node, inits)
            self._measure(node)

        for node in pattern.outputs:
            self._activate_with_neighbors(node, inits)

        self._apply_output_byproducts()
        state = self._extract_output_state()
        return PatternResult(state=state, outcomes=dict(self.outcomes))

    # ------------------------------------------------------------------
    # qubit window management
    # ------------------------------------------------------------------
    def _add_qubit(self, node: int, amp: np.ndarray) -> None:
        if len(self._pos) >= self.max_active:
            raise RuntimeError(
                f"active window exceeded {self.max_active} qubits; "
                "pattern order keeps too many qubits alive"
            )
        self._state = np.kron(amp, self._state)
        self._pos[node] = len(self._pos)

    def _activate_with_neighbors(self, node: int, inits: Dict[int, np.ndarray]) -> None:
        """Ensure *node* and its graph neighbourhood are live and entangled."""
        plus = np.array([1.0, 1.0], dtype=complex) / _SQRT2
        if node not in self._pos:
            if node in self.outcomes:
                raise RuntimeError(f"node {node} measured twice")
            self._add_qubit(node, inits.get(node, plus))
        for nbr in self.pattern.graph.neighbors(node):
            key = (min(node, nbr), max(node, nbr))
            if key in self._applied_edges:
                continue
            if nbr in self.outcomes:
                raise RuntimeError(
                    f"edge {key} activates after endpoint {nbr} was destroyed"
                )
            if nbr not in self._pos:
                self._add_qubit(nbr, inits.get(nbr, plus))
            self._apply_cz(node, nbr)
            self._applied_edges.add(key)

    def _apply_cz(self, a: int, b: int) -> None:
        ia, ib = self._pos[a], self._pos[b]
        n = len(self._pos)
        idx = np.arange(2**n)
        mask = ((idx >> ia) & 1) & ((idx >> ib) & 1)
        self._state = self._state * np.where(mask, -1.0, 1.0)

    def _apply_pauli(self, node: int, which: str) -> None:
        i = self._pos[node]
        n = len(self._pos)
        idx = np.arange(2**n)
        bit = (idx >> i) & 1
        if which == "z":
            self._state = self._state * np.where(bit, -1.0, 1.0)
        elif which == "x":
            flipped = idx ^ (1 << i)
            out = np.empty_like(self._state)
            out[flipped] = self._state[idx]
            self._state = out
        else:  # pragma: no cover
            raise ValueError(which)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def _actual_angle(self, node: int) -> float:
        alpha = self.pattern.angles[node]
        s = 0
        for src in self.pattern.x_deps.get(node, frozenset()):
            s ^= self.outcomes[src]
        t = 0
        for src in self.pattern.z_deps.get(node, frozenset()):
            t ^= self.outcomes[src]
        return ((-1.0) ** s) * alpha + t * math.pi

    def _measure(self, node: int) -> None:
        """Equatorial measurement ``E(theta)``, destroying the photon."""
        theta = self._actual_angle(node)
        i = self._pos[node]
        n = len(self._pos)
        tensor = self._state.reshape((2,) * n)
        axis = n - 1 - i
        zero = np.take(tensor, 0, axis=axis)
        one = np.take(tensor, 1, axis=axis)
        phase = np.exp(-1j * theta)
        # <+_theta| = (<0| + e^{-i theta} <1|) / sqrt(2)
        branch0 = (zero + phase * one) / _SQRT2
        branch1 = (zero - phase * one) / _SQRT2
        p0 = float(np.sum(np.abs(branch0) ** 2))
        p1 = float(np.sum(np.abs(branch1) ** 2))
        total = p0 + p1
        if total < 1e-12:  # pragma: no cover - would mean a zero state
            raise RuntimeError("state collapsed to zero norm")
        if node in self.force_outcomes:
            outcome = self.force_outcomes[node]
            if (outcome == 0 and p0 / total < 1e-12) or (
                outcome == 1 and p1 / total < 1e-12
            ):
                raise RuntimeError(
                    f"forced outcome {outcome} on node {node} has zero probability"
                )
        else:
            outcome = int(self.rng.random() >= p0 / total)
        branch = branch0 if outcome == 0 else branch1
        norm = math.sqrt(p0 if outcome == 0 else p1)
        self._state = (branch / norm).reshape(-1)
        self.outcomes[node] = outcome
        # compact the position table
        del self._pos[node]
        for other, pos in list(self._pos.items()):
            if pos > i:
                self._pos[other] = pos - 1

    # ------------------------------------------------------------------
    # output handling
    # ------------------------------------------------------------------
    def _apply_output_byproducts(self) -> None:
        for node in self.pattern.outputs:
            t = 0
            for src in self.pattern.output_z.get(node, frozenset()):
                t ^= self.outcomes[src]
            if t:
                self._apply_pauli(node, "z")
            s = 0
            for src in self.pattern.output_x.get(node, frozenset()):
                s ^= self.outcomes[src]
            if s:
                self._apply_pauli(node, "x")

    def _extract_output_state(self) -> np.ndarray:
        """Reorder the surviving qubits into output order (little-endian)."""
        outputs = self.pattern.outputs
        if set(self._pos) != set(outputs):
            extra = set(self._pos) - set(outputs)
            raise RuntimeError(f"non-output qubits still active: {sorted(extra)}")
        n = len(outputs)
        tensor = self._state.reshape((2,) * n)
        # current axis of output k is n - 1 - pos[output_k]; we want output
        # k at axis n - 1 - k.
        perm = [0] * n
        for k, node in enumerate(outputs):
            perm[n - 1 - k] = n - 1 - self._pos[node]
        tensor = np.transpose(tensor, axes=perm)
        return tensor.reshape(-1)


def simulate_pattern(
    pattern: MeasurementPattern,
    seed: Optional[int] = None,
    input_state: Optional[Dict[int, Sequence[complex]]] = None,
) -> PatternResult:
    """One-shot convenience wrapper around :class:`PatternSimulator`."""
    return PatternSimulator(pattern, seed=seed).run(input_state=input_state)


# ----------------------------------------------------------------------
# stabilizer execution of Clifford patterns
# ----------------------------------------------------------------------
def pattern_is_clifford(pattern: MeasurementPattern) -> bool:
    """True when every measurement is at a Pauli (X/Y-basis) angle.

    Such patterns arise exactly from Clifford circuits and can be
    executed on the stabilizer engine at any size.
    """
    return all(is_pauli_angle(alpha) for alpha in pattern.angles.values())


def _pauli_basis(theta: float) -> Tuple[str, int]:
    """Map an equatorial Pauli angle to ``(basis, sign)``.

    ``E(0)`` measures ``X``, ``E(pi/2)`` measures ``Y``, and the pi
    shifts negate the observable (``sign=1``).
    """
    ratio = normalize_angle(theta) / (math.pi / 2.0)
    quarter = int(round(ratio))
    if abs(ratio - quarter) > 1e-7:
        raise ValueError(f"angle {theta} is not a Pauli measurement basis")
    return [("x", 0), ("y", 0), ("x", 1), ("y", 1)][quarter % 4]


def _pauli_sign_table(alpha: float) -> Tuple[str, np.ndarray]:
    """Basis and feed-forward sign table of a Pauli measurement angle.

    The runtime angle of a node is ``(-1)^s alpha + t pi``; for Pauli
    *alpha* the measured operator's basis (X or Y) is independent of
    ``(s, t)`` and only the sign varies.  Returns ``(basis, table)``
    with ``table[s, t]`` the sign bit — derived through the scalar
    executor's :func:`_pauli_basis` so the frame engine and the pattern
    linter, which consume the table, cannot drift from it.
    """
    table = np.zeros((2, 2), dtype=np.uint8)
    bases = set()
    for s in (0, 1):
        for t in (0, 1):
            theta = ((-1.0) ** s) * alpha + t * math.pi
            basis, sign = _pauli_basis(theta)
            bases.add(basis)
            table[s, t] = sign
    if len(bases) != 1:  # pragma: no cover - impossible for Pauli alpha
        raise ValueError(
            f"angle {alpha} has no branch-independent Pauli basis"
        )
    return bases.pop(), table


@dataclass
class StabilizerPatternResult:
    """Outcome record of one stabilizer pattern execution.

    Attributes:
        state: the full tableau over *all* pattern nodes (measured nodes
            are disentangled product qubits after execution); output
            byproducts are already corrected.
        qubit_of: pattern node -> tableau qubit index.
        outcomes: measured node -> outcome bit.
    """

    state: StabilizerState
    qubit_of: Dict[int, int]
    outcomes: Dict[int, int]

    def output_pauli(
        self, outputs: Sequence[int], x: Sequence[int], z: Sequence[int]
    ) -> PauliString:
        """Lift a Pauli on the output register onto the full tableau."""
        pauli = PauliString(self.state.n)
        for wire, node in enumerate(outputs):
            qubit = self.qubit_of[node]
            pauli.x[qubit] = x[wire]
            pauli.z[qubit] = z[wire]
        return pauli


class StabilizerPatternSimulator:
    """Executes a Clifford :class:`MeasurementPattern` on the CHP engine.

    Unlike :class:`PatternSimulator` the whole graph state is built up
    front (one vectorized tableau write) and every node is measured in
    its *actual* Pauli basis — the adaptive angle ``(-1)^s alpha + t pi``
    stays a Pauli angle when ``alpha`` is one.  Input nodes are prepared
    in ``|0>`` exactly as the dense simulator does.

    ``outcome_flips`` models classical measurement (detector) errors: for
    each listed node the *recorded* outcome bit — the one feed-forward
    and byproduct corrections consume — is the complement of the physical
    collapse branch.  :class:`repro.sim.noisy.NoisySampler` uses this to
    inject sampled measurement errors.
    """

    def __init__(
        self,
        pattern: MeasurementPattern,
        seed: Optional[int] = None,
        force_outcomes: Optional[Dict[int, int]] = None,
        outcome_flips: Optional[Iterable[int]] = None,
    ) -> None:
        if not pattern_is_clifford(pattern):
            raise ValueError(
                "pattern has non-Pauli measurement angles; "
                "use the dense PatternSimulator"
            )
        self.pattern = pattern
        self.seed = seed
        self.force_outcomes = force_outcomes or {}
        self.outcome_flips = frozenset(outcome_flips or ())

    def run(
        self,
        prepared: Optional[Tuple[StabilizerState, Dict[int, int]]] = None,
    ) -> StabilizerPatternResult:
        """Execute the pattern; returns the full-tableau result record.

        ``prepared`` optionally supplies a ``(state, node->qubit)`` pair —
        a graph-state tableau built ahead of time (possibly with Pauli
        faults already injected).  The caller owns that state: it is
        consumed in place, so pass a copy when reusing a base tableau
        across shots.  When omitted, the graph state is built fresh from
        the pattern.
        """
        pattern = self.pattern
        if prepared is None:
            state, index = StabilizerState.graph_state(
                pattern.graph, seed=self.seed, zero_nodes=pattern.inputs
            )
        else:
            state, index = prepared
        outcomes: Dict[int, int] = {}
        for node in pattern.measurement_order():
            alpha = pattern.angles[node]
            s = 0
            for src in pattern.x_deps.get(node, frozenset()):
                s ^= outcomes[src]
            t = 0
            for src in pattern.z_deps.get(node, frozenset()):
                t ^= outcomes[src]
            theta = ((-1.0) ** s) * alpha + t * math.pi
            basis, sign = _pauli_basis(theta)
            pauli = PauliString.from_ops(state.n, {index[node]: basis}, sign=sign)
            outcome = state.measure_pauli(
                pauli, force=self.force_outcomes.get(node)
            )
            if node in self.outcome_flips:
                outcome ^= 1
            outcomes[node] = outcome
        for node in pattern.outputs:
            t = 0
            for src in pattern.output_z.get(node, frozenset()):
                t ^= outcomes[src]
            if t:
                state.z_gate(index[node])
            s = 0
            for src in pattern.output_x.get(node, frozenset()):
                s ^= outcomes[src]
            if s:
                state.x_gate(index[node])
        return StabilizerPatternResult(
            state=state, qubit_of=index, outcomes=outcomes
        )


def simulate_pattern_stabilizer(
    pattern: MeasurementPattern, seed: Optional[int] = None
) -> StabilizerPatternResult:
    """One-shot wrapper around :class:`StabilizerPatternSimulator`."""
    return StabilizerPatternSimulator(pattern, seed=seed).run()

