"""Bit-packed Pauli-frame Monte-Carlo engine for Clifford patterns.

The per-shot reference executor builds a tableau per shot.  This
module removes the tableau from the faulty-shot path altogether: every
fault channel :class:`repro.sim.noisy.NoisySampler` supports is a
sign-only Pauli perturbation of one fixed Clifford execution, so after a
single noiseless reference run the *entire* per-shot state collapses to
a Pauli **frame** — which X/Z flips the shot carries relative to the
reference — XOR-propagated 64 shots per ``uint64`` word (Gidney's *Stim*
frame propagation, PAPERS.md).

Why a frame suffices
--------------------

A pattern execution applies no gates besides the graph state's CZs,
and nodes are measured in single-qubit Pauli bases (X or Y, with a
feed-forward-adapted sign).  The executor entangles each qubit only as
it enters its live window, but a Pauli measurement on one qubit
commutes with every CZ not on that qubit, so the analysis may take the
graph state as prepared up front.  A faulty shot's state before any
measurement is ``E |psi>`` with ``E`` the injected Pauli frame and
``|psi>`` the reference state.  Aligning each measurement's random
collapse branch with the reference run (a gauge choice — pass/fail is
branch-independent, the same fact that makes the frame tallies
bit-identical to the per-shot reference's):

* the physical outcome flips iff ``E`` anticommutes with the measured
  basis operator, and the post-measurement state is again ``E`` times
  the reference post-state — the frame passes through unchanged;
* at Pauli angles the feed-forward ``(-1)^s alpha + t pi`` moves only
  the measured operator's *sign*, and that sign is an affine GF(2)
  function ``sign = c ^ (basis==Y)*s ^ t`` of the dependency parities
  (derived per node through the scalar executor's sign table, so the
  paths cannot drift);
* hence the *recorded*-outcome difference against the reference obeys a
  linear recurrence::

      delta[k] = anticommute(E, P_k) ^ detector_flip[k]
                 ^ (basis_k==Y) * XOR(delta[x_deps]) ^ XOR(delta[z_deps])

* output byproduct corrections differ by ``X^XOR(delta[output_x])
  Z^XOR(delta[output_z])`` per output node, which simply joins the
  frame; and a circuit stabilizer generator ``G`` (which the reference
  run satisfies — the calibration check) holds on the faulty output iff
  the final frame commutes with ``G``.

Every quantity above is one bit per shot, so a chunk of shots executes
as ``(2n, ceil(shots/64))`` uint64 frame matrices (X rows and Z rows)
plus a ``(steps, words)`` delta matrix: fault injection, measurement
flips, feed-forward and byproduct corrections are all masked XOR/AND
word operations, and per-shot cost is independent of qubit count.

Stim re-randomizes the frame component along each measured operator
after the measurement (``P`` acts as +-1 on its own eigenstate) so the
frames it hands out are distribution-correct.  This engine needs no
such reseed: frames never leave the engine (only the pass mask does),
and no check reads the frame row of a measured qubit — a measured row
is read once, at its own step, so randomizing it afterwards could not
change any result.  The frame linter enforces the second half
(``R009`` in :mod:`repro.analysis.lint`).

:class:`PauliFrameSimulator` compiles the frame program and runs the
noiseless pattern once on the live-window tableau
(:class:`repro.sim.pattern_sim.StabilizerPatternSimulator`).  No
tableau over all pattern nodes is built: frame row ``i`` is the
``i``-th node in sorted order.  That
reference run anchors every frame and is also the calibration: it
proves a fault-free shot passes every output check, so
:class:`repro.sim.noisy.NoisySampler` counts zero-fault shots as passes
without executing them.  Faulty shots then run via
:meth:`PauliFrameSimulator.run_shots`.
``NoisySampler.run`` is the production entry point;
``tests/sim/test_noisy.py`` pins frame tallies bit-identical to the
per-shot reference executor; the ``yield-clifford`` workload of
``perfbench/run.py`` tracks its speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.circuit import Circuit
from repro.mbqc.pattern import MeasurementPattern
from repro.sim.pattern_sim import (
    StabilizerPatternSimulator,
    _pauli_sign_table,
    pattern_is_clifford,
)
from repro.sim.stabilizer import (
    _bit_positions,
    _unpack_bits,
    circuit_stabilizer_rows,
)


@dataclass(frozen=True)
class FrameStep:
    """One measurement of the flat frame program.

    Attributes:
        node: pattern node this step measures.
        qubit: its frame row (the node's rank in sorted node order).
        y_basis: measured operator is Y (else X).  Doubles as the
            feed-forward coefficient: at Pauli angles the measured sign
            depends on the X-dependency parity ``s`` iff the basis is Y
            (asserted against the scalar sign table at compile time).
        x_deps, z_deps: earlier step indices whose recorded-outcome
            deltas feed this step's sign (the pattern's X-/Z-dependency
            sources, resolved to frame-program positions).
    """

    node: int
    qubit: int
    y_basis: bool
    x_deps: Tuple[int, ...]
    z_deps: Tuple[int, ...]


@dataclass(frozen=True)
class FrameCheck:
    """One output stabilizer check as frame-bit parities.

    A circuit stabilizer generator holds on a shot's output state iff
    the XOR of the listed frame rows (X rows over ``frame_x`` qubits,
    Z rows over ``frame_z`` qubits) and outcome-delta rows
    (``delta_steps``, covering the byproduct-correction differences) is
    zero for that shot.
    """

    frame_x: Tuple[int, ...]
    frame_z: Tuple[int, ...]
    delta_steps: Tuple[int, ...]


@dataclass(frozen=True)
class FrameProgram:
    """Flat compiled form of a Clifford pattern for frame execution.

    Attributes:
        num_qubits: frame rows (= pattern nodes).
        steps: the measurement sequence, in pattern measurement order.
        step_of_node: measured pattern node -> step index (where a
            sampled detector flip on that node lands).
        checks: one :class:`FrameCheck` per circuit stabilizer
            generator; a shot passes iff every check parity is zero.
    """

    num_qubits: int
    steps: Tuple[FrameStep, ...]
    step_of_node: Dict[int, int]
    checks: Tuple[FrameCheck, ...]

    @classmethod
    def compile(
        cls,
        pattern: MeasurementPattern,
        circuit_rows: Sequence[Tuple[np.ndarray, np.ndarray, int]],
    ) -> "FrameProgram":
        """Flatten *pattern* + ideal-output generators into a program.

        ``circuit_rows`` are the unpacked ``(x, z, sign)`` stabilizer
        generators of the ideal circuit output
        (:meth:`repro.sim.stabilizer.StabilizerState.stabilizer_rows`).
        Frame row ``i`` belongs to the ``i``-th pattern node in sorted
        order.
        """
        nodes = sorted(pattern.graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        steps = []
        step_of: Dict[int, int] = {}
        for node in pattern.measurement_order():
            basis, table = _pauli_sign_table(pattern.angles[node])
            a_s = int(table[1, 0]) ^ int(table[0, 0])
            a_t = int(table[0, 1]) ^ int(table[0, 0])
            affine = int(table[1, 1]) == int(table[0, 0]) ^ a_s ^ a_t
            if not (affine and a_t == 1 and a_s == (basis == "y")):
                # impossible for Pauli angles; guards the delta recurrence
                raise ValueError(
                    f"node {node}: sign table of angle "
                    f"{pattern.angles[node]} is not the affine "
                    "c ^ (basis==Y)*s ^ t form the frame engine assumes"
                )
            try:
                x_deps = tuple(
                    sorted(step_of[src] for src in pattern.x_deps.get(node, ()))
                )
                z_deps = tuple(
                    sorted(step_of[src] for src in pattern.z_deps.get(node, ()))
                )
            except KeyError as exc:
                raise ValueError(
                    f"node {node} depends on node {exc.args[0]} which is "
                    "not measured before it; the pattern order is invalid"
                ) from None
            step_of[node] = len(steps)
            steps.append(
                FrameStep(
                    node=node,
                    qubit=index[node],
                    y_basis=basis == "y",
                    x_deps=x_deps,
                    z_deps=z_deps,
                )
            )

        checks = []
        for gx, gz, _ in circuit_rows:
            frame_x = []
            frame_z = []
            parity: Dict[int, int] = {}
            for wire, node in enumerate(pattern.outputs):
                # frame X components anticommute with the generator's Z
                # part and vice versa; byproduct deltas join the frame
                if gz[wire]:
                    frame_x.append(index[node])
                    for src in pattern.output_x.get(node, ()):
                        parity[step_of[src]] = parity.get(step_of[src], 0) ^ 1
                if gx[wire]:
                    frame_z.append(index[node])
                    for src in pattern.output_z.get(node, ()):
                        parity[step_of[src]] = parity.get(step_of[src], 0) ^ 1
            checks.append(
                FrameCheck(
                    frame_x=tuple(frame_x),
                    frame_z=tuple(frame_z),
                    delta_steps=tuple(
                        sorted(s for s, odd in parity.items() if odd)
                    ),
                )
            )
        return cls(
            num_qubits=len(index),
            steps=tuple(steps),
            step_of_node=step_of,
            checks=tuple(checks),
        )


class PauliFrameSimulator:
    """Executes faulty shots of a Clifford pattern as bit-packed frames.

    Construction compiles the flat :class:`FrameProgram` and runs the
    noiseless pattern once on the live-window tableau — the reference
    execution every frame is relative to, and the calibration proof
    that a fault-free shot passes every output stabilizer check.

    Args:
        pattern: the Clifford measurement pattern.
        circuit: source circuit defining the ideal output stabilizer
            group; its generators become the output checks.
        seed: seeds the reference run's (gauge) outcome draws.

    Raises:
        RuntimeError: the reference run violates an output generator —
            the pattern does not implement the circuit.

    Attributes:
        program: the compiled :class:`FrameProgram`.
        circuit_rows: the circuit's output stabilizer generators
            (:func:`repro.sim.stabilizer.circuit_stabilizer_rows`).
        reference_outcomes: measured node -> outcome bit of the
            reference run (one sampled gauge branch).
    """

    def __init__(
        self,
        pattern: MeasurementPattern,
        circuit: Circuit,
        seed: Optional[int] = None,
    ) -> None:
        if not pattern_is_clifford(pattern):
            raise ValueError(
                "pattern has non-Pauli measurement angles; the frame "
                "engine needs a Clifford pattern"
            )
        if len(pattern.outputs) != circuit.num_qubits:
            raise ValueError(
                f"pattern has {len(pattern.outputs)} outputs for a "
                f"{circuit.num_qubits}-qubit circuit"
            )
        self.pattern = pattern
        self.circuit_rows = circuit_stabilizer_rows(circuit)
        self.program = FrameProgram.compile(pattern, self.circuit_rows)

        # reference run + calibration: the noiseless execution must pass
        # every output check, or "frame commutes with G" would not mean
        # "G holds" and zero-frame shots could not be counted as passes
        result = StabilizerPatternSimulator(pattern, seed=seed).run()
        violated = result.violated_generator(
            pattern.outputs, self.circuit_rows
        )
        if violated is not None:
            raise RuntimeError(
                f"reference execution violates output stabilizer "
                f"generator {violated[0]}; the pattern does not implement "
                "the circuit"
            )
        self.reference_outcomes: Dict[int, int] = dict(result.outcomes)
        # measured frame row -> step index (-1: output, never a step)
        self._step_of_qubit = np.full(self.program.num_qubits, -1, np.int64)
        for k, step in enumerate(self.program.steps):
            self._step_of_qubit[step.qubit] = k

    # ------------------------------------------------------------------
    def run_shots(
        self,
        num_shots: int,
        fault_qubit: np.ndarray,
        fault_kind: np.ndarray,
        fault_shot: np.ndarray,
        flip_qubit: np.ndarray,
        flip_shot: np.ndarray,
    ) -> np.ndarray:
        """Execute *num_shots* faulty shots from flat fault arrays;
        returns the ``(num_shots,)`` boolean pass mask.

        Entry ``e`` of the fault arrays injects Pauli
        ``"xyz"[fault_kind[e]]`` on frame row ``fault_qubit[e]`` of
        shot ``fault_shot[e]``; entry ``e`` of the flip arrays
        complements the recorded outcome of the measured frame row
        ``flip_qubit[e]`` on shot ``flip_shot[e]`` (a detector error —
        output qubits are rejected, their readout flips are classical
        failures the caller tallies without executing).  The pass mask
        is a deterministic function of the fault arrays.
        """
        if num_shots == 0:
            return np.zeros(0, dtype=bool)
        program = self.program
        words = (num_shots + 63) >> 6
        frame_x = np.zeros((program.num_qubits, words), dtype=np.uint64)
        frame_z = np.zeros((program.num_qubits, words), dtype=np.uint64)
        delta = np.zeros((len(program.steps), words), dtype=np.uint64)
        if fault_shot.size:
            word, mask = _bit_positions(fault_shot)
            x_part = fault_kind != 2  # X and Y components flip frame_x
            z_part = fault_kind != 0  # Z and Y components flip frame_z
            np.bitwise_xor.at(
                frame_x, (fault_qubit[x_part], word[x_part]), mask[x_part]
            )
            np.bitwise_xor.at(
                frame_z, (fault_qubit[z_part], word[z_part]), mask[z_part]
            )
        if flip_shot.size:
            steps = self._step_of_qubit[flip_qubit]
            if np.any(steps < 0):
                raise ValueError(
                    "outcome flip on a qubit the pattern never measures"
                )
            word, mask = _bit_positions(flip_shot)
            # seed delta with the detector flips
            np.bitwise_xor.at(delta, (steps, word), mask)

        for k, step in enumerate(program.steps):
            row = delta[k]  # in-place view: holds detector flips so far
            row ^= frame_z[step.qubit]  # anticommutation with X or Y
            if step.y_basis:
                row ^= frame_x[step.qubit]
                for dep in step.x_deps:  # sign feed-forward: s parity
                    row ^= delta[dep]
            for dep in step.z_deps:  # sign feed-forward: t parity
                row ^= delta[dep]

        failed = np.zeros(words, dtype=np.uint64)
        for check in program.checks:
            acc = np.zeros(words, dtype=np.uint64)
            for qubit in check.frame_x:
                acc ^= frame_x[qubit]
            for qubit in check.frame_z:
                acc ^= frame_z[qubit]
            for step_idx in check.delta_steps:
                acc ^= delta[step_idx]
            failed |= acc
        return _unpack_bits(failed, num_shots) == 0
