"""Bit-packed Pauli-frame Monte-Carlo engine for Clifford patterns.

The per-shot reference executor copies a tableau per shot.  This
module removes the tableau from the faulty-shot path altogether: every
fault channel :class:`repro.sim.noisy.NoisySampler` supports is a
sign-only Pauli perturbation of one fixed Clifford execution, so after a
single noiseless reference run the *entire* per-shot state collapses to
a Pauli **frame** — which X/Z flips the shot carries relative to the
reference — XOR-propagated 64 shots per ``uint64`` word (Gidney's *Stim*
frame propagation, PAPERS.md).

Why a frame suffices
--------------------

A pattern execution applies no gates: the graph state is prepared up
front and nodes are then measured in single-qubit Pauli bases (X or Y,
with a feed-forward-adapted sign).  A faulty shot's state before any
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
After each measurement the frame component along the measured operator
is re-randomized (``P`` acts as +-1 on its own eigenstate): a fresh
random reseed on the measured qubit keeps the frame *distribution*
correct — tallies are invariant under it (measured qubits never feed
the output checks), which the reseed-off regression test pins.

:class:`PauliFrameSimulator` compiles the frame program by running the
noiseless pattern once on the scalar tableau
(:class:`repro.sim.pattern_sim.StabilizerPatternSimulator`) — the
calibration run that anchors the reference — and then executes faulty
chunks via :meth:`PauliFrameSimulator.run_chunk`.
``NoisySampler.run`` is the production entry point;
``tests/sim/test_noisy.py`` pins frame tallies bit-identical to the
per-shot reference executor and ``benchmarks/bench_noisy.py`` gates
the speedup (>= 100x over it at 2000 shots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.mbqc.pattern import MeasurementPattern
from repro.sim.pattern_sim import (
    StabilizerPatternSimulator,
    _pauli_sign_table,
    pattern_is_clifford,
)
from repro.sim.stabilizer import StabilizerState, _bit_positions, _unpack_bits

_U64_MAX = np.iinfo(np.uint64).max
_ONE = np.uint64(1)


@dataclass(frozen=True)
class FrameStep:
    """One measurement of the flat frame program.

    Attributes:
        node: pattern node this step measures.
        qubit: its tableau qubit (frame row) index.
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
        num_qubits: tableau qubits (= pattern nodes).
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
        index: Dict[int, int],
    ) -> "FrameProgram":
        """Flatten *pattern* + ideal-output generators into a program.

        ``circuit_rows`` are the unpacked ``(x, z, sign)`` stabilizer
        generators of the ideal circuit output
        (:meth:`repro.sim.stabilizer.StabilizerState.stabilizer_rows`);
        ``index`` maps pattern nodes to tableau qubits.
        """
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

    Construction runs the noiseless pattern once on the scalar tableau —
    the reference execution every frame is relative to, and the
    calibration proof that a fault-free shot passes every output
    stabilizer check — then compiles the flat :class:`FrameProgram`.

    Args:
        pattern: the Clifford measurement pattern.
        circuit: source circuit defining the ideal output stabilizer
            group; its ``stabilizer_rows()`` become the output checks.
        circuit_rows: those rows directly (callers that already built
            them, e.g. :class:`repro.sim.noisy.NoisySampler`).  Exactly
            one of *circuit* / *circuit_rows* must be given.
        prepared: optional ``(state, node->qubit)`` base graph-state
            tableau; consumed by the reference run.  Defaults to a fresh
            :meth:`StabilizerState.graph_state` build.
        seed: seeds the reference run's (gauge) outcome draws and the
            default reseed stream of :meth:`run_chunk`.
        reseed: draw a fresh random frame component along each measured
            operator after its measurement (the Stim-style gauge
            randomization that keeps the frame distribution correct).
            Tallies are invariant either way — measured qubits never
            feed the output checks — so ``False`` skips the draws.

    Attributes:
        program: the compiled :class:`FrameProgram`.
        reference_outcomes: measured node -> outcome bit of the
            reference run (one sampled gauge branch).
    """

    def __init__(
        self,
        pattern: MeasurementPattern,
        circuit: Optional["Circuit"] = None,
        circuit_rows: Optional[
            Sequence[Tuple[np.ndarray, np.ndarray, int]]
        ] = None,
        prepared: Optional[Tuple[StabilizerState, Dict[int, int]]] = None,
        seed: Optional[int] = None,
        reseed: bool = True,
    ) -> None:
        if (circuit is None) == (circuit_rows is None):
            raise ValueError("pass exactly one of circuit / circuit_rows")
        if not pattern_is_clifford(pattern):
            raise ValueError(
                "pattern has non-Pauli measurement angles; the frame "
                "engine needs a Clifford pattern"
            )
        if circuit is not None:
            if len(pattern.outputs) != circuit.num_qubits:
                raise ValueError(
                    f"pattern has {len(pattern.outputs)} outputs for a "
                    f"{circuit.num_qubits}-qubit circuit"
                )
            circuit_state = StabilizerState(circuit.num_qubits)
            circuit_state.apply_circuit(circuit)
            circuit_rows = circuit_state.stabilizer_rows()
        if len(circuit_rows) != len(pattern.outputs):
            raise ValueError(
                f"{len(circuit_rows)} output stabilizer generators for "
                f"{len(pattern.outputs)} pattern outputs"
            )
        self.pattern = pattern
        self.reseed = reseed
        self.rng = np.random.default_rng(seed)

        if prepared is None:
            state, index = StabilizerState.graph_state(
                pattern.graph, zero_nodes=pattern.inputs
            )
        else:
            state, index = prepared
        self.program = FrameProgram.compile(pattern, circuit_rows, index)

        # reference run + calibration: the noiseless execution must pass
        # every output check, or "frame commutes with G" would not mean
        # "G holds" and zero-frame shots could not be counted as passes
        state.rng = np.random.default_rng(seed)
        result = StabilizerPatternSimulator(pattern).run(
            prepared=(state, index)
        )
        for which, (gx, gz, gr) in enumerate(circuit_rows):
            pauli = result.output_pauli(pattern.outputs, gx, gz)
            if result.state.expectation(pauli) != gr:
                raise RuntimeError(
                    f"reference execution violates output stabilizer "
                    f"generator {which}; the pattern does not implement "
                    "the circuit"
                )
        self.reference_outcomes: Dict[int, int] = dict(result.outcomes)
        # measured tableau qubit -> step index (-1: output, never a step)
        self._step_of_qubit = np.full(self.program.num_qubits, -1, np.int64)
        for k, step in enumerate(self.program.steps):
            self._step_of_qubit[step.qubit] = k
        self._qubit_of_node = {s.node: s.qubit for s in self.program.steps}

    # ------------------------------------------------------------------
    def run_chunk(
        self,
        chunk: Sequence[Tuple[Iterable[Tuple[int, str]], Iterable[int]]],
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Execute a chunk of faulty shots; returns the (len(chunk),)
        boolean pass mask of the output stabilizer checks.

        Each chunk entry is ``(pauli_faults, outcome_flips)``:
        ``pauli_faults`` iterates ``(tableau_qubit, 'x'|'y'|'z')``
        injected Pauli faults, ``outcome_flips`` iterates measured
        pattern nodes whose recorded outcome bit is complemented
        (detector errors).  Convenience converter onto
        :meth:`run_shots`, the flat bulk entry point.
        """
        fault_shot, fault_qubit, fault_kind = [], [], []
        flip_shot, flip_qubit = [], []
        for element, (pauli_faults, flips) in enumerate(chunk):
            for qubit, kind in pauli_faults:
                fault_shot.append(element)
                fault_qubit.append(qubit)
                fault_kind.append("xyz".index(kind))
            for node in flips:
                flip_shot.append(element)
                flip_qubit.append(self._qubit_of_node[node])
        return self.run_shots(
            len(chunk),
            np.asarray(fault_qubit, dtype=np.int64),
            np.asarray(fault_kind, dtype=np.int64),
            np.asarray(fault_shot, dtype=np.int64),
            np.asarray(flip_qubit, dtype=np.int64),
            np.asarray(flip_shot, dtype=np.int64),
            rng,
        )

    def run_shots(
        self,
        num_shots: int,
        fault_qubit: np.ndarray,
        fault_kind: np.ndarray,
        fault_shot: np.ndarray,
        flip_qubit: np.ndarray,
        flip_shot: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Execute *num_shots* faulty shots from flat fault arrays;
        returns the ``(num_shots,)`` boolean pass mask.

        Entry ``e`` of the fault arrays injects Pauli
        ``"xyz"[fault_kind[e]]`` on tableau qubit ``fault_qubit[e]`` of
        shot ``fault_shot[e]``; entry ``e`` of the flip arrays
        complements the recorded outcome of the measured tableau qubit
        ``flip_qubit[e]`` on shot ``flip_shot[e]`` (a detector error —
        output qubits are rejected, their readout flips are classical
        failures the caller tallies without executing).  *rng* feeds
        the gauge reseeds only: the pass mask is a deterministic
        function of the fault arrays.
        """
        if num_shots == 0:
            return np.zeros(0, dtype=bool)
        rng = rng if rng is not None else self.rng
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
            if self.reseed:
                # the measured operator acts as +-1 on its own
                # eigenstate: randomize the frame along it
                words_r = rng.integers(
                    0, _U64_MAX, size=words, dtype=np.uint64, endpoint=True
                )
                frame_x[step.qubit] ^= words_r
                if step.y_basis:
                    frame_z[step.qubit] ^= words_r

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
