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
Clifford circuits) on a CHP tableau with the same lifetimes: a qubit's
slot exists from its first entanglement to its measurement and is then
reused (:class:`WindowTableau`, rows as Python ints).  The tableau is as
wide as the peak live window, e.g. 49 slots for a 655-node pattern of a
48-qubit random Clifford circuit, which scales verification to hundreds
of qubits.  ``repro.core.validate.verify_pattern`` picks between the two
executors automatically; the Monte-Carlo sampler runs the stabilizer one
as its reference and oracle executions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mbqc.pattern import MeasurementPattern
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
        self._applied_edges: Set[Tuple[int, int]] = set()
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
        state: np.ndarray = np.transpose(tensor, axes=perm).reshape(-1)
        return state


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


def _times_pivot(ix: int, iz: int, ir: int, hx: int, hz: int, hr: int) -> int:
    """Sign bit of the stabilizer product ``h * i`` of int rows (bit
    ``k`` is slot ``k``).

    The AG phase function ``g`` summed as in
    :func:`repro.sim.stabilizer._phase_sum_packed`: each of the pivot's
    X, Y and Z positions meets one row Pauli with a ``+i`` and one with
    a ``-i``.  ``2 (hr + ir) + g`` must be even, since stabilizer
    products are Hermitian.
    """
    px, py, pz = ix & ~iz, ix & iz, iz & ~ix
    hx_only, hy, hz_only = hx & ~hz, hx & hz, hz & ~hx
    plus = (py & hz_only) | (px & hy) | (pz & hx_only)
    minus = (py & hx_only) | (px & hz_only) | (pz & hy)
    phase = 2 * (hr + ir) + plus.bit_count() - minus.bit_count()
    if phase & 1:
        raise RuntimeError("non-Hermitian product in stabilizer rowsum")
    return (phase >> 1) & 1


class WindowTableau:
    """CHP tableau over the live window of one pattern execution.

    A photon's qubit exists from its first entanglement to its
    measurement, and so does its tableau slot.  Rows are Python ints
    (bit ``k`` is slot ``k``) with one destabilizer/stabilizer pair per
    slot, so the width is the peak number of live qubits, not the node
    count.  A free slot's pair is all zero and no row has support on a
    free slot: a new qubit takes one over without an RNG draw or a
    touch to any other pair.  No CHP outcome reads a destabilizer sign,
    so only stabilizer signs are kept.
    """

    def __init__(self) -> None:
        self.dx: List[int] = []
        self.dz: List[int] = []
        self.sx: List[int] = []
        self.sz: List[int] = []
        self.sr: List[int] = []
        self._free: List[int] = []

    @property
    def width(self) -> int:
        """Slots ever allocated: the peak live window."""
        return len(self.sx)

    def add_qubit(self, zero: bool, neighbours: int) -> int:
        """Allocate a slot for a fresh ``|0>`` (*zero*) or ``|+>`` qubit,
        apply CZ to every live slot in the *neighbours* mask, and return
        the slot.

        The fresh qubit has support only on its own pair, so the CZ batch
        has a closed form: the pair becomes ``(Z, X Z_nbrs)`` for ``|+>``
        or ``(X Z_nbrs, Z)`` for ``|0>``, every other row gains a Z on
        the new slot iff its X part meets the neighbours an odd number of
        times, and no sign changes.
        """
        if self._free:
            q = self._free.pop()
        else:
            q = self.width
            for rows in (self.dx, self.dz, self.sx, self.sz, self.sr):
                rows.append(0)
        bit = 1 << q
        if neighbours:
            for xs, zs in ((self.dx, self.dz), (self.sx, self.sz)):
                for j, x in enumerate(xs):
                    if x & neighbours and (x & neighbours).bit_count() & 1:
                        zs[j] ^= bit
        if zero:
            self.dx[q], self.dz[q] = bit, neighbours
            self.sx[q], self.sz[q] = 0, bit
        else:
            self.dx[q], self.dz[q] = 0, bit
            self.sx[q], self.sz[q] = bit, neighbours
        self.sr[q] = 0
        return q

    def apply_pauli(self, q: int, x: int, z: int) -> None:
        """Pauli ``X^x Z^z`` on slot *q*: a sign flip on every stabilizer
        it anticommutes with."""
        px, pz = x << q, z << q
        sx, sz, sr = self.sx, self.sz, self.sr
        for j in range(len(sx)):
            if (sz[j] & px) ^ (sx[j] & pz):
                sr[j] ^= 1

    def measure(
        self,
        q: int,
        y_basis: bool,
        sign: int,
        force: Optional[int],
        rng: np.random.Generator,
    ) -> int:
        """Measure ``(-1)^sign`` X (or Y) on slot *q* and free the slot;
        returns ``m`` for outcome ``(-1)^m``.

        A random outcome draws one ``rng.integers(2)`` unless *force*
        gives it; a deterministic one is read off the stabilizer product
        (and must equal *force* when given), after which a forced Z
        collapse, which draws nothing, localizes the product qubit.
        """
        bit = 1 << q
        pz = bit if y_basis else 0
        p = self._anticommuting_stabilizer(bit, pz)
        if p >= 0:
            outcome = int(force) if force is not None else int(rng.integers(2))
            self._release(q, bit, pz, p, (sign + outcome) & 1)
            return outcome
        outcome = (self._product_sign(bit, pz) + sign) & 1
        if force is not None and int(force) != outcome:
            raise RuntimeError(
                f"forced outcome {force} has zero probability (got {outcome})"
            )
        self._release(q, 0, bit, self._anticommuting_stabilizer(0, bit), 0)
        return outcome

    def expectation(self, px: int, pz: int) -> Optional[int]:
        """Sign bit of the Pauli ``(px, pz)`` in the stabilizer group, or
        ``None`` when measuring it would be random."""
        if self._anticommuting_stabilizer(px, pz) >= 0:
            return None
        return self._product_sign(px, pz)

    # ------------------------------------------------------------------
    def _anticommuting_stabilizer(self, px: int, pz: int) -> int:
        """First stabilizer anticommuting with ``(px, pz)``, or -1."""
        for j, (x, z) in enumerate(zip(self.sx, self.sz)):
            overlap = (x & pz) ^ (z & px)
            if overlap and overlap.bit_count() & 1:
                return j
        return -1

    def _product_sign(self, px: int, pz: int) -> int:
        """Sign bit of a Pauli that commutes with every stabilizer: the
        product of the stabilizers whose destabilizer partners
        anticommute with it, which must reproduce it."""
        dx, dz, sx, sz, sr = self.dx, self.dz, self.sx, self.sz, self.sr
        acc_x = acc_z = acc_r = 0
        for j in range(len(sx)):
            overlap = (dx[j] & pz) ^ (dz[j] & px)
            if overlap and overlap.bit_count() & 1:
                acc_r = _times_pivot(sx[j], sz[j], sr[j], acc_x, acc_z, acc_r)
                acc_x ^= sx[j]
                acc_z ^= sz[j]
        if acc_x != px or acc_z != pz:
            raise RuntimeError(
                "deterministic measurement does not reproduce the Pauli; "
                "tableau is corrupt"
            )
        return acc_r

    def _release(self, q: int, px: int, pz: int, p: int, sign: int) -> None:
        """Collapse slot *q* onto ``(-1)^sign P`` (the one-qubit Pauli
        ``(px, pz)``) with stabilizer *p* as pivot, then free the slot.

        As in CHP, every other row anticommuting with ``P`` is multiplied
        by the pivot.  Each row then holds ``I`` or ``P`` on *q*, and a
        ``P`` is stripped by multiplying with the new stabilizer
        ``(-1)^sign P``.  The pivot pair is now ``(Q, P)`` on *q* alone,
        a product qubit: it is dropped, and pair *q* moves into its
        index.
        """
        bit = 1 << q
        keep = ~bit
        dx, dz, sx, sz, sr = self.dx, self.dz, self.sx, self.sz, self.sr
        ix, iz, ir = sx[p], sz[p], sr[p]
        for j in range(len(sx)):
            # a row without support on q neither anticommutes with P nor
            # holds it
            x, z = dx[j], dz[j]
            if (x | z) & bit and j != p:
                if (x & pz) ^ (z & px):
                    x ^= ix
                    z ^= iz
                dx[j], dz[j] = x & keep, z & keep
            x, z = sx[j], sz[j]
            if (x | z) & bit and j != p:
                r = sr[j]
                if (x & pz) ^ (z & px):
                    r = _times_pivot(ix, iz, ir, x, z, r)
                    x ^= ix
                    z ^= iz
                if (x | z) & bit:
                    r ^= sign
                sx[j], sz[j], sr[j] = x & keep, z & keep, r
        for rows in (dx, dz, sx, sz, sr):
            rows[p] = rows[q]
            rows[q] = 0
        self._free.append(q)


@dataclass
class StabilizerPatternResult:
    """Outcome record of one stabilizer pattern execution.

    Attributes:
        tableau: the live-window tableau after execution.  Every
            measured node's slot is free again, so it holds exactly the
            output register; output byproducts are already corrected.
        slot_of: output node -> tableau slot.
        outcomes: measured node -> recorded outcome bit.
    """

    tableau: WindowTableau
    slot_of: Dict[int, int]
    outcomes: Dict[int, int]

    @property
    def peak_window(self) -> int:
        """Most qubits live at once during the execution."""
        return self.tableau.width

    def violated_generator(
        self,
        outputs: Sequence[int],
        rows: Sequence[Tuple[np.ndarray, np.ndarray, int]],
    ) -> Optional[Tuple[int, Optional[int]]]:
        """First circuit stabilizer generator that does not hold.

        ``rows`` are ``(x, z, sign)`` generators on the output register
        (:meth:`repro.sim.stabilizer.StabilizerState.stabilizer_rows`);
        each is lifted onto the slots of *outputs* and its expectation
        compared with its sign.  Returns ``(index, observed)`` for the
        first mismatch (``observed`` is ``None`` when the outcome is
        random), or ``None`` when every generator holds.
        """
        bits = [1 << self.slot_of[node] for node in outputs]
        for which, (x, z, sign) in enumerate(rows):
            px = pz = 0
            for wire in np.flatnonzero(x):
                px |= bits[wire]
            for wire in np.flatnonzero(z):
                pz |= bits[wire]
            observed = self.tableau.expectation(px, pz)
            if observed != sign:
                return which, observed
        return None


class StabilizerPatternSimulator:
    """Executes a Clifford :class:`MeasurementPattern` on a live-window
    CHP tableau (:class:`WindowTableau`).

    Qubits come and go as in :class:`PatternSimulator`: a node gets a
    slot when it is measured or is a neighbour of the node being
    measured, entangled with its live neighbours as it enters, and its
    slot is freed when it is measured; the outputs enter last.  Every
    node is measured in its *actual* Pauli basis (the adaptive angle
    ``(-1)^s alpha + t pi`` stays a Pauli angle when ``alpha`` is one).
    Input nodes are prepared in ``|0>``, the others in ``|+>``.
    Outcomes, and the answers of
    :meth:`StabilizerPatternResult.violated_generator`, are those of a
    tableau over every node holding the whole graph state: a Pauli
    measurement on one qubit commutes with every CZ not on that qubit,
    and each random outcome draws one ``rng.integers(2)`` from the
    generator *seed* makes (``numpy.random.default_rng(seed)``, so a
    ``Generator`` is used as is).

    ``outcome_flips`` models classical measurement (detector) errors: for
    each listed node the *recorded* outcome bit — the one feed-forward
    and byproduct corrections consume — is the complement of the physical
    collapse branch.  ``faults`` lists ``(node, 'x'|'y'|'z')`` Pauli
    faults on the prepared graph state.  Each is applied once all of its
    node's CZs are in, just before the node is measured (for an output,
    at the end); a Pauli on one qubit commutes with everything else
    that happens in between.
    :meth:`repro.sim.noisy.NoisySampler._execute_shot` injects sampled
    faults and measurement errors this way.
    """

    def __init__(
        self,
        pattern: MeasurementPattern,
        seed: Optional[int | np.random.Generator] = None,
        force_outcomes: Optional[Dict[int, int]] = None,
        outcome_flips: Optional[Iterable[int]] = None,
        faults: Optional[Iterable[Tuple[int, str]]] = None,
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
        # node -> (x, z) parity of its Pauli faults
        self.faults: Dict[int, Tuple[int, int]] = {}
        for node, kind in faults or ():
            x, z = self.faults.get(node, (0, 0))
            self.faults[node] = (x ^ (kind in "xy"), z ^ (kind in "yz"))

    def run(self) -> StabilizerPatternResult:
        """Execute the pattern; returns the window-tableau result record."""
        pattern = self.pattern
        rng = np.random.default_rng(self.seed)
        adj = pattern.graph.adj
        zero_nodes = frozenset(pattern.inputs)
        faults = self.faults
        tableau = WindowTableau()
        slot_of: Dict[int, int] = {}
        outcomes: Dict[int, int] = {}

        def add(node: int) -> None:
            live = 0
            for nbr in adj[node]:
                slot = slot_of.get(nbr)
                if slot is not None:
                    live |= 1 << slot
            slot_of[node] = tableau.add_qubit(node in zero_nodes, live)

        def parity(sources: Iterable[int]) -> int:
            bit = 0
            for src in sources:
                bit ^= outcomes[src]
            return bit

        for node in pattern.measurement_order():
            if node not in slot_of:
                add(node)
            for nbr in adj[node]:
                if nbr not in slot_of and nbr not in outcomes:
                    add(nbr)
            slot = slot_of.pop(node)
            if node in faults:
                tableau.apply_pauli(slot, *faults[node])
            s = parity(pattern.x_deps.get(node, ()))
            t = parity(pattern.z_deps.get(node, ()))
            theta = ((-1.0) ** s) * pattern.angles[node] + t * math.pi
            basis, sign = _pauli_basis(theta)
            outcome = tableau.measure(
                slot, basis == "y", sign, self.force_outcomes.get(node), rng
            )
            if node in self.outcome_flips:
                outcome ^= 1
            outcomes[node] = outcome
        for node in pattern.outputs:
            if node not in slot_of:
                add(node)
        for node in pattern.outputs:
            x, z = faults.get(node, (0, 0))
            x ^= parity(pattern.output_x.get(node, ()))
            z ^= parity(pattern.output_z.get(node, ()))
            if x or z:
                tableau.apply_pauli(slot_of[node], x, z)
        return StabilizerPatternResult(
            tableau=tableau, slot_of=slot_of, outcomes=outcomes
        )


def simulate_pattern_stabilizer(
    pattern: MeasurementPattern, seed: Optional[int] = None
) -> StabilizerPatternResult:
    """One-shot wrapper around :class:`StabilizerPatternSimulator`.

    Outcomes are a pure function of the pattern and the seed, and the
    tableau never holds more than the live window:

    >>> from repro.circuit import get_benchmark
    >>> from repro.mbqc.translate import circuit_to_pattern
    >>> pattern = circuit_to_pattern(get_benchmark("BV", 4))
    >>> result = simulate_pattern_stabilizer(pattern, seed=1)
    >>> result.outcomes
    {3: 0, 4: 1, 1: 1, 5: 1, 6: 0}
    >>> result.peak_window, pattern.num_nodes
    (4, 9)
    """
    return StabilizerPatternSimulator(pattern, seed=seed).run()
