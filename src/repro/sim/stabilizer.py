"""Bit-packed Aaronson-Gottesman (CHP) stabilizer tableau simulator.

A full tableau over every qubit it is given.  Supports the Clifford
gates used in this project, Z measurements, and measurements of
arbitrary Pauli products (the XZ/ZX joint measurements that realize
fusion).  Pattern execution does not run here: it runs on the
live-window tableau of :mod:`repro.sim.pattern_sim`.  This engine
serves two roles:

* **The circuit's reference rows.** :func:`circuit_stabilizer_rows`
  runs a Clifford circuit on ``|0...0>`` and returns its output
  stabilizer generators, the checks that pattern verification and the
  Pauli-frame engine assert on a pattern's outputs.
* **The full-tableau reference.** ``tests/sim/test_pattern_window.py``
  builds a whole graph state here and measures every node, and compares
  outcomes with the live-window executor at the same seed; the graph
  state identity and fusion tests run on it too.

Representation follows arXiv:quant-ph/0406196: ``2n`` rows of binary
``x``/``z`` vectors plus a sign bit; rows ``0..n-1`` are destabilizers and
rows ``n..2n-1`` stabilizers.  Rows are packed 64 qubits per ``uint64``
word, and the phase function of a row product is evaluated over whole
rows at once with popcount identities (the per-qubit branchy ``g`` of the
paper becomes two bitmasks: positions contributing ``+i`` and ``-i``).
One Pauli measurement is a handful of vectorized word operations instead
of an interpreted O(n^2) loop; the seed implementation is preserved in
``tests/sim/reference_stabilizer.py`` and pinned bit-identical by
``tests/sim/test_stabilizer_equivalence.py``.
:meth:`StabilizerState.measure_single` reads the rows anticommuting
with X, Y or Z on a qubit off one bit column of the tableau;
multi-qubit Paulis go through :meth:`~StabilizerState.measure_pauli`,
which popcounts every row.  Both hand over to one collapse core.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import networkx as nx
import numpy as np

from repro.utils.angles import is_clifford_angle, normalize_angle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuit.circuit import Circuit
    from repro.circuit.gates import Gate

_ONE = np.uint64(1)
_SIX3 = np.uint64(63)

try:
    _bitwise_count = np.bitwise_count
except AttributeError:  # pragma: no cover - NumPy < 2.0
    _POPCOUNT8 = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )
    def _bitwise_count(words: np.ndarray) -> np.ndarray:
        # per-byte counts; callers only ever sum along the last axis
        counts: np.ndarray = _POPCOUNT8[np.ascontiguousarray(words).view(np.uint8)]
        return counts


def _num_words(num_qubits: int) -> int:
    return (num_qubits + 63) >> 6


def _check_qubit(q: int, num_qubits: int) -> None:
    """Reject a qubit index outside ``[0, num_qubits)``: a negative one
    would wrap around, and one past ``n`` would read zero padding."""
    if not 0 <= q < num_qubits:
        raise ValueError(f"qubit {q} out of range for {num_qubits} qubits")


def _bit_positions(qubits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Map qubit indices to (word index, bit mask) pairs."""
    qubits = np.asarray(qubits, dtype=np.int64)
    return qubits >> 6, _ONE << (qubits.astype(np.uint64) & _SIX3)


def _pack_bits(bits: Sequence[int], num_words: int) -> np.ndarray:
    """Pack a 0/1 vector into little-bit-order ``uint64`` words."""
    bits = np.asarray(bits, dtype=np.uint64)
    words, masks = _bit_positions(np.flatnonzero(bits))
    out = np.zeros(num_words, dtype=np.uint64)
    np.bitwise_or.at(out, words, masks)
    return out


def _unpack_bits(words: np.ndarray, num_qubits: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits`: words -> uint8 vector of length n."""
    idx = np.arange(num_qubits, dtype=np.int64)
    shifts = idx.astype(np.uint64) & _SIX3
    bits: np.ndarray = ((words[idx >> 6] >> shifts) & _ONE).astype(np.uint8)
    return bits


def _phase_sum_packed(
    ix: np.ndarray, iz: np.ndarray, hx: np.ndarray, hz: np.ndarray
) -> np.ndarray:
    """Signed sum of the AG phase function ``g`` over whole packed rows.

    ``(ix, iz)`` is the multiplier row, ``(hx, hz)`` the row(s) being
    updated (broadcasting applies; the last axis is words).  ``g`` is
    ``+1``/``-1`` exactly on the positions captured by the two masks, so
    the per-qubit case analysis collapses into popcounts.  Padding bits
    beyond qubit ``n-1`` are zero in every non-complemented operand, and
    every mask term contains at least one, so they never contribute.
    """
    plus = (ix & iz & hz & ~hx) | (ix & ~iz & hx & hz) | (~ix & iz & hx & ~hz)
    minus = (ix & iz & hx & ~hz) | (ix & ~iz & hz & ~hx) | (~ix & iz & hx & hz)
    g: np.ndarray = _bitwise_count(plus).sum(
        axis=-1, dtype=np.int64
    ) - _bitwise_count(minus).sum(axis=-1, dtype=np.int64)
    return g


class PauliString:
    """A signed Pauli product on *n* qubits, e.g. ``+X0*Z3``."""

    def __init__(self, num_qubits: int) -> None:
        self.n = num_qubits
        self.x = np.zeros(num_qubits, dtype=np.uint8)
        self.z = np.zeros(num_qubits, dtype=np.uint8)
        self.sign = 0  # 0 -> +1, 1 -> -1

    @classmethod
    def from_ops(
        cls, num_qubits: int, ops: Dict[int, str], sign: int = 0
    ) -> "PauliString":
        """Build from a map qubit -> 'x' | 'y' | 'z'."""
        p = cls(num_qubits)
        for qubit, op in ops.items():
            _check_qubit(qubit, num_qubits)
            op = op.lower()
            if op == "x":
                p.x[qubit] = 1
            elif op == "z":
                p.z[qubit] = 1
            elif op == "y":
                p.x[qubit] = 1
                p.z[qubit] = 1
            else:
                raise ValueError(f"unknown Pauli {op!r}")
        p.sign = sign & 1
        return p

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for q in range(self.n):
            if self.x[q] and self.z[q]:
                parts.append(f"Y{q}")
            elif self.x[q]:
                parts.append(f"X{q}")
            elif self.z[q]:
                parts.append(f"Z{q}")
        body = "*".join(parts) if parts else "I"
        return ("-" if self.sign else "+") + body


class StabilizerState:
    """A stabilizer state on ``num_qubits`` qubits, initially ``|0...0>``."""

    def __init__(self, num_qubits: int, seed: Optional[int] = None) -> None:
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        n = num_qubits
        self.n = n
        self.num_words = _num_words(n)
        self.x = np.zeros((2 * n, self.num_words), dtype=np.uint64)
        self.z = np.zeros((2 * n, self.num_words), dtype=np.uint64)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        rows = np.arange(n, dtype=np.int64)
        words, masks = _bit_positions(rows)
        self.x[rows, words] = masks          # destabilizer X_i
        self.z[n + rows, words] = masks      # stabilizer Z_i
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def graph_state(
        cls,
        graph: nx.Graph,
        order: Optional[Sequence] = None,
        seed: Optional[int] = None,
        zero_nodes: Iterable = (),
    ) -> Tuple["StabilizerState", Dict]:
        """Build the graph state of *graph*; returns (state, node->qubit).

        The whole tableau is written directly (one vectorized pass over a
        packed adjacency matrix) instead of replaying ``n`` H gates and
        ``|E|`` CZ gates: each row holds at most one X bit throughout that
        gate sequence, so no phase ever appears and the final tableau is
        the closed form written here.

        ``zero_nodes`` are prepared in ``|0>`` instead of ``|+>`` (no H
        before the CZ layer) — the initialization the measurement-pattern
        semantics gives input nodes.
        """
        nodes = list(order) if order is not None else sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        state = cls(len(nodes), seed=seed)
        n = state.n
        zeros = {index[v] for v in zero_nodes}
        if not zeros <= set(range(n)):  # pragma: no cover - guarded by index
            raise ValueError("zero_nodes must be graph nodes")

        adj = np.zeros((n, state.num_words), dtype=np.uint64)
        if graph.number_of_edges():
            pairs = np.array(
                [(index[u], index[v]) for u, v in graph.edges()], dtype=np.int64
            )
            a, b = pairs[:, 0], pairs[:, 1]
            wb, mb = _bit_positions(b)
            wa, ma = _bit_positions(a)
            np.bitwise_or.at(adj, (a, wb), mb)
            np.bitwise_or.at(adj, (b, wa), ma)

        state.x[:] = 0
        state.z[:] = 0
        zero_idx = np.array(sorted(zeros), dtype=np.int64)
        plus_idx = np.array(
            [i for i in range(n) if i not in zeros], dtype=np.int64
        )
        if zero_idx.size:
            words, masks = _bit_positions(zero_idx)
            state.x[zero_idx, words] = masks        # destabilizer X_i ...
            state.z[zero_idx] = adj[zero_idx]       # ... times Z on neighbors
            state.z[n + zero_idx, words] = masks    # stabilizer Z_i
        if plus_idx.size:
            words, masks = _bit_positions(plus_idx)
            state.z[plus_idx, words] = masks        # destabilizer Z_i
            state.x[n + plus_idx, words] = masks    # stabilizer X_i prod Z_nbr
            state.z[n + plus_idx] = adj[plus_idx]
        return state, index

    def copy(self) -> "StabilizerState":
        """Independent deep copy with a forked (never shared) RNG."""
        out = object.__new__(StabilizerState)
        out.n = self.n
        out.num_words = self.num_words
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.r = self.r.copy()
        out._destabilizers_valid = self._destabilizers_valid
        # Fork (never share) the generator: a shared generator would let a
        # measurement on the copy silently perturb the original's stream.
        # Spawning goes through the seed sequence, so the parent's own
        # draw stream is untouched either way.
        try:
            out.rng = self.rng.spawn(1)[0]
        except AttributeError:  # pragma: no cover - NumPy < 1.25
            bit_gen = self.rng.bit_generator
            seed_seq = getattr(bit_gen, "seed_seq", None) or bit_gen._seed_seq
            out.rng = np.random.Generator(type(bit_gen)(seed_seq.spawn(1)[0]))
        return out

    # ------------------------------------------------------------------
    # internal row algebra
    # ------------------------------------------------------------------
    def _column(self, mat: np.ndarray, q: int) -> np.ndarray:
        """Bit of qubit *q* in every row of *mat* (as 0/1 uint64)."""
        bits: np.ndarray = (mat[:, q >> 6] >> np.uint64(q & 63)) & _ONE
        return bits

    def _rowsum_rows(self, rows: np.ndarray, pivot: int) -> None:
        """Vectorized ``row := row * pivot`` with AG phase tracking.

        All target rows multiply by the same (unchanged) pivot row, so
        the updates are independent and run as whole-array operations.
        Stabilizer-row products must be Hermitian; destabilizer rows may
        pick up factors of i whose sign bit is irrelevant (same contract
        as the seed engine's ``strict`` flag).
        """
        hx, hz = self.x[rows], self.z[rows]
        ix, iz = self.x[pivot], self.z[pivot]
        phase = 2 * (self.r[rows].astype(np.int64) + int(self.r[pivot]))
        phase += _phase_sum_packed(ix, iz, hx, hz)
        phase = np.mod(phase, 4)
        if np.any(phase[rows >= self.n] & 1):
            raise RuntimeError("non-Hermitian product in stabilizer rowsum")
        self.x[rows] = hx ^ ix
        self.z[rows] = hz ^ iz
        self.r[rows] = ((phase >> 1) & 1).astype(np.uint8)

    def _anticommuting_rows(self, px: np.ndarray, pz: np.ndarray) -> np.ndarray:
        """Boolean mask over all 2n rows: symplectic product with P is odd."""
        sym = _bitwise_count(self.x & pz).sum(axis=1, dtype=np.int64)
        sym += _bitwise_count(self.z & px).sum(axis=1, dtype=np.int64)
        anti: np.ndarray = (sym & 1).astype(bool)
        return anti

    def _accumulate_stabilizers(
        self, anti_destab: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Product of stabilizer rows whose destabilizer partners are in
        *anti_destab* (ascending), with sign tracking.

        Step ``j`` of the ordered product multiplies row ``j`` onto the
        XOR of rows ``0..j-1``, so one exclusive prefix XOR gives every
        step's accumulator and one :func:`_phase_sum_packed` call over
        the stack gives every step's ``g``.  Each step's phase
        ``2 (acc_r + r_j) + g_j`` must be even (Hermitian), which makes
        the final sign ``(sum r + sum g / 2) mod 2``.
        """
        rows = self.n + np.flatnonzero(anti_destab)
        if not rows.size:
            zeros = np.zeros(self.num_words, dtype=np.uint64)
            return zeros, zeros.copy(), 0
        xs, zs = self.x[rows], self.z[rows]
        prefix_x = np.zeros_like(xs)
        prefix_z = np.zeros_like(zs)
        np.bitwise_xor.accumulate(xs[:-1], axis=0, out=prefix_x[1:])
        np.bitwise_xor.accumulate(zs[:-1], axis=0, out=prefix_z[1:])
        g = _phase_sum_packed(xs, zs, prefix_x, prefix_z)
        if np.any(g & 1):
            raise RuntimeError("non-Hermitian product in stabilizer rowsum")
        sign = int(self.r[rows].sum(dtype=np.int64) + (g >> 1).sum()) & 1
        return prefix_x[-1] ^ xs[-1], prefix_z[-1] ^ zs[-1], sign

    def _deterministic_outcome(
        self, px: np.ndarray, pz: np.ndarray, anti_destab: np.ndarray, sign: int
    ) -> int:
        """Outcome of a commuting (deterministic) Pauli measurement.

        Accumulates the product of stabilizers whose destabilizer
        partners anticommute with the measured Pauli; that product must
        reproduce the Pauli itself or the tableau is corrupt.
        """
        accx, accz, accr = self._accumulate_stabilizers(anti_destab)
        if not (np.array_equal(accx, px) and np.array_equal(accz, pz)):
            raise RuntimeError(
                "deterministic measurement does not reproduce the Pauli; "
                "tableau is corrupt"
            )
        return (accr + sign) % 2

    # ------------------------------------------------------------------
    # Clifford gates
    # ------------------------------------------------------------------
    def h(self, q: int) -> None:
        """Hadamard on qubit *q* (swaps the X and Z columns)."""
        w, mask = (q >> 6), _ONE << np.uint64(q & 63)
        xw, zw = self.x[:, w], self.z[:, w]
        self.r ^= (((xw & zw) & mask) != 0).astype(np.uint8)
        diff = (xw ^ zw) & mask
        self.x[:, w] ^= diff
        self.z[:, w] ^= diff

    def s(self, q: int) -> None:
        """Phase gate S on qubit *q*."""
        w, mask = (q >> 6), _ONE << np.uint64(q & 63)
        xw, zw = self.x[:, w], self.z[:, w]
        self.r ^= (((xw & zw) & mask) != 0).astype(np.uint8)
        self.z[:, w] ^= xw & mask

    def sdg(self, q: int) -> None:
        """Inverse phase gate S-dagger on qubit *q*."""
        w, mask = (q >> 6), _ONE << np.uint64(q & 63)
        xw, zw = self.x[:, w], self.z[:, w]
        self.r ^= (((xw & ~zw) & mask) != 0).astype(np.uint8)
        self.z[:, w] ^= xw & mask

    def x_gate(self, q: int) -> None:
        """Pauli X on qubit *q* (sign flip on rows with a Z there)."""
        self.r ^= self._column(self.z, q).astype(np.uint8)

    def y_gate(self, q: int) -> None:
        """Pauli Y on qubit *q*."""
        self.r ^= (self._column(self.x, q) ^ self._column(self.z, q)).astype(
            np.uint8
        )

    def z_gate(self, q: int) -> None:
        """Pauli Z on qubit *q* (sign flip on rows with an X there)."""
        self.r ^= self._column(self.x, q).astype(np.uint8)

    def cnot(self, control: int, target: int) -> None:
        """CNOT with the given control and target qubits."""
        if control == target:
            raise ValueError("cnot needs distinct qubits")
        xc = self._column(self.x, control)
        zc = self._column(self.z, control)
        xt = self._column(self.x, target)
        zt = self._column(self.z, target)
        self.r ^= (xc & zt & (xt ^ zc ^ _ONE)).astype(np.uint8)
        self.x[:, target >> 6] ^= xc << np.uint64(target & 63)
        self.z[:, control >> 6] ^= zt << np.uint64(control & 63)

    def cz(self, a: int, b: int) -> None:
        """Direct column update (the seed engine lowered CZ to H-CNOT-H)."""
        if a == b:
            raise ValueError("cz needs distinct qubits")
        xa = self._column(self.x, a)
        za = self._column(self.z, a)
        xb = self._column(self.x, b)
        zb = self._column(self.z, b)
        self.r ^= (xa & xb & (za ^ zb)).astype(np.uint8)
        self.z[:, a >> 6] ^= xb << np.uint64(a & 63)
        self.z[:, b >> 6] ^= xa << np.uint64(b & 63)

    def swap(self, a: int, b: int) -> None:
        """Exchange qubits *a* and *b* (bit swap in every row)."""
        if a == b:
            return
        for mat in (self.x, self.z):
            bit_a = (mat[:, a >> 6] >> np.uint64(a & 63)) & _ONE
            bit_b = (mat[:, b >> 6] >> np.uint64(b & 63)) & _ONE
            diff = bit_a ^ bit_b
            mat[:, a >> 6] ^= diff << np.uint64(a & 63)
            mat[:, b >> 6] ^= diff << np.uint64(b & 63)

    # ------------------------------------------------------------------
    # batched circuit application
    # ------------------------------------------------------------------
    def apply_gate(self, gate: "Gate") -> None:
        """Apply one circuit gate (duck-typed: ``name``/``qubits``/``params``).

        Supports the Clifford gate set plus ``rz``/``p`` at Clifford
        angles (multiples of pi/2, which only differ from I/S/Z/Sdg by a
        global phase); raises ``ValueError`` for anything non-Clifford.
        """
        _dispatch_gate(self, gate)

    def apply_circuit(self, circuit: "Circuit") -> "StabilizerState":
        """Apply every gate of a (Clifford) circuit; returns ``self``."""
        for gate in circuit:
            _dispatch_gate(self, gate)
        return self

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def _require_destabilizers(self, operation: str) -> None:
        """Refuse outcome computation on a stale symplectic pair.

        :meth:`discard` rebuilds only the stabilizer half of the tableau
        and zeroes the destabilizers; a measurement would then rowsum
        over those zeroed rows and return a silently wrong (always
        identity-product) outcome instead of failing loudly.
        """
        if not self._destabilizers_valid:
            raise RuntimeError(
                f"{operation} on a state with stale destabilizers (the "
                "state came from discard()); re-derive it from a full "
                "tableau instead"
            )

    def measure_z(self, q: int, force: Optional[int] = None) -> int:
        """Z measurement of qubit *q*; returns ``m`` for outcome ``(-1)^m``."""
        return self.measure_single(q, "z", force=force)

    def measure_single(
        self, q: int, basis: str, sign: int = 0, force: Optional[int] = None
    ) -> int:
        """Measure ``(-1)^sign`` times X, Y or Z on qubit *q*.

        Same outcomes, rng draws and tableau updates as
        :meth:`measure_pauli` on the one-qubit Pauli, but the
        anticommuting rows are read off one bit column (the z column for
        X, the x column for Z, their XOR for Y) instead of popcounting
        every row against an n-qubit operator.
        """
        self._require_destabilizers("measure_single")
        _check_qubit(q, self.n)
        op = basis.lower()
        if op not in ("x", "y", "z"):
            raise ValueError(f"unknown Pauli {basis!r}")
        word, shift = q >> 6, np.uint64(q & 63)
        px = np.zeros(self.num_words, dtype=np.uint64)
        pz = np.zeros(self.num_words, dtype=np.uint64)
        if op == "x":
            px[word] = _ONE << shift
            column = self.z[:, word]
        elif op == "z":
            pz[word] = _ONE << shift
            column = self.x[:, word]
        else:
            px[word] = pz[word] = _ONE << shift
            column = self.x[:, word] ^ self.z[:, word]
        anti = ((column >> shift) & _ONE).astype(bool)
        return self._measure(px, pz, sign, anti, force)

    def measure_pauli(self, pauli: PauliString, force: Optional[int] = None) -> int:
        """Measure a Pauli product; returns outcome ``m`` for ``(-1)^m``.

        ``force`` postselects an outcome for the random case (raises if
        the forced outcome has zero probability in the deterministic
        case).  Raises on a state whose destabilizers were invalidated
        by :meth:`discard`: both the random-case rowsum and the
        deterministic accumulation walk destabilizer rows, and zeroed
        rows would yield silently wrong outcomes.
        """
        self._require_destabilizers("measure_pauli")
        px = _pack_bits(pauli.x, self.num_words)
        pz = _pack_bits(pauli.z, self.num_words)
        anti = self._anticommuting_rows(px, pz)
        return self._measure(px, pz, pauli.sign, anti, force)

    def _measure(
        self,
        px: np.ndarray,
        pz: np.ndarray,
        sign: int,
        anti: np.ndarray,
        force: Optional[int],
    ) -> int:
        """Collapse onto the packed Pauli ``(-1)^sign (px, pz)``.

        *anti* is the boolean mask of the 2n rows anticommuting with it.
        A random outcome draws one ``rng.integers(2)`` (unless forced)
        and replaces the first anticommuting stabilizer; a deterministic
        one is read off the stabilizer product.
        """
        n = self.n
        anti_stab = np.flatnonzero(anti[n:])
        if anti_stab.size:
            p = n + int(anti_stab[0])
            outcome = (
                int(force) if force is not None else int(self.rng.integers(2))
            )
            rows = np.flatnonzero(anti)
            rows = rows[rows != p]
            if rows.size:
                self._rowsum_rows(rows, p)
            # old stabilizer becomes the destabilizer of the new one
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = px
            self.z[p] = pz
            self.r[p] = (sign + outcome) % 2
            return outcome
        outcome = self._deterministic_outcome(px, pz, anti[:n], sign)
        if force is not None and int(force) != outcome:
            raise RuntimeError(
                f"forced outcome {force} has zero probability (got {outcome})"
            )
        return outcome

    def expectation(self, pauli: PauliString) -> Optional[int]:
        """Outcome of measuring *pauli* if deterministic, else ``None``.

        Read-only: a deterministic CHP measurement never updates the
        tableau, and the random case returns before touching it.
        """
        self._require_destabilizers("expectation")
        px = _pack_bits(pauli.x, self.num_words)
        pz = _pack_bits(pauli.z, self.num_words)
        anti = self._anticommuting_rows(px, pz)
        if anti[self.n:].any():
            return None
        return self._deterministic_outcome(px, pz, anti[: self.n], pauli.sign)

    # ------------------------------------------------------------------
    # group inspection
    # ------------------------------------------------------------------
    def stabilizer_rows(self) -> List[Tuple[np.ndarray, np.ndarray, int]]:
        """The ``n`` stabilizer generators as unpacked ``(x, z, sign)``
        rows (0/1 vectors of length ``n``; sign ``0`` = +1, ``1`` = -1)."""
        return [
            (
                _unpack_bits(self.x[i], self.n),
                _unpack_bits(self.z[i], self.n),
                int(self.r[i]),
            )
            for i in range(self.n, 2 * self.n)
        ]

    def canonical_stabilizers(self) -> List[Tuple[Tuple[int, ...], int]]:
        """Canonical (RREF) generating set as hashable rows.

        Each row is ``((x|z) bits, sign)``; two states are equal iff their
        canonical sets are equal.
        """
        rows = [
            (np.concatenate([x, z]), r) for (x, z, r) in self.stabilizer_rows()
        ]
        return _canonicalize(rows, self.n)

    def equals(self, other: "StabilizerState") -> bool:
        """State equality via canonical stabilizer generating sets."""
        if self.n != other.n:
            return False
        return self.canonical_stabilizers() == other.canonical_stabilizers()

    def discard(self, qubits: Iterable[int]) -> "StabilizerState":
        """Project out *qubits* that must be unentangled with the rest.

        Returns a new state on the remaining qubits.  Raises if the
        stabilizer group restricted to the kept qubits has fewer than
        ``n - len(qubits)`` generators, i.e. the discarded qubits are
        still entangled with the rest.
        """
        drop = sorted(set(qubits))
        keep = [q for q in range(self.n) if q not in drop]
        rows = [
            (np.concatenate([x, z]), r) for (x, z, r) in self.stabilizer_rows()
        ]
        # eliminate support on dropped qubits: pivot those columns first
        priority_cols = []
        for q in drop:
            priority_cols.append(q)          # x column
            priority_cols.append(self.n + q)  # z column
        reduced = _eliminate(rows, priority_cols, self.n)
        survivors = [
            (vec, r)
            for vec, r in reduced
            if not any(vec[c] for c in priority_cols)
        ]
        if len(survivors) < len(keep):
            raise ValueError(
                "discarded qubits are still entangled with the rest"
            )
        out = StabilizerState(len(keep))
        keep_arr = np.array(keep, dtype=np.int64)
        for i, (vec, r) in enumerate(survivors[: len(keep)]):
            out.x[len(keep) + i] = _pack_bits(vec[keep_arr], out.num_words)
            out.z[len(keep) + i] = _pack_bits(
                vec[self.n + keep_arr], out.num_words
            )
            out.r[len(keep) + i] = r
        # destabilizers of `out` are now stale; rebuild a consistent pair
        # set by completing the symplectic basis is unnecessary for the
        # comparisons we support, so mark them unusable instead.
        out._destabilizers_valid = False
        return out

    _destabilizers_valid = True


#: Single-qubit circuit-gate name -> tableau method sequence.
_SINGLE_QUBIT_GATES: Dict[str, Tuple[str, ...]] = {
    "i": (),
    "x": ("x_gate",),
    "y": ("y_gate",),
    "z": ("z_gate",),
    "h": ("h",),
    "s": ("s",),
    "sdg": ("sdg",),
    "sx": ("h", "s", "h"),  # HSH = sqrt(X) exactly
}


def _dispatch_gate(state: "StabilizerState", gate: "Gate") -> None:
    """Circuit-gate -> tableau-method dispatch, so the gate vocabulary
    and the rz/p quarter-turn lowering live exactly once."""
    name = gate.name
    qubits = gate.qubits
    if name in _SINGLE_QUBIT_GATES:
        for method in _SINGLE_QUBIT_GATES[name]:
            getattr(state, method)(qubits[0])
    elif name == "cx":
        state.cnot(qubits[0], qubits[1])
    elif name == "cz":
        state.cz(qubits[0], qubits[1])
    elif name == "swap":
        state.swap(qubits[0], qubits[1])
    elif name in ("rz", "p"):
        alpha = gate.params[0]
        if not is_clifford_angle(alpha):
            raise ValueError(
                f"gate {name}({alpha}) is not Clifford; "
                "use the statevector simulator"
            )
        quarter = int(round(normalize_angle(alpha) / (np.pi / 2.0))) % 4
        for method in ((), ("s",), ("z_gate",), ("sdg",))[quarter]:
            getattr(state, method)(qubits[0])
    else:
        raise ValueError(
            f"gate {name!r} is not Clifford; use the statevector simulator"
        )


def _gate_is_clifford(gate: "Gate") -> bool:
    """One gate of the vocabulary :meth:`StabilizerState.apply_gate`
    accepts (the Clifford set, plus ``rz``/``p`` at Clifford angles)."""
    if gate.name in _SINGLE_QUBIT_GATES or gate.name in ("cx", "cz", "swap"):
        return True
    return gate.name in ("rz", "p") and is_clifford_angle(gate.params[0])


def circuit_is_clifford(circuit: "Circuit") -> bool:
    """True when every gate of *circuit* is stabilizer-simulable."""
    return all(_gate_is_clifford(gate) for gate in circuit)


def circuit_stabilizer_rows(
    circuit: "Circuit",
) -> List[Tuple[np.ndarray, np.ndarray, int]]:
    """The output stabilizer generators of Clifford *circuit* run on
    ``|0...0>``, as :meth:`StabilizerState.stabilizer_rows`."""
    state = StabilizerState(circuit.num_qubits).apply_circuit(circuit)
    return state.stabilizer_rows()


def non_clifford_gate_counts(circuit: "Circuit") -> Dict[str, int]:
    """Gate name -> count of the gates the stabilizer engine rejects.

    ``rz``/``p`` at Clifford angles (quarter turns) are exempt, exactly
    as in :func:`circuit_is_clifford`; an empty dict means the circuit
    is Clifford.  Used to name the offenders in rejection messages.
    """
    counts: Dict[str, int] = {}
    for gate in circuit:
        if not _gate_is_clifford(gate):
            counts[gate.name] = counts.get(gate.name, 0) + 1
    return counts


def _g_sum(
    ix: np.ndarray, iz: np.ndarray, hx: np.ndarray, hz: np.ndarray
) -> int:
    """Sum of the AG phase function over unpacked 0/1 rows (i times h).

    Packs and delegates so the plus/minus mask formula exists exactly
    once (:func:`_phase_sum_packed`).
    """
    num_words = _num_words(len(ix))
    return int(
        _phase_sum_packed(
            _pack_bits(ix, num_words),
            _pack_bits(iz, num_words),
            _pack_bits(hx, num_words),
            _pack_bits(hz, num_words),
        )
    )


def _phase_product(
    a: Tuple[np.ndarray, int], b: Tuple[np.ndarray, int], n: int
) -> Tuple[np.ndarray, int]:
    """Multiply two (x|z, sign) rows with correct sign tracking."""
    phase = 2 * (a[1] + b[1])
    phase += _g_sum(b[0][:n], b[0][n:], a[0][:n], a[0][n:])
    phase %= 4
    if phase not in (0, 2):  # pragma: no cover
        raise RuntimeError("non-Hermitian product")
    return a[0] ^ b[0], phase // 2


def _eliminate(
    rows: List[Tuple[np.ndarray, int]], cols: List[int], n: int
) -> List[Tuple[np.ndarray, int]]:
    """Gaussian elimination over GF(2), pivoting *cols* first."""
    rows = [(vec.copy(), r) for vec, r in rows]
    width = 2 * n
    all_cols = cols + [c for c in range(width) if c not in cols]
    pivot_row = 0
    for col in all_cols:
        pivot = next(
            (i for i in range(pivot_row, len(rows)) if rows[i][0][col]), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][0][col]:
                rows[i] = _phase_product(rows[i], rows[pivot_row], n)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows


def _canonicalize(
    rows: List[Tuple[np.ndarray, int]], n: int
) -> List[Tuple[Tuple[int, ...], int]]:
    reduced = _eliminate(rows, [], n)
    out = [
        (tuple(int(b) for b in vec), int(r))
        for vec, r in reduced
        if vec.any()
    ]
    return sorted(out)


def graph_state_stabilizers(
    graph: nx.Graph, order: Optional[Sequence] = None
) -> List[Tuple[Tuple[int, ...], int]]:
    """Canonical stabilizer set of a graph state (for comparisons)."""
    state, _ = StabilizerState.graph_state(graph, order=order)
    return state.canonical_stabilizers()
