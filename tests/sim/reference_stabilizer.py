"""The seed CHP stabilizer engine, verbatim — equivalence oracle.

This is the pre-optimization ``repro.sim.stabilizer`` kept word for word
(same pattern as the reference implementations in
``tests/core/test_mapping_equivalence.py``).  The bit-packed production
engine must reproduce its tableaux and — because both draw one
``rng.integers(2)`` per random measurement — its measurement outcomes
bit-for-bit at a fixed seed (``tests/sim/test_stabilizer_equivalence.py``).

Representation follows arXiv:quant-ph/0406196: ``2n`` rows of binary
``x``/``z`` vectors plus a sign bit; rows ``0..n-1`` are destabilizers and
rows ``n..2n-1`` stabilizers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np


class PauliString:
    """A signed Pauli product on *n* qubits, e.g. ``+X0*Z3``."""

    def __init__(self, num_qubits: int):
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


def _g(x1: int, z1: int, x2: int, z2: int) -> int:
    """AG phase function: exponent of i when multiplying two Paulis."""
    if x1 == 0 and z1 == 0:
        return 0
    if x1 == 1 and z1 == 1:  # Y
        return z2 - x2
    if x1 == 1 and z1 == 0:  # X
        return z2 * (2 * x2 - 1)
    return x2 * (1 - 2 * z2)  # Z


class StabilizerState:
    """A stabilizer state on ``num_qubits`` qubits, initially ``|0...0>``."""

    def __init__(self, num_qubits: int, seed: Optional[int] = None):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        n = num_qubits
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1          # destabilizer X_i
            self.z[n + i, i] = 1      # stabilizer Z_i
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def graph_state(
        cls, graph: nx.Graph, order: Optional[Sequence] = None, seed: Optional[int] = None
    ) -> Tuple["StabilizerState", Dict]:
        """Build the graph state of *graph*; returns (state, node->qubit)."""
        nodes = list(order) if order is not None else sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        state = cls(len(nodes), seed=seed)
        for i in range(len(nodes)):
            state.h(i)
        for u, v in graph.edges():
            state.cz(index[u], index[v])
        return state, index

    def copy(self) -> "StabilizerState":
        out = StabilizerState(self.n)
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.r = self.r.copy()
        out.rng = self.rng
        return out

    # ------------------------------------------------------------------
    # internal row algebra
    # ------------------------------------------------------------------
    def _rowsum_into(
        self,
        hx: np.ndarray,
        hz: np.ndarray,
        hr: int,
        ix: np.ndarray,
        iz: np.ndarray,
        ir: int,
        strict: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Return row h := h * i with AG phase tracking (mod 4 exponent).

        Stabilizer-row products are always Hermitian (phase in {+1, -1});
        destabilizer rows may pick up factors of i, whose sign bit is
        irrelevant, so callers pass ``strict=False`` for them.
        """
        phase = 2 * (hr + ir)
        for q in range(self.n):
            phase += _g(int(ix[q]), int(iz[q]), int(hx[q]), int(hz[q]))
        phase %= 4
        if strict and phase not in (0, 2):
            raise RuntimeError("non-Hermitian product in stabilizer rowsum")
        return hx ^ ix, hz ^ iz, (phase // 2) % 2

    def _rowsum(self, h: int, i: int) -> None:
        strict = h >= self.n
        self.x[h], self.z[h], self.r[h] = self._rowsum_into(
            self.x[h],
            self.z[h],
            int(self.r[h]),
            self.x[i],
            self.z[i],
            int(self.r[i]),
            strict=strict,
        )

    # ------------------------------------------------------------------
    # Clifford gates
    # ------------------------------------------------------------------
    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def x_gate(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def z_gate(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def cnot(self, control: int, target: int) -> None:
        self.r ^= (
            self.x[:, control]
            & self.z[:, target]
            & (self.x[:, target] ^ self.z[:, control] ^ 1)
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cnot(a, b)
        self.h(b)

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def measure_z(self, q: int, force: Optional[int] = None) -> int:
        pauli = PauliString.from_ops(self.n, {q: "z"})
        return self.measure_pauli(pauli, force=force)

    def _anticommutes(self, row: int, pauli: PauliString) -> bool:
        sym = np.sum(self.x[row] & pauli.z) + np.sum(self.z[row] & pauli.x)
        return bool(sym % 2)

    def measure_pauli(self, pauli: PauliString, force: Optional[int] = None) -> int:
        """Measure a Pauli product; returns outcome ``m`` for ``(-1)^m``.

        ``force`` postselects an outcome for the random case (raises if
        the forced outcome has zero probability in the deterministic
        case).
        """
        n = self.n
        anti_stab = [
            i for i in range(n, 2 * n) if self._anticommutes(i, pauli)
        ]
        if anti_stab:
            p = anti_stab[0]
            outcome = (
                int(force) if force is not None else int(self.rng.integers(2))
            )
            for i in range(2 * n):
                if i != p and self._anticommutes(i, pauli):
                    self._rowsum(i, p)
            # old stabilizer becomes the destabilizer of the new one
            self.x[p - n] = self.x[p].copy()
            self.z[p - n] = self.z[p].copy()
            self.r[p - n] = self.r[p]
            self.x[p] = pauli.x.copy()
            self.z[p] = pauli.z.copy()
            self.r[p] = (pauli.sign + outcome) % 2
            return outcome
        # deterministic: accumulate product of stabilizers whose
        # destabilizer partners anticommute with the measured Pauli
        accx = np.zeros(n, dtype=np.uint8)
        accz = np.zeros(n, dtype=np.uint8)
        accr = 0
        for i in range(n):
            if self._anticommutes(i, pauli):
                accx, accz, accr = self._rowsum_into(
                    accx, accz, accr, self.x[n + i], self.z[n + i], int(self.r[n + i])
                )
        if not (np.array_equal(accx, pauli.x) and np.array_equal(accz, pauli.z)):
            raise RuntimeError(
                "deterministic measurement does not reproduce the Pauli; "
                "tableau is corrupt"
            )
        outcome = (accr + pauli.sign) % 2
        if force is not None and int(force) != outcome:
            raise RuntimeError(
                f"forced outcome {force} has zero probability (got {outcome})"
            )
        return outcome

    # ------------------------------------------------------------------
    # group inspection
    # ------------------------------------------------------------------
    def stabilizer_rows(self) -> List[Tuple[np.ndarray, np.ndarray, int]]:
        return [
            (self.x[i].copy(), self.z[i].copy(), int(self.r[i]))
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
        col_map = {q: i for i, q in enumerate(keep)}
        for i, (vec, r) in enumerate(survivors[: len(keep)]):
            xs = np.zeros(len(keep), dtype=np.uint8)
            zs = np.zeros(len(keep), dtype=np.uint8)
            for q in keep:
                xs[col_map[q]] = vec[q]
                zs[col_map[q]] = vec[self.n + q]
            out.x[len(keep) + i] = xs
            out.z[len(keep) + i] = zs
            out.r[len(keep) + i] = r
        # destabilizers of `out` are now stale; rebuild a consistent pair
        # set by completing the symplectic basis is unnecessary for the
        # comparisons we support, so mark them unusable instead.
        out._destabilizers_valid = False
        return out

    _destabilizers_valid = True


def _phase_product(
    a: Tuple[np.ndarray, int], b: Tuple[np.ndarray, int], n: int
) -> Tuple[np.ndarray, int]:
    """Multiply two (x|z, sign) rows with correct sign tracking."""
    ax, az = a[0][:n], a[0][n:]
    bx, bz = b[0][:n], b[0][n:]
    phase = 2 * (a[1] + b[1])
    for q in range(n):
        phase += _g(int(bx[q]), int(bz[q]), int(ax[q]), int(az[q]))
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


def graph_state_stabilizers(graph: nx.Graph, order: Optional[Sequence] = None):
    """Canonical stabilizer set of a graph state (for comparisons)."""
    state, _ = StabilizerState.graph_state(graph, order=order)
    return state.canonical_stabilizers()
