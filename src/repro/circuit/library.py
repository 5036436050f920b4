"""Gate-set lowering passes.

Two target gate sets matter in this project:

* the *basic* set ``{h, rz, rx, cz}`` — convenient for simulation and for
  the baseline cluster-state interpreter;
* the *MBQC-native* set ``{J(alpha), CZ}`` — the universal set the paper's
  translation to measurement patterns is defined on, where
  ``J(alpha) = H @ Rz(alpha)``.

Lowering runs on plain ``(name, qubits, angle)`` op tuples: one rule
table expands every gate to the basic set, one peephole fixpoint
simplifies, and a second table turns basic gates into ``J``/``CZ``.
:func:`jcz_ops` hands the ops straight to the pattern translation;
:func:`to_basic`, :func:`simplify_basic` and :func:`to_jcz` wrap the same
passes for callers that want a :class:`Circuit`.  Both passes are purely
structural; a statevector equivalence test pins the conventions (see
``tests/circuit/test_library.py``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GATE_SIGNATURES, Gate
from repro.utils.angles import ANGLE_ATOL, normalize_angle

#: One lowered operation: gate name, qubits and angle (``0.0`` for a gate
#: without a parameter; no gate has more than one).
Op = Tuple[str, Tuple[int, ...], float]

_PI = math.pi

#: A rule step's angle: ``None`` passes the gate's own angle through, a
#: float is a constant, a callable derives it from the gate's angle.
_Angle = Union[None, float, Callable[[float], float]]
_Step = Tuple[str, Tuple[int, ...], _Angle]

#: Gate name -> program-ordered steps ``(name, qubit slots, angle)``.  A
#: step may name another non-basic gate; :func:`_expand` flattens the
#: table to basic gates once, at import.
_RULES: Dict[str, Tuple[_Step, ...]] = {
    "h": (("h", (0,), 0.0),),
    "rz": (("rz", (0,), None),),
    "rx": (("rx", (0,), None),),
    "cz": (("cz", (0, 1), 0.0),),
    "i": (),
    "x": (("rx", (0,), _PI),),
    # Y = i·X·Z: apply Z first, then X (global phase dropped).
    "y": (("rz", (0,), _PI), ("rx", (0,), _PI)),
    "z": (("rz", (0,), _PI),),
    "s": (("rz", (0,), _PI / 2),),
    "sdg": (("rz", (0,), -_PI / 2),),
    "t": (("rz", (0,), _PI / 4),),
    "tdg": (("rz", (0,), -_PI / 4),),
    "sx": (("rx", (0,), _PI / 2),),
    "p": (("rz", (0,), None),),
    # Ry(t) = Rz(pi/2) @ Rx(t) @ Rz(-pi/2)   (rightmost applied first)
    "ry": (("rz", (0,), -_PI / 2), ("rx", (0,), None), ("rz", (0,), _PI / 2)),
    # J(alpha) = H @ Rz(alpha): apply Rz first, then H.
    "j": (("rz", (0,), None), ("h", (0,), 0.0)),
    "cx": (("h", (1,), 0.0), ("cz", (0, 1), 0.0), ("h", (1,), 0.0)),
    "cp": (
        ("p", (0,), lambda theta: theta / 2),
        ("cx", (0, 1), 0.0),
        ("p", (1,), lambda theta: -theta / 2),
        ("cx", (0, 1), 0.0),
        ("p", (1,), lambda theta: theta / 2),
    ),
    "swap": (("cx", (0, 1), 0.0), ("cx", (1, 0), 0.0), ("cx", (0, 1), 0.0)),
    "ccx": (
        ("h", (2,), 0.0),
        ("cx", (1, 2), 0.0),
        ("tdg", (2,), 0.0),
        ("cx", (0, 2), 0.0),
        ("t", (2,), 0.0),
        ("cx", (1, 2), 0.0),
        ("tdg", (2,), 0.0),
        ("cx", (0, 2), 0.0),
        ("t", (1,), 0.0),
        ("t", (2,), 0.0),
        ("h", (2,), 0.0),
        ("cx", (0, 1), 0.0),
        ("t", (0,), 0.0),
        ("tdg", (1,), 0.0),
        ("cx", (0, 1), 0.0),
    ),
}

_BASIC_SET = frozenset({"h", "rz", "rx", "cz"})


def _expand(name: str) -> Tuple[_Step, ...]:
    """Flatten *name*'s rule to basic-set steps over its qubit slots.

    A basic step's angle is a constant or passes its parent step's angle
    through, so composing two steps never nests callables.
    """
    steps: List[_Step] = []
    for step_name, slots, angle in _RULES[name]:
        if step_name in _BASIC_SET:
            steps.append((step_name, slots, angle))
            continue
        for sub_name, sub_slots, sub_angle in _expand(step_name):
            steps.append((
                sub_name,
                tuple(slots[s] for s in sub_slots),
                angle if sub_angle is None else sub_angle,
            ))
    return tuple(steps)


def _own_slots(slots: Tuple[int, ...], arity: int) -> Optional[Tuple[int, ...]]:
    """``None`` when a step acts on the gate's own qubit tuple as is."""
    return None if slots == tuple(range(arity)) else slots


#: gate name -> its basic-set steps; ``None`` slots reuse the gate's qubits
_BASIC_STEPS = {
    name: tuple(
        (step, _own_slots(slots, arity), angle)
        for step, slots, angle in _expand(name)
    )
    for name, (arity, _) in GATE_SIGNATURES.items()
}

#: basic gate -> its ``J`` angles in program order (``None``: the
#: normalized rotation angle).  Rz(t) = J(0) @ J(t) and Rx(t) = J(t) @ J(0),
#: rightmost applied first.
_J_ANGLES: Dict[str, Tuple[Optional[float], ...]] = {
    "h": (0.0,),
    "rz": (None, 0.0),
    "rx": (0.0, None),
}

_MERGING: FrozenSet[str] = frozenset({"rz", "rx"})


def basic_ops(circuit: Circuit) -> List[Op]:
    """*circuit* lowered to the ``{h, rz, rx, cz}`` set, as op tuples."""
    ops: List[Op] = []
    append = ops.append
    steps_of = _BASIC_STEPS
    for gate in circuit:
        qubits = gate.qubits
        params = gate.params
        theta = params[0] if params else 0.0
        for name, slots, angle in steps_of[gate.name]:
            append((
                name,
                qubits if slots is None else tuple([qubits[s] for s in slots]),
                theta if angle is None
                else angle if isinstance(angle, float)
                else angle(theta),
            ))
    return ops


def _is_zero_angle(theta: float) -> bool:
    return theta == 0.0 or abs(normalize_angle(theta)) < ANGLE_ATOL


def _peephole(ops: List[Op], merging: FrozenSet[str], involution: str) -> List[Op]:
    """Single-wire peephole rules on *ops*, applied to fixpoint.

    * a zero-angle gate named in *merging* is dropped;
    * adjacent same-name gates in *merging* on one wire merge, and the
      sum replaces the second one (dropped if it is zero);
    * adjacent zero-angle *involution* gates on one wire cancel.

    "Adjacent" means no intervening gate touches the wire.  A pass does
    not restore a wire's previous gate after a merge or cancellation, so
    the rotations of ``rz h h rz`` merge only on the next pass; removed
    gates stay as tombstones until the pass ends.
    """
    changed = True
    while changed:
        changed = False
        out: List[Optional[Op]] = []
        last: Dict[int, int] = {}
        for op in ops:
            name, qubits, angle = op
            if len(qubits) != 1:
                index = len(out)
                out.append(op)
                for q in qubits:
                    last[q] = index
                continue
            q = qubits[0]
            if name in merging and _is_zero_angle(angle):
                changed = True
                continue
            index_prev = last.get(q)
            if index_prev is not None:
                prev = out[index_prev]
                assert prev is not None
                if len(prev[1]) == 1 and prev[0] == name:
                    if name in merging:
                        out[index_prev] = None
                        del last[q]
                        changed = True
                        merged = normalize_angle(prev[2] + angle)
                        if not _is_zero_angle(merged):
                            last[q] = len(out)
                            out.append((name, qubits, merged))
                        continue
                    if (
                        name == involution
                        and _is_zero_angle(angle)
                        and _is_zero_angle(prev[2])
                    ):
                        out[index_prev] = None
                        del last[q]
                        changed = True
                        continue
            last[q] = len(out)
            out.append(op)
        ops = [op for op in out if op is not None]
    return ops


def jcz_ops(circuit: Circuit, simplify: bool = True) -> List[Op]:
    """*circuit* lowered to the ``{j, cz}`` set, as op tuples.

    With ``simplify=True`` the basic-set ops are peephole simplified
    first, and the only rule applied at the ``{j, cz}`` level is
    ``J(0) J(0) = I`` cancellation.
    """
    ops = basic_ops(circuit)
    if simplify:
        ops = _peephole(ops, _MERGING, "h")
    out: List[Op] = []
    append = out.append
    for op in ops:
        name, qubits, angle = op
        if name == "cz":
            append(op)
            continue
        for j_angle in _J_ANGLES[name]:
            append(("j", qubits, normalize_angle(angle) if j_angle is None else j_angle))
    if simplify:
        out = _peephole(out, frozenset(), "j")
    return out


def _ops_of(circuit: Circuit) -> List[Op]:
    return [
        (gate.name, gate.qubits, gate.params[0] if gate.params else 0.0)
        for gate in circuit
    ]


def _circuit_of(num_qubits: int, ops: List[Op]) -> Circuit:
    return Circuit(num_qubits, [
        Gate(name, qubits, (angle,) if GATE_SIGNATURES[name][1] else ())
        for name, qubits, angle in ops
    ])


def to_basic(circuit: Circuit) -> Circuit:
    """Lower *circuit* to the ``{h, rz, rx, cz}`` gate set."""
    return _circuit_of(circuit.num_qubits, basic_ops(circuit))


def simplify_basic(circuit: Circuit) -> Circuit:
    """Peephole simplification on a basic-set circuit.

    Rules (applied to fixpoint):
    * adjacent ``rz``/``rz`` (or ``rx``/``rx``) on the same wire merge;
    * ``rz(0)`` and ``rx(0)`` are dropped;
    * adjacent ``h h`` on the same wire cancel.

    "Adjacent" means no intervening gate touches the wire.
    """
    return _circuit_of(
        circuit.num_qubits, _peephole(_ops_of(circuit), _MERGING, "h")
    )


def to_jcz(circuit: Circuit, simplify: bool = True) -> Circuit:
    """Lower *circuit* to the MBQC-native ``{j, cz}`` gate set.

    With ``simplify=True`` (default) the basic-set circuit is peephole
    simplified first and trailing/leading trivial ``J(0)`` pairs produced
    by ``h h`` are already gone; the only remaining rule applied at the
    ``{j, cz}`` level is ``J(0) J(0) = I`` cancellation.

    >>> [(g.name, g.qubits, g.params) for g in to_jcz(Circuit(2).cx(0, 1))]
    [('j', (1,), (0.0,)), ('cz', (0, 1), ()), ('j', (1,), (0.0,))]
    """
    return _circuit_of(circuit.num_qubits, jcz_ops(circuit, simplify))
