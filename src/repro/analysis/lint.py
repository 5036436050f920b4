"""Static linting of compiled artifacts: patterns, frame programs, programs.

:class:`PatternLinter` checks the three artifact levels the compiler
emits, without executing anything:

* **measurement patterns** (:class:`repro.mbqc.pattern.MeasurementPattern`)
  — basis coverage, dependency well-formedness (no forward references,
  no cycles, no dangling sources), output hygiene, and — via the flow
  certifier (:mod:`repro.analysis.flow`) — a determinism certificate
  plus an exact diff of the recorded feed-forward sets against the
  flow-induced ones (which is what catches a dropped correction);
* **frame programs** (:class:`repro.sim.frame.FrameProgram`) — step
  coverage and ordering, basis consistency with the source pattern,
  dependency resolution, qubit-index hygiene, detector-parity-check
  coverage of the output generators, and checks that read only
  unmeasured (output) frame rows;
* **compiled programs** (:class:`repro.core.compiler.CompiledProgram`)
  — photon/fusion budget reconciliation against the hardware mapping,
  reusing the first-principles layout checks of
  :func:`repro.core.validate.validate_program`.

Every finding is a :class:`LintIssue` with a stable code (``P``
pattern-structure, ``F`` flow/feed-forward, ``R`` frame program, ``B``
budget/hardware); the mutation harness in :mod:`repro.analysis.mutate`
pins each corruption class to the codes that must flag it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.flow import (
    DeterminismCertificate,
    certify_pattern,
    flow_corrections,
)
from repro.mbqc.pattern import MeasurementPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompiledProgram
    from repro.hardware.coupling import HardwareConfig
    from repro.sim.frame import FrameProgram


@dataclass(frozen=True)
class LintIssue:
    """One static finding.

    Attributes:
        code: stable identifier (``P001``, ``F002``, ``R003``, ...).
        check: kebab-case check name (``forward-reference``, ...).
        severity: ``"error"`` or ``"warning"``.
        where: the node / step / check index the issue localizes to, or
            ``None`` for artifact-global findings.
        message: human-readable description with the offending values.
    """

    code: str
    check: str
    severity: str
    where: Optional[int]
    message: str

    def render(self) -> str:
        loc = "" if self.where is None else f" @ {self.where}"
        return f"{self.code} [{self.check}]{loc}: {self.message}"


@dataclass
class LintReport:
    """All findings for one artifact.

    ``ok`` is true when no *error*-severity issue was found; warnings do
    not fail a lint gate.  ``certificate`` carries the determinism
    certificate when the pattern-level lint ran the flow search.
    """

    artifact: str
    issues: List[LintIssue] = field(default_factory=list)
    certificate: Optional[DeterminismCertificate] = None

    @property
    def ok(self) -> bool:
        return not any(i.severity == "error" for i in self.issues)

    def errors(self) -> List[LintIssue]:
        return [i for i in self.issues if i.severity == "error"]

    def codes(self) -> FrozenSet[str]:
        return frozenset(i.code for i in self.issues)

    def extend(self, other: "LintReport") -> "LintReport":
        """Fold *other*'s issues into this report (for combined gates)."""
        self.issues.extend(other.issues)
        if self.certificate is None:
            self.certificate = other.certificate
        return self

    def summary(self) -> str:
        errors = len(self.errors())
        warnings = len(self.issues) - errors
        status = "clean" if not self.issues else (
            f"{errors} error(s), {warnings} warning(s)"
        )
        cert = ""
        if self.certificate is not None:
            cert = f"; {self.certificate.summary()}"
        return f"{self.artifact}: {status}{cert}"

    def render(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {issue.render()}" for issue in self.issues)
        return "\n".join(lines)


def _issue(
    issues: List[LintIssue],
    code: str,
    check: str,
    where: Optional[int],
    message: str,
    severity: str = "error",
) -> None:
    issues.append(LintIssue(code, check, severity, where, message))


class PatternLinter:
    """Static checker for the compiler's artifact levels.

    Args:
        certify: run the flow/gflow determinism search during pattern
            lints (on by default; the search is milliseconds even on
            thousand-node patterns).
        max_issues: stop reporting after this many findings per artifact
            (corrupt artifacts can cascade).
    """

    def __init__(self, certify: bool = True, max_issues: int = 200) -> None:
        self.certify = certify
        self.max_issues = max_issues

    # ------------------------------------------------------------------
    # measurement patterns
    # ------------------------------------------------------------------
    def lint_pattern(
        self, pattern: MeasurementPattern, name: str = "pattern"
    ) -> LintReport:
        """Lint *pattern*: structural checks plus flow certification."""
        issues: List[LintIssue] = []
        nodes = set(pattern.graph.nodes())
        outputs = set(pattern.outputs)
        measured = nodes - outputs

        # --- node-set hygiene -----------------------------------------
        for v in pattern.inputs:
            if v not in nodes:
                _issue(issues, "P010", "input-invalid", v,
                       "input node is not a vertex of the graph")
        if len(set(pattern.inputs)) != len(pattern.inputs):
            _issue(issues, "P010", "input-invalid", None,
                   "duplicate input node")
        for v in pattern.outputs:
            if v not in nodes:
                _issue(issues, "P010", "output-invalid", v,
                       "output node is not a vertex of the graph")
        for u, v in pattern.graph.edges():
            if u == v:
                _issue(issues, "P011", "self-loop", u,
                       "entanglement edge is a self-loop (CZ with itself)")

        # --- basis coverage -------------------------------------------
        angled = set(pattern.angles)
        for v in sorted(measured - angled):
            _issue(issues, "P001", "missing-basis", v,
                   "measured node has no measurement angle")
        for v in sorted(angled & outputs):
            _issue(issues, "P002", "output-measured", v,
                   "output node carries a measurement angle")
        for v in sorted(angled - nodes):
            _issue(issues, "P003", "unknown-node", v,
                   "angle recorded for a node that is not in the graph")
        for v, alpha in pattern.angles.items():
            if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
                _issue(issues, "P008", "angle-invalid", v,
                       f"measurement angle {alpha!r} is not a finite real")

        # --- dependency structure -------------------------------------
        dep_maps: Sequence[Tuple[str, Mapping[int, FrozenSet[int]]]] = (
            ("X", pattern.x_deps),
            ("Z", pattern.z_deps),
            ("output X", pattern.output_x),
            ("output Z", pattern.output_z),
        )
        for kind, dep_map in dep_maps:
            for node, sources in dep_map.items():
                if node not in nodes:
                    _issue(issues, "P003", "unknown-node", node,
                           f"{kind}-correction target is not in the graph")
                for src in sorted(sources):
                    if src == node:
                        _issue(issues, "P009", "self-dependency", node,
                               f"{kind}-correction depends on its own "
                               "outcome")
                    elif src not in nodes:
                        _issue(issues, "P003", "unknown-node", node,
                               f"{kind}-correction source {src} is not in "
                               "the graph")
                    elif src not in measured:
                        _issue(issues, "P004", "unmeasured-source", node,
                               f"{kind}-correction source {src} is never "
                               "measured (it is an output)")

        # --- sequence / partial order ---------------------------------
        if pattern.sequence:
            seq = list(pattern.sequence)
            if set(seq) != measured or len(seq) != len(measured):
                _issue(issues, "P007", "sequence-mismatch", None,
                       f"sequence enumerates {len(seq)} nodes; the pattern "
                       f"measures {len(measured)}")
            pos = {v: i for i, v in enumerate(seq)}
            for node in seq:
                sources = pattern.x_deps.get(node, frozenset()) | \
                    pattern.z_deps.get(node, frozenset())
                for src in sorted(sources):
                    if src in pos and pos[src] >= pos[node]:
                        _issue(issues, "P005", "forward-reference", node,
                               f"measured at position {pos[node]} but "
                               f"depends on {src} measured at position "
                               f"{pos[src]}")
        cycle = _dependency_cycle(pattern, measured)
        if cycle:
            _issue(issues, "P006", "dependency-cycle", cycle[0],
                   "dependency cycle: " +
                   " -> ".join(str(v) for v in cycle))

        # --- determinism certificate + correction diff ----------------
        certificate: Optional[DeterminismCertificate] = None
        if self.certify and not issues:
            # only certify structurally sound patterns: a flow search on
            # a broken graph would chase ghosts
            certificate = certify_pattern(pattern)
            if not certificate.ok:
                violation = certificate.violation
                assert violation is not None
                _issue(issues, "F001", "no-determinism", violation.node,
                       f"{violation.condition} "
                       f"({len(violation.stalled)} stalled node(s))")
            elif certificate.kind == "flow":
                self._diff_corrections(pattern, certificate, issues)

        return LintReport(
            artifact=name,
            issues=issues[: self.max_issues],
            certificate=certificate,
        )

    def _diff_corrections(
        self,
        pattern: MeasurementPattern,
        certificate: DeterminismCertificate,
        issues: List[LintIssue],
    ) -> None:
        """Diff recorded feed-forward sets against the flow-induced ones.

        Only meaningful under a *causal* flow: the circuit translation
        emits exactly the flow corrections (pinned by
        ``tests/analysis/test_flow_certifier.py``), so any difference
        means a correction was dropped, invented or re-targeted.
        gflow-only patterns can carry legitimately different set-valued
        corrections, so the diff is skipped there.
        """
        assert certificate.successor is not None
        x_map, z_map = flow_corrections(
            pattern.graph, pattern.outputs, certificate.successor
        )
        outputs = set(pattern.outputs)
        for v in sorted(pattern.graph.nodes()):
            if v in outputs:
                rec_x = pattern.output_x.get(v, frozenset())
                rec_z = pattern.output_z.get(v, frozenset())
                code_x = code_z = "F004"
                check = "byproduct-mismatch"
            else:
                rec_x = pattern.x_deps.get(v, frozenset())
                rec_z = pattern.z_deps.get(v, frozenset())
                code_x, code_z = "F002", "F003"
                check = "correction-mismatch"
            if rec_x != x_map[v]:
                _issue(issues, code_x, check, v,
                       f"recorded X sources {sorted(rec_x)} != flow-induced "
                       f"{sorted(x_map[v])}")
            if rec_z != z_map[v]:
                _issue(issues, code_z, check, v,
                       f"recorded Z sources {sorted(rec_z)} != flow-induced "
                       f"{sorted(z_map[v])}")

    # ------------------------------------------------------------------
    # frame programs
    # ------------------------------------------------------------------
    def lint_frame_program(
        self,
        program: "FrameProgram",
        pattern: MeasurementPattern,
        name: str = "frame-program",
    ) -> LintReport:
        """Lint a compiled :class:`repro.sim.frame.FrameProgram` against
        its source *pattern*."""
        from repro.sim.pattern_sim import _pauli_sign_table

        issues: List[LintIssue] = []
        outputs = set(pattern.outputs)
        measured = set(pattern.graph.nodes()) - outputs

        step_nodes = [step.node for step in program.steps]
        if set(step_nodes) != measured or len(step_nodes) != len(measured):
            _issue(issues, "R001", "step-coverage", None,
                   f"{len(step_nodes)} steps cover "
                   f"{len(set(step_nodes))} distinct nodes; the pattern "
                   f"measures {len(measured)}")
        if dict(program.step_of_node) != {
            step.node: k for k, step in enumerate(program.steps)
        }:
            _issue(issues, "R008", "step-index-mismatch", None,
                   "step_of_node disagrees with the step sequence")

        seen_qubits: Set[int] = set()
        for k, step in enumerate(program.steps):
            if not 0 <= step.qubit < program.num_qubits:
                _issue(issues, "R005", "qubit-range", k,
                       f"step measures qubit {step.qubit} outside "
                       f"[0, {program.num_qubits})")
            elif step.qubit in seen_qubits:
                _issue(issues, "R005", "qubit-collision", k,
                       f"qubit {step.qubit} measured by more than one step")
            seen_qubits.add(step.qubit)
            for dep in tuple(step.x_deps) + tuple(step.z_deps):
                if not 0 <= dep < k:
                    _issue(issues, "R002", "forward-reference", k,
                           f"feed-forward source step {dep} is not strictly "
                           f"before step {k}")
            if step.node not in pattern.angles:
                continue  # covered by R001
            basis, _ = _pauli_sign_table(pattern.angles[step.node])
            if step.y_basis != (basis == "y"):
                _issue(issues, "R003", "basis-mismatch", k,
                       f"step measures {'Y' if step.y_basis else 'X'} but "
                       f"pattern angle {pattern.angles[step.node]} "
                       f"measures {basis.upper()}")
            want_x = self._dep_steps(
                pattern.x_deps.get(step.node, frozenset()), program
            )
            want_z = self._dep_steps(
                pattern.z_deps.get(step.node, frozenset()), program
            )
            if want_x is not None and tuple(sorted(step.x_deps)) != want_x:
                _issue(issues, "R004", "dep-mismatch", k,
                       f"step X deps {sorted(step.x_deps)} != pattern's "
                       f"{list(want_x)}")
            if want_z is not None and tuple(sorted(step.z_deps)) != want_z:
                _issue(issues, "R004", "dep-mismatch", k,
                       f"step Z deps {sorted(step.z_deps)} != pattern's "
                       f"{list(want_z)}")

        # detector parity checks must cover every output generator
        if len(program.checks) != len(pattern.outputs):
            _issue(issues, "R006", "check-coverage", None,
                   f"{len(program.checks)} output parity checks for "
                   f"{len(pattern.outputs)} output generators")
        # a measured row is read once, at its own step; the engine
        # does no gauge reseed after it, so a check must not read it
        measured_qubits = {step.qubit for step in program.steps}
        for which, check in enumerate(program.checks):
            for qubit in tuple(check.frame_x) + tuple(check.frame_z):
                if not 0 <= qubit < program.num_qubits:
                    _issue(issues, "R007", "check-range", which,
                           f"check references qubit {qubit} outside "
                           f"[0, {program.num_qubits})")
                elif qubit in measured_qubits:
                    _issue(issues, "R009", "check-reads-measured", which,
                           f"check reads the frame row of measured qubit "
                           f"{qubit}")
            for step_idx in check.delta_steps:
                if not 0 <= step_idx < len(program.steps):
                    _issue(issues, "R007", "check-range", which,
                           f"check references step {step_idx} outside "
                           f"[0, {len(program.steps)})")
        return LintReport(artifact=name, issues=issues[: self.max_issues])

    @staticmethod
    def _dep_steps(
        sources: FrozenSet[int], program: "FrameProgram"
    ) -> Optional[Tuple[int, ...]]:
        """Pattern dep sources resolved to step indices, or ``None`` when
        unresolvable (already flagged by the coverage check)."""
        try:
            return tuple(sorted(program.step_of_node[src] for src in sources))
        except KeyError:
            return None

    # ------------------------------------------------------------------
    # compiled programs (budgets + hardware)
    # ------------------------------------------------------------------
    def lint_compiled_program(
        self,
        program: "CompiledProgram",
        hardware: "HardwareConfig",
        name: Optional[str] = None,
    ) -> LintReport:
        """Lint a :class:`repro.core.compiler.CompiledProgram`'s photon /
        fusion budgets and (when layouts are present) its hardware
        mapping."""
        from repro.core.validate import validate_program

        issues: List[LintIssue] = []
        artifact = name or program.name

        if program.photon_deficit > 0:
            _issue(issues, "B001", "photon-deficit", None,
                   f"program consumes {program.photon_deficit} more photons "
                   "than its resource states supply")
        size = hardware.resource_state.size
        supplied = program.resource_states_used * size
        consumed = (
            2 * program.fusions.total
            + program.pattern_nodes
            + program.fusions.z_measurements
        )
        if program.photon_deficit == 0 and supplied != consumed:
            _issue(issues, "B002", "photon-budget", None,
                   f"{program.resource_states_used} resource states supply "
                   f"{supplied} photons but the program accounts for "
                   f"{consumed} (2*{program.fusions.total} fusions + "
                   f"{program.pattern_nodes} nodes + "
                   f"{program.fusions.z_measurements} Z-measurements)")
        if program.layouts and len(program.layouts) != program.mapping_layers:
            _issue(issues, "B004", "layer-count", None,
                   f"{len(program.layouts)} layouts recorded for "
                   f"{program.mapping_layers} mapping layers")
        if program.layouts:
            ok, errors = validate_program(program, hardware)
            if not ok:
                for message in errors[:20]:
                    _issue(issues, "B003", "hardware-violation", None,
                           message)
        return LintReport(artifact=artifact, issues=issues[: self.max_issues])


def _dependency_cycle(
    pattern: MeasurementPattern, measured: Set[int]
) -> Optional[List[int]]:
    """A dependency cycle among measured nodes, or ``None``.

    Kahn peeling over the raw X/Z dependency edges; any residue after
    the peel lies on (or feeds) a cycle, from which one concrete cycle
    is walked out for the report.  Used instead of
    ``pattern.dependency_dag()`` + networkx so the linter stays robust
    on corrupt inputs.
    """
    deps: Dict[int, Set[int]] = {}
    for node in measured:
        merged = set(pattern.x_deps.get(node, frozenset()))
        merged |= set(pattern.z_deps.get(node, frozenset()))
        deps[node] = {s for s in merged if s in measured and s != node}
    indegree = {node: len(sources) for node, sources in deps.items()}
    dependents: Dict[int, List[int]] = {}
    for node, sources in deps.items():
        for src in sources:
            dependents.setdefault(src, []).append(node)
    ready = [node for node, deg in indegree.items() if deg == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for dependent in dependents.get(node, ()):
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if removed == len(deps):
        return None
    residue = {node for node, deg in indegree.items() if deg > 0}
    # walk predecessors inside the residue until a node repeats
    start = min(residue)
    path = [start]
    seen = {start}
    node = start
    while True:
        node = min(s for s in deps[node] if s in residue)
        if node in seen:
            return path[path.index(node):] + [node]
        seen.add(node)
        path.append(node)


# ----------------------------------------------------------------------
# module-level conveniences (a shared default linter)
# ----------------------------------------------------------------------
_DEFAULT = PatternLinter()


def lint_pattern(
    pattern: MeasurementPattern, name: str = "pattern"
) -> LintReport:
    """Lint *pattern* with the default :class:`PatternLinter`."""
    return _DEFAULT.lint_pattern(pattern, name=name)


def lint_frame_program(
    program: "FrameProgram",
    pattern: MeasurementPattern,
    name: str = "frame-program",
) -> LintReport:
    """Lint *program* against *pattern* with the default linter."""
    return _DEFAULT.lint_frame_program(program, pattern, name=name)


def lint_compiled_program(
    program: "CompiledProgram",
    hardware: "HardwareConfig",
    name: Optional[str] = None,
) -> LintReport:
    """Lint a compiled program's budgets with the default linter."""
    return _DEFAULT.lint_compiled_program(program, hardware, name=name)
