"""Mutation harness: corrupt known-good artifacts, assert the linter bites.

A linter that has never seen a broken artifact proves nothing.  This
module seeds one corruption per *mutation class* — drop a correction,
reorder two dependent measurements, flip a basis, orphan an edge, ... —
into a rebuilt copy of a known-good pattern or frame program, and
:func:`harness_report` asserts that :class:`repro.analysis.lint.PatternLinter`
flags every class with the exact codes pinned in
:data:`MUTATION_EXPECTED_CODES`.  ``tests/analysis/test_mutation.py``
runs the harness over translated benchmark patterns; CI runs it as part
of the tier-1 suite.

Mutations are deterministic: each picks its victim as the *first*
eligible element in sorted order, so a harness failure reproduces
exactly.  Pattern mutations bypass
:meth:`repro.mbqc.pattern.MeasurementPattern.validate` on purpose — the
point is artifacts corrupted *after* construction (a cache bit-rot, a
buggy transformation pass), which constructor validation never sees.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Tuple

from repro.analysis.lint import PatternLinter
from repro.mbqc.pattern import MeasurementPattern, PatternGraph
from repro.sim.frame import FrameProgram

#: pattern-level corruption classes, in the order the harness runs them
PATTERN_MUTATIONS: Tuple[str, ...] = (
    "drop-x-correction",
    "drop-z-correction",
    "drop-output-byproduct",
    "reorder-dependents",
    "orphan-edge",
    "measure-output",
    "dangling-dependency",
    "self-dependency",
    "dependency-cycle",
)

#: frame-program corruption classes
FRAME_MUTATIONS: Tuple[str, ...] = (
    "flip-basis",
    "frame-forward-reference",
    "retarget-qubit",
    "drop-check",
    "check-reads-measured",
)

#: mutation class -> lint codes that MUST appear in the report
MUTATION_EXPECTED_CODES: Dict[str, FrozenSet[str]] = {
    "drop-x-correction": frozenset({"F002"}),
    "drop-z-correction": frozenset({"F003"}),
    "drop-output-byproduct": frozenset({"F004"}),
    "reorder-dependents": frozenset({"P005"}),
    "orphan-edge": frozenset({"P001"}),
    "measure-output": frozenset({"P002"}),
    "dangling-dependency": frozenset({"P003"}),
    "self-dependency": frozenset({"P009"}),
    "dependency-cycle": frozenset({"P006"}),
    "flip-basis": frozenset({"R003"}),
    "frame-forward-reference": frozenset({"R002"}),
    "retarget-qubit": frozenset({"R005"}),
    "drop-check": frozenset({"R006"}),
    "check-reads-measured": frozenset({"R009"}),
}


class MutationError(ValueError):
    """The artifact offers no site for the requested mutation class."""


# ----------------------------------------------------------------------
# pattern corruption
# ----------------------------------------------------------------------
def corrupt_pattern(
    pattern: MeasurementPattern, mutation: str
) -> MeasurementPattern:
    """A rebuilt copy of *pattern* with one seeded corruption.

    The pattern is read-only, so each mutation rebuilds the changed
    fields via :meth:`MeasurementPattern.replace`, unvalidated.  Raises
    :class:`MutationError` when the pattern has no site for the class
    (e.g. ``drop-x-correction`` on a pattern with no X dependencies) and
    :class:`ValueError` on an unknown class name.
    """
    if mutation not in PATTERN_MUTATIONS:
        raise ValueError(f"unknown pattern mutation {mutation!r}")
    measured = pattern.measured_nodes()
    x_deps: Dict[int, FrozenSet[int]] = dict(pattern.x_deps)
    z_deps: Dict[int, FrozenSet[int]] = dict(pattern.z_deps)
    changes: Dict[str, object] = {}

    if mutation == "drop-x-correction":
        victim = _first_nonempty(x_deps, mutation)
        changes["x_deps"] = {**x_deps, victim: frozenset()}
    elif mutation == "drop-z-correction":
        victim = _first_nonempty(z_deps, mutation)
        changes["z_deps"] = {**z_deps, victim: frozenset()}
    elif mutation == "drop-output-byproduct":
        for field in ("output_x", "output_z"):
            dep_map = getattr(pattern, field)
            sites = [v for v in sorted(dep_map) if dep_map[v]]
            if sites:
                changes[field] = {**dep_map, sites[0]: frozenset()}
                break
        else:
            raise MutationError(f"no site for {mutation}")
    elif mutation == "reorder-dependents":
        if not pattern.sequence:
            raise MutationError("pattern has no recorded sequence")
        seq = list(pattern.sequence)
        pos = {v: i for i, v in enumerate(seq)}
        for node in seq:  # earliest dependent measured after its source
            sources = x_deps.get(node, frozenset()) | \
                z_deps.get(node, frozenset())
            candidates = [s for s in sources if s in pos]
            if not candidates:
                continue
            src = max(candidates, key=lambda s: pos[s])
            if pos[src] < pos[node]:
                seq[pos[src]], seq[pos[node]] = node, src
                changes["sequence"] = tuple(seq)
                break
        else:
            raise MutationError(f"no site for {mutation}")
    elif mutation == "orphan-edge":
        # hang an edge onto a brand-new node nobody measures
        rows = [list(pattern.graph.adj[v]) for v in pattern.graph]
        ghost = len(rows)
        rows[0].append(ghost)
        rows.append([0])
        changes["graph"] = PatternGraph.from_neighbors(rows)
    elif mutation == "measure-output":
        changes["angles"] = {**pattern.angles, pattern.outputs[0]: 0.0}
    elif mutation == "dangling-dependency":
        victim = min(measured)
        ghost = pattern.graph.number_of_nodes()
        changes["x_deps"] = {
            **x_deps, victim: x_deps.get(victim, frozenset()) | {ghost}
        }
    elif mutation == "self-dependency":
        victim = min(measured)
        changes["z_deps"] = {
            **z_deps, victim: z_deps.get(victim, frozenset()) | {victim}
        }
    elif mutation == "dependency-cycle":
        # close the earliest existing dependency edge into a 2-cycle
        measured_set = set(measured)
        for node in measured:
            sources = x_deps.get(node, frozenset()) | \
                z_deps.get(node, frozenset())
            in_measured = sorted(s for s in sources if s in measured_set)
            if in_measured:
                src = in_measured[0]
                changes["x_deps"] = {
                    **x_deps, src: x_deps.get(src, frozenset()) | {node}
                }
                break
        else:
            raise MutationError(f"no site for {mutation}")
    return pattern.replace(validate=False, **changes)


# ----------------------------------------------------------------------
# frame-program corruption
# ----------------------------------------------------------------------
def corrupt_frame_program(
    program: FrameProgram, mutation: str
) -> FrameProgram:
    """A rebuilt copy of *program* with one seeded corruption.

    ``FrameProgram`` and its steps are frozen dataclasses, so each
    mutation rebuilds the affected tuples via :func:`dataclasses.replace`.
    """
    if mutation not in FRAME_MUTATIONS:
        raise ValueError(f"unknown frame mutation {mutation!r}")
    steps = list(program.steps)

    if mutation == "flip-basis":
        if not steps:
            raise MutationError("program has no steps")
        steps[0] = dataclasses.replace(steps[0], y_basis=not steps[0].y_basis)
    elif mutation == "frame-forward-reference":
        if not steps:
            raise MutationError("program has no steps")
        # first step's sign reads its own (not-yet-recorded) outcome
        steps[0] = dataclasses.replace(
            steps[0], z_deps=tuple(steps[0].z_deps) + (0,)
        )
    elif mutation == "retarget-qubit":
        if len(steps) < 2:
            raise MutationError("program has fewer than two steps")
        steps[1] = dataclasses.replace(steps[1], qubit=steps[0].qubit)
    elif mutation == "drop-check":
        if not program.checks:
            raise MutationError("program has no output checks")
        return dataclasses.replace(program, checks=program.checks[:-1])
    elif mutation == "check-reads-measured":
        if not (steps and program.checks):
            raise MutationError("program has no steps or no checks")
        # the first check also reads the first measured qubit's X row
        first = program.checks[0]
        checks = (
            dataclasses.replace(
                first, frame_x=tuple(first.frame_x) + (steps[0].qubit,)
            ),
        ) + tuple(program.checks[1:])
        return dataclasses.replace(program, checks=checks)
    return dataclasses.replace(program, steps=tuple(steps))


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
def harness_report(
    pattern: MeasurementPattern,
    frame_program: FrameProgram = None,
    linter: PatternLinter = None,
) -> Dict[str, Dict[str, object]]:
    """Run every applicable mutation class and lint the corrupted copy.

    Returns ``{mutation: {"expected": codes, "found": codes,
    "caught": bool}}``; a class is *caught* when every expected code
    appears in the lint report.  Classes without a site on this
    particular artifact are reported with ``"caught": None`` (skipped),
    so callers can require specific classes to be exercised.  The clean
    artifacts are linted first and must pass — a linter that already
    fires on the pristine input proves nothing about the mutations.
    """
    linter = linter or PatternLinter()
    results: Dict[str, Dict[str, object]] = {}

    clean = linter.lint_pattern(pattern, name="pristine")
    if not clean.ok:
        raise MutationError(
            "harness needs a clean baseline; pristine pattern fails lint:\n"
            + clean.render()
        )
    if frame_program is not None:
        clean_frame = linter.lint_frame_program(
            frame_program, pattern, name="pristine-frame"
        )
        if not clean_frame.ok:
            raise MutationError(
                "pristine frame program fails lint:\n" + clean_frame.render()
            )

    for mutation in PATTERN_MUTATIONS:
        expected = MUTATION_EXPECTED_CODES[mutation]
        try:
            bad = corrupt_pattern(pattern, mutation)
        except MutationError:
            results[mutation] = {
                "expected": expected, "found": frozenset(), "caught": None,
            }
            continue
        report = linter.lint_pattern(bad, name=mutation)
        results[mutation] = {
            "expected": expected,
            "found": report.codes(),
            "caught": expected <= report.codes(),
        }

    if frame_program is not None:
        for mutation in FRAME_MUTATIONS:
            expected = MUTATION_EXPECTED_CODES[mutation]
            try:
                bad_frame = corrupt_frame_program(frame_program, mutation)
            except MutationError:
                results[mutation] = {
                    "expected": expected, "found": frozenset(),
                    "caught": None,
                }
                continue
            report = linter.lint_frame_program(
                bad_frame, pattern, name=mutation
            )
            results[mutation] = {
                "expected": expected,
                "found": report.codes(),
                "caught": expected <= report.codes(),
            }
    return results


def _first_nonempty(
    dep_map: Dict[int, FrozenSet[int]], mutation: str
) -> int:
    for node in sorted(dep_map):
        if dep_map[node]:
            return node
    raise MutationError(f"no site for {mutation}")
