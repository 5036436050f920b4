#!/usr/bin/env python3
"""Project-specific AST lint rules (stdlib-only, no third-party deps).

Rules:

* **LR001 — unseeded RNG**: module-level randomness must be explicit
  and reproducible.  Flags calls to the legacy ``np.random.*`` sampling
  functions (``rand``, ``randint``, ``choice``, ``shuffle``, ...) which
  draw from the hidden global state, ``np.random.seed(...)`` (mutates
  that same hidden global), and zero-argument
  ``np.random.default_rng()`` — every generator must be constructed
  from an explicit seed or spawned from a parent ``SeedSequence``.
* **LR002 — float equality on probabilities**: ``==`` / ``!=``
  comparisons against non-integral float literals are almost always a
  probability/tolerance bug; use ``math.isclose`` or an explicit
  epsilon.  Integral floats (``0.0``, ``1.0``, ``-2.0``) are allowed —
  they are exact in binary and common as sentinels/angles.
* **LR003 — mutable default argument**: ``def f(x, acc=[])`` shares one
  list across calls; use ``None`` + an in-body default.
* **LR004 — silently swallowed exception**: a ``pass``-only handler for
  a bare ``except``, ``except Exception`` or ``except BaseException``
  hides every failure in the guarded block.  Narrow the exception type,
  or handle/log it.  Test files (``tests/`` dirs, ``test_*.py`` /
  ``conftest.py``) are exempt — tests legitimately probe failure paths.
* **LR005 — unbound name in a string annotation**: every name inside a
  quoted annotation (``Optional["Circuit"]``) must be bound in its
  module — by an import (``if TYPE_CHECKING:`` imports count), a
  ``def``/``class``, an assignment, or a builtin.  An unbound forward
  reference type-checks nowhere and makes ``typing.get_type_hints``
  raise ``NameError``.  Strings inside ``Literal[...]`` are values, not
  references, and are skipped.

Suppression: append ``# noqa: LR001`` (or a comma-separated list) to
the offending line.  A bare ``# noqa`` suppresses every rule on the
line.

Usage::

    python scripts/lint_rules.py [path ...]     # default: src/

Exit status 1 when any finding survives suppression, 0 otherwise.
CI runs this over ``src/ scripts/ examples/ benchmarks/ tests/``.
"""

from __future__ import annotations

import ast
import builtins
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

#: legacy numpy global-state sampling functions (np.random.<name>)
_LEGACY_SAMPLERS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "binomial", "poisson", "exponential", "standard_normal", "bytes",
    "seed", "get_state", "set_state",
}

_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*))?",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class Finding:
    path: pathlib.Path
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _noqa_codes(source_line: str) -> Optional[Set[str]]:
    """Codes suppressed on this line; empty set = suppress everything."""
    match = _NOQA_RE.search(source_line)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return set()
    return {c.strip().upper() for c in codes.split(",")}


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    """Names the module binds to the numpy package (``np``, ``numpy``)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def _attr_chain(node: ast.AST) -> List[str]:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _bound_names(tree: ast.Module) -> Set[str]:
    """Every name the module binds anywhere, plus the builtins."""
    bound = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound


def _string_annotations(annotation: ast.AST) -> Iterator[ast.Constant]:
    """Quoted forward references inside *annotation*, skipping the
    string values of ``Literal[...]``."""
    if isinstance(annotation, ast.Constant):
        if isinstance(annotation.value, str):
            yield annotation
        return
    if isinstance(annotation, ast.Subscript):
        chain = _attr_chain(annotation.value)
        if chain and chain[-1] == "Literal":
            return
    for child in ast.iter_child_nodes(annotation):
        yield from _string_annotations(child)


class _Checker(ast.NodeVisitor):
    def __init__(self, path: pathlib.Path, tree: ast.Module):
        self.path = path
        self.numpy_names = _numpy_aliases(tree)
        self.bound = _bound_names(tree)
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, getattr(node, "lineno", 0), code, message)
        )

    # -- LR001: unseeded / legacy global RNG ---------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if len(chain) == 3 and chain[0] in self.numpy_names \
                and chain[1] == "random":
            name = chain[2]
            if name == "default_rng":
                if not node.args and not node.keywords:
                    self._flag(
                        node, "LR001",
                        "np.random.default_rng() without a seed: pass an "
                        "explicit seed or spawn from a SeedSequence",
                    )
            elif name in _LEGACY_SAMPLERS:
                self._flag(
                    node, "LR001",
                    f"legacy np.random.{name} uses the hidden global RNG; "
                    "use an explicit np.random.default_rng(seed)",
                )
        self.generic_visit(node)

    # -- LR002: float == on probabilities ------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (lhs, rhs):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    and not float(side.value).is_integer()
                ):
                    self._flag(
                        node, "LR002",
                        f"float equality against {side.value!r}; use "
                        "math.isclose or an explicit tolerance",
                    )
                    break
        self.generic_visit(node)

    # -- LR003: mutable default args -----------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            ):
                self._flag(
                    default, "LR003",
                    f"mutable default argument in {node.name}(); "
                    "default to None and construct inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_signature(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._check_signature(node)
        self.generic_visit(node)

    # -- LR005: unbound names in string annotations --------------------
    def _check_signature(self, node) -> None:
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            arg for arg in (args.vararg, args.kwarg) if arg is not None
        ]
        for param in params:
            self._check_annotation(param.annotation)
        self._check_annotation(node.returns)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_annotation(node.annotation)
        self.generic_visit(node)

    def _check_annotation(self, annotation: Optional[ast.AST]) -> None:
        if annotation is None:
            return
        for text in _string_annotations(annotation):
            try:
                parsed = ast.parse(text.value.strip(), mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name) and name.id not in self.bound:
                    self._flag(
                        text, "LR005",
                        f"string annotation names {name.id!r}, which the "
                        "module never binds; import it (under "
                        "TYPE_CHECKING if only for typing)",
                    )

    # -- LR004: except (Exception)?: pass ------------------------------
    def visit_Try(self, node: ast.Try) -> None:
        if not _is_test_path(self.path):
            for handler in node.handlers:
                if not all(isinstance(s, ast.Pass) for s in handler.body):
                    continue
                caught = _broad_exception_name(handler.type)
                if caught is not None:
                    shown = f"except {caught}" if caught else "except"
                    self._flag(
                        handler, "LR004",
                        f"'{shown}: pass' silently swallows every "
                        "failure in the try block; narrow the type or "
                        "handle the error",
                    )
        self.generic_visit(node)


def _is_test_path(path: pathlib.Path) -> bool:
    """Test files are exempt from LR004 (they probe failure paths)."""
    if "tests" in path.parts:
        return True
    return path.name.startswith("test_") or path.name == "conftest.py"


def _broad_exception_name(exc_type: Optional[ast.AST]) -> Optional[str]:
    """The over-broad caught name, or ``None`` if the catch is narrow.

    Bare ``except`` and ``except Exception/BaseException`` (alone or
    anywhere in a tuple) count as broad.
    """
    if exc_type is None:
        return ""  # bare except
    candidates = (
        exc_type.elts if isinstance(exc_type, ast.Tuple) else [exc_type]
    )
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and candidate.id in (
            "Exception", "BaseException",
        ):
            return candidate.id
    return None


def check_source(
    source: str, path: pathlib.Path = pathlib.Path("<string>")
) -> List[Finding]:
    """Lint one module's source; returns surviving findings."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(path, exc.lineno or 0, "LR000", f"syntax error: {exc.msg}")
        ]
    checker = _Checker(path, tree)
    checker.visit(tree)
    lines = source.splitlines()
    survivors = []
    for finding in checker.findings:
        line = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        suppressed = _noqa_codes(line)
        if suppressed is not None and (
            not suppressed or finding.code in suppressed
        ):
            continue
        survivors.append(finding)
    return survivors


def iter_python_files(paths: Sequence[pathlib.Path]) -> Iterator[pathlib.Path]:
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def check_paths(paths: Sequence[pathlib.Path]) -> List[Finding]:
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(
            check_source(file_path.read_text(encoding="utf-8"), file_path)
        )
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    paths = [pathlib.Path(p) for p in argv] or [pathlib.Path("src")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {missing[0]}", file=sys.stderr)
        return 2
    findings = check_paths(paths)
    for finding in findings:
        print(finding.render())
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    if findings:
        breakdown = ", ".join(
            f"{code}: {n}" for code, n in sorted(counts.items())
        )
        print(f"{len(findings)} finding(s) ({breakdown})", file=sys.stderr)
        return 1
    checked = sum(1 for _ in iter_python_files(paths))
    print(f"clean: {checked} files checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
