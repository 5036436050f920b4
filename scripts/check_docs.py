#!/usr/bin/env python
"""Documentation health check: dead links and stale code references.

Run from the repository root (CI runs it in the docs job):

    python scripts/check_docs.py

Checks, over ``README.md``, ``PAPER.md``, ``PAPERS.md``, ``CHANGES.md``
and everything under ``docs/``:

1. every relative markdown link ``[text](path)`` resolves to an existing
   file (anchors are stripped; http(s)/mailto links are not fetched —
   only their syntax is validated);
2. every ``src/repro/...py``-style file reference in a docs table or
   inline code span points at a file that still exists;
3. every ``repro.<module>`` dotted reference names an importable module
   path under ``src/``, and when the reference carries an attribute
   suffix (``repro.sim.frame.FrameProgram``), the first attribute is
   defined in that module's source — so renaming or deleting a class
   breaks the doc check, not just deleting the file.  A package's
   lazy export table (``_EXPORTS`` in its ``__init__.py``) is followed
   to the defining module, which must define the name;
4. in ``README.md`` and ``docs/`` (not ``CHANGES.md``, which is
   history), every inline-code ``repro <cmd>`` and every
   ``python -m repro <cmd>`` names a subcommand that the CLI's
   ``build_parser()`` registers — so a removed subcommand cannot
   linger in the docs;
5. ``README.md``'s run-table schema table (the first table under the
   heading naming ``run_table.json`` and "schema") lists exactly
   ``RUN_TABLE_COLUMNS`` of ``src/repro/eval/batch.py``: every code
   span in its first column is a registered column, and every
   registered column appears there;
6. in the same files, every ``--flag`` of a ``repro <cmd> …`` command,
   in an inline code span or on a (``\\``-continued) line of a fenced
   code block, is an option ``build_parser()`` registers for that
   subcommand — so a removed flag cannot linger in the docs either.

Exits non-zero with a per-problem report when anything is broken, so
docs rot fails CI instead of accumulating.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re
import sys
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]

DOC_FILES = ["README.md", "PAPER.md", "PAPERS.md", "CHANGES.md"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FILE_REF_RE = re.compile(r"`((?:src|docs|tests|benchmarks|scripts|examples)/[\w./-]+)`")
MODULE_REF_RE = re.compile(r"`(repro(?:\.\w+)+)")
COMMAND_RE = re.compile(r"(?:`|python -m )repro ([\w-]+)")
SCHEMA_HEADING_RE = re.compile(r"^#+ .*run_table\.json.*schema")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
FENCE_RE = re.compile(r"^\s*(?:```|~~~)")
INVOCATION_RE = re.compile(r"(?:^|\s)repro ([\w-]+)([^|;&#`]*)")
FLAG_RE = re.compile(r"(?:^|\s)(--[\w-]+)")


def doc_paths() -> List[pathlib.Path]:
    """Markdown files to check: the top-level docs plus docs/**."""
    paths = [ROOT / name for name in DOC_FILES if (ROOT / name).exists()]
    paths.extend(sorted((ROOT / "docs").glob("**/*.md")))
    return paths


def cli_options() -> Dict[str, Set[str]]:
    """Subcommand name -> the option strings ``build_parser()``
    registers for it (the one check that imports the package: the CLI
    module imports nothing heavy at module level)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import build_parser

    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {opt for action in parser._actions for opt in action.option_strings}
        for name, parser in sub.choices.items()
    }


def command_texts(text: str) -> Iterator[Tuple[int, str]]:
    """``(line_number, text)`` of every place rule 6 reads: each inline
    code span (which may wrap lines) and each logical line of a fenced
    code block, ``\\``-continuations joined."""
    prose: List[str] = []
    block: List[Tuple[int, str]] = []
    fenced = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        fence = bool(FENCE_RE.match(line))
        if fenced and not fence:
            block.append((lineno, line))
        prose.append("" if fenced or fence else line)
        fenced ^= fence
    start, pending = 0, ""
    for lineno, line in block:
        if not pending:
            start = lineno
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield start, pending + line
        pending = ""
    joined = "\n".join(prose)
    for match in CODE_SPAN_RE.finditer(joined):
        yield joined.count("\n", 0, match.start()) + 1, match.group(1)


def flag_problems(
    text: str, options: Dict[str, Set[str]]
) -> Iterator[Tuple[int, str]]:
    """Rule 6: flags of ``repro <cmd>`` commands in *text* that the
    subcommand does not register (unknown subcommands are rule 4's)."""
    for lineno, chunk in command_texts(text):
        for match in INVOCATION_RE.finditer(chunk):
            command = match.group(1)
            if command not in options:
                continue
            for flag in FLAG_RE.findall(match.group(2)):
                if flag not in options[command]:
                    yield lineno, f"unknown option: `repro {command} {flag}`"


def run_table_columns() -> List[str]:
    """``RUN_TABLE_COLUMNS`` as ``src/repro/eval/batch.py`` assigns it
    (read from the source, like the other checks)."""
    source = ROOT / "src" / "repro" / "eval" / "batch.py"
    tree = ast.parse(source.read_text())
    for node in tree.body:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "RUN_TABLE_COLUMNS"
            and node.value is not None
        ):
            return list(ast.literal_eval(node.value))
    raise LookupError("RUN_TABLE_COLUMNS not found in src/repro/eval/batch.py")


def schema_table_problems(
    path: pathlib.Path, columns: List[str]
) -> Iterator[Tuple[int, str]]:
    """Rule 5: the run-table schema table in *path* documents exactly
    *columns* (code spans in its first column)."""
    lines = path.read_text().splitlines()
    heading = next(
        (i for i, line in enumerate(lines) if SCHEMA_HEADING_RE.match(line)),
        None,
    )
    if heading is None:
        yield 0, "no run-table schema heading"
        return
    documented: Set[str] = set()
    in_table = False
    for lineno in range(heading + 1, len(lines)):
        line = lines[lineno]
        if not line.startswith("|"):
            if in_table or line.startswith("#"):
                break
            continue
        in_table = True
        for name in CODE_SPAN_RE.findall(line.split("|")[1]):
            documented.add(name)
            if name not in columns:
                yield lineno + 1, f"schema table names unknown column `{name}`"
    for name in columns:
        if name not in documented:
            yield heading + 1, f"schema table is missing column `{name}`"


def iter_problems(
    path: pathlib.Path, options: Optional[Dict[str, Set[str]]] = None
) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_number, message)`` problems found in *path*.

    With *options* (:func:`cli_options`), every ``repro <cmd>`` mention
    must name one of its subcommands, with only that one's flags.
    """
    text = path.read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):  # in-page anchor
                continue
            rel = target.split("#", 1)[0]
            resolved = (path.parent / rel).resolve()
            if not resolved.exists():
                yield lineno, f"dead link: ({target})"
        for match in FILE_REF_RE.finditer(line):
            ref = match.group(1).rstrip("/")
            # table rows often list "dir/file.py" roles; tolerate
            # directories and files alike
            if not (ROOT / ref).exists():
                yield lineno, f"stale file reference: `{match.group(1)}`"
        for match in MODULE_REF_RE.finditer(line):
            dotted = match.group(1)
            problem = _module_problem(dotted)
            if problem is not None:
                yield lineno, problem
        if options is None:
            continue
        for match in COMMAND_RE.finditer(line):
            if match.group(1) not in options:
                yield lineno, f"unknown subcommand: `repro {match.group(1)}`"
    if options is not None:
        yield from flag_problems(text, options)


def _module_problem(dotted: str) -> "str | None":
    """Check one dotted ``repro...`` reference; ``None`` when healthy.

    The longest prefix of *dotted* must map to a package or module file
    under ``src/``.  Any remainder is an attribute path
    (``repro.eval.batch.RunSpec``); its first segment must be *defined*
    in the resolved module — as a ``class``, ``def``, or module-level
    assignment, or, for a package, in the defining module its export
    table names — which catches docs still naming a class that was
    renamed away.  Checking is textual so the docs job never imports
    the package.
    """
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        base = ROOT / "src" / pathlib.Path(*parts[:end])
        if base.with_suffix(".py").exists():
            source_path = base.with_suffix(".py")
        elif (base / "__init__.py").exists():
            source_path = base / "__init__.py"
        else:
            continue
        if end == len(parts):
            return None
        attr = parts[end]
        home = _lazy_exports(source_path).get(attr)
        if home is not None:  # follow the package's export table
            package = ".".join(parts[:end])
            return _module_problem(".".join([package + home, *parts[end:]]))
        if _defines_name(source_path, attr):
            return None
        return (
            f"stale attribute reference: `{dotted}` "
            f"({attr!r} is not defined in {source_path.relative_to(ROOT)})"
        )
    return f"stale module reference: `{dotted}`"


def _lazy_exports(source_path: pathlib.Path) -> Dict[str, str]:
    """A package's ``_EXPORTS`` table (name -> relative defining module),
    read from its ``__init__.py`` source; empty for other modules."""
    if source_path.name != "__init__.py":
        return {}
    for node in ast.parse(source_path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_EXPORTS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return {}


def _defines_name(source_path: pathlib.Path, name: str) -> bool:
    """True when *name* is defined or re-exported at module top level."""
    pattern = re.compile(
        rf"^(?:class|def)\s+{re.escape(name)}\b"
        rf"|^{re.escape(name)}\s*[:=]"
        rf"|^\s+{re.escape(name)},?\s*$"      # import-list / __all__ entry
        rf"|\b{re.escape(name)}\s*=\s"        # aliased assignment
        rf"|import\s+.*\b{re.escape(name)}\b",
        re.MULTILINE,
    )
    return bool(pattern.search(source_path.read_text()))


def main() -> int:
    problems = 0
    options = cli_options()
    for path in doc_paths():
        # CHANGES.md is history: it may name removed subcommands and flags
        checked = path.name == "README.md" or ROOT / "docs" in path.parents
        found = list(iter_problems(path, options if checked else None))
        if path == ROOT / "README.md":
            found.extend(schema_table_problems(path, run_table_columns()))
        for lineno, message in found:
            print(f"{path.relative_to(ROOT)}:{lineno}: {message}")
            problems += 1
    if problems:
        print(f"\n{problems} documentation problem(s) found")
        return 1
    print(f"docs ok ({len(doc_paths())} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
