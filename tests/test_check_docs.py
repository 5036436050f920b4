"""The subcommand and module-reference checks in scripts/check_docs.py."""

import importlib.util
import pathlib
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1] / "scripts" / "check_docs.py"
)
_spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
check_docs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_docs", check_docs)
_spec.loader.exec_module(check_docs)


@pytest.mark.parametrize(
    "line,problems",
    [
        ("Run `repro nope --fast`.", ["unknown subcommand: `repro nope`"]),
        ("    python -m repro nope", ["unknown subcommand: `repro nope`"]),
        ("Run `repro table2 --quick`.", []),
        ("    PYTHONPATH=src python -m repro table2 --quick", []),
    ],
    ids=["code-span-unknown", "python-m-unknown", "code-span-known",
         "python-m-known"],
)
def test_subcommand_mentions(tmp_path, line, problems):
    doc = tmp_path / "doc.md"
    doc.write_text(f"# Title\n\n{line}\n")
    found = check_docs.iter_problems(doc, check_docs.cli_subcommands())
    assert [message for _, message in found] == problems


@pytest.mark.parametrize(
    "line,problems",
    [
        ("See `repro.core.OneQCompiler`.", []),
        (
            "See `repro.core.NoSuchThing`.",
            [
                "stale attribute reference: `repro.core.NoSuchThing` "
                "('NoSuchThing' is not defined in src/repro/core/__init__.py)"
            ],
        ),
    ],
    ids=["lazy-export", "unknown-export"],
)
def test_package_attribute_references(tmp_path, line, problems):
    doc = tmp_path / "doc.md"
    doc.write_text(f"# Title\n\n{line}\n")
    found = check_docs.iter_problems(doc)
    assert [message for _, message in found] == problems
