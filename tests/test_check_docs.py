"""The subcommand, flag and module-reference checks in scripts/check_docs.py."""

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
        ("Run `repro bench --quick`.", []),
        ("    PYTHONPATH=src python -m repro bench --quick", []),
    ],
    ids=["code-span-unknown", "python-m-unknown", "code-span-known",
         "python-m-known"],
)
def test_subcommand_mentions(tmp_path, line, problems):
    doc = tmp_path / "doc.md"
    doc.write_text(f"# Title\n\n{line}\n")
    found = check_docs.iter_problems(doc, check_docs.cli_options())
    assert [message for _, message in found] == problems


@pytest.mark.parametrize(
    "text,problems",
    [
        (
            "Run `repro compile --benchmark BV --max-delay 2`.",
            [(3, "unknown option: `repro compile --max-delay`")],
        ),
        (
            "```bash\nPYTHONPATH=src python -m repro compile --qubits 8 \\\n"
            "    --max-delay 2   # --nope is a comment\n```",
            [(4, "unknown option: `repro compile --max-delay`")],
        ),
        (
            "Written by `python -m repro bench --grid NAME --jobs 1 --out\n"
            "benchmarks` (`--quick` alone is prose).",
            [],
        ),
        ("Run `repro compile --benchmark BV --extension 3`.", []),
        ("Run `repro bench --grid fig14` then `repro fig14 --help`.", []),
        (
            "Not a span: repro compile --max-delay 2, nor `--max-delay`.",
            [],
        ),
    ],
    ids=["span-stale-flag", "fenced-continued-stale-flag",
         "span-wrapping-lines", "span-registered-flags",
         "registered-per-subcommand", "outside-a-command-span"],
)
def test_flag_mentions(tmp_path, text, problems):
    doc = tmp_path / "doc.md"
    doc.write_text(f"# Title\n\n{text}\n")
    found = check_docs.iter_problems(doc, check_docs.cli_options())
    assert list(found) == problems


def test_flags_are_checked_per_subcommand():
    """``--layout`` is a compile option, not a baseline one."""
    options = check_docs.cli_options()
    text = "`repro compile --layout 2` and `repro baseline --layout 2`"
    assert list(check_docs.flag_problems(text, options)) == [
        (1, "unknown option: `repro baseline --layout`")
    ]


@pytest.mark.parametrize("name", ["README.md", "docs/ARCHITECTURE.md"])
def test_real_docs_name_only_registered_flags(name):
    text = (check_docs.ROOT / name).read_text()
    assert list(check_docs.flag_problems(text, check_docs.cli_options())) == []


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


_SCHEMA_DOC = """# Title

### `run_table.json` schema (v1)

Prose before the table, with a stray `code` span.

| column | meaning |
| --- | --- |
{rows}

Schema history: v1 named `old_column`.
"""


@pytest.mark.parametrize(
    "rows,problems",
    [
        ("| `key` | hash |\n| `depth`, `seconds` | metrics |", []),
        (
            "| `key` | hash |\n| `depth`, `seconds` | metrics |\n"
            "| `verify_seconds` | a column the schema dropped |",
            ["schema table names unknown column `verify_seconds`"],
        ),
        (
            "| `key` | hash |\n| `depth` | metric, not `seconds` |",
            ["schema table is missing column `seconds`"],
        ),
    ],
    ids=["matches", "stale-column", "missing-column"],
)
def test_schema_table_matches_columns(tmp_path, rows, problems):
    doc = tmp_path / "README.md"
    doc.write_text(_SCHEMA_DOC.format(rows=rows))
    found = check_docs.schema_table_problems(doc, ["key", "depth", "seconds"])
    assert [message for _, message in found] == problems


def test_schema_table_needs_its_heading(tmp_path):
    doc = tmp_path / "README.md"
    doc.write_text("# Title\n\n| `key` | hash |\n")
    found = check_docs.schema_table_problems(doc, ["key"])
    assert [message for _, message in found] == ["no run-table schema heading"]


def test_readme_schema_table_is_current():
    from repro.eval.batch import RUN_TABLE_COLUMNS

    columns = check_docs.run_table_columns()
    assert columns == RUN_TABLE_COLUMNS
    readme = check_docs.ROOT / "README.md"
    assert list(check_docs.schema_table_problems(readme, columns)) == []
