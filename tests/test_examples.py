"""The examples run against the current API.

Each example under ``examples/`` runs in a fresh interpreter, the way
its docstring says to run it, so an example that calls a deleted name
fails here.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))


def run_example(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_zero(name):
    run_example(name)


def test_resource_state_study():
    out = run_example("resource_state_study.py")
    assert "#fusion improvement" in out
    assert "BV-16: synthesis fusions" in out
