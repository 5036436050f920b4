"""What each entry point loads: package imports stay lazy.

Every case runs in a fresh interpreter, because the suite itself has
long since imported everything, and inspects ``sys.modules`` there.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap
from typing import List

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _run(code: str):
    """The JSON value *code* prints last, run in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_after(code: str) -> List[str]:
    """The module names loaded once *code* has run in a new interpreter."""
    return _run(
        textwrap.dedent(code)
        + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )


def _offenders(loaded: List[str], forbidden: List[str]) -> List[str]:
    """Loaded modules that are, or live inside, a forbidden one."""
    return [
        name for name in loaded
        if any(name == bad or name.startswith(bad + ".") for bad in forbidden)
    ]


def test_import_repro_loads_no_submodule():
    loaded = _loaded_after("import repro")
    assert [n for n in loaded if n.startswith("repro.")] == []
    assert _offenders(loaded, ["numpy", "networkx"]) == []


def test_serve_request_path_loads_no_compiler():
    loaded = _loaded_after(
        """
        import repro.serve.server
        from repro.serve.service import normalize_request
        normalize_request({"benchmark": "QFT", "qubits": 16}).key()
        """
    )
    assert "repro.serve.server" in loaded and "repro.eval.batch" in loaded
    assert _offenders(
        loaded, ["numpy", "networkx", "repro.core", "repro.sim"]
    ) == []


def test_compile_spec_loads_no_sim_or_server():
    loaded = _loaded_after(
        """
        from repro.eval.batch import RunSpec, execute_spec
        execute_spec(RunSpec("QFT", 16, include_baseline=False))
        """
    )
    assert "repro.core.compiler" in loaded
    assert _offenders(
        loaded, ["numpy", "asyncio", "repro.sim", "repro.serve.server"]
    ) == []


def test_export_names_resolve_to_their_definitions():
    # each name in each package's __all__ must be the very object its
    # defining module holds, as the package's export table names it
    problems = _run(
        """
        import importlib, json, pathlib
        import repro

        root = pathlib.Path(repro.__file__).parent
        packages = ["repro"] + sorted(
            "repro." + p.parent.name for p in root.glob("*/__init__.py")
        )
        problems = []
        for name in packages:
            package = importlib.import_module(name)
            for attr in package.__all__:
                home = importlib.import_module(package._EXPORTS[attr], name)
                if getattr(package, attr) is not getattr(home, attr):
                    problems.append(f"{name}.{attr}")
                if attr not in dir(package):
                    problems.append(f"{name}.{attr} (not in dir)")
        print(json.dumps([len(packages), problems]))
        """
    )
    assert problems == [11, []]
