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

import pytest

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


def test_translate_loads_no_networkx_or_numpy():
    """The pattern IR is stdlib arrays: translating a circuit loads
    neither graph nor array library."""
    loaded = _loaded_after(
        """
        from repro.circuit.benchmarks import qft
        from repro.mbqc.translate import circuit_to_pattern
        circuit_to_pattern(qft(8))
        """
    )
    assert "repro.mbqc.pattern" in loaded
    assert _offenders(loaded, ["numpy", "networkx"]) == []


def test_timed_stages_import_nothing():
    """``stage_seconds`` times the verify and mc stages, not a first
    import: every module ``verify_pattern`` / ``estimate_yield`` run on
    is loaded before ``execute_spec`` calls them, on each verification
    method (stabilizer, static, statevector) and on both samplers
    (scalar model, per-site map)."""
    loaded_by_call = _run(
        """
        import json, sys
        import repro.core.validate as validate
        from repro.eval.batch import RunSpec, execute_spec

        loaded = []

        def wrap(name):
            real = getattr(validate, name)

            def call(*args, **kwargs):
                before = set(sys.modules)
                result = real(*args, **kwargs)
                loaded.append([name, sorted(set(sys.modules) - before)])
                return result

            setattr(validate, name, call)

        wrap("verify_pattern")
        wrap("estimate_yield")
        for spec in [
            RunSpec("BV", 8, include_baseline=False, shots=50),
            RunSpec("BV", 8, include_baseline=False, verify=True),
            RunSpec("QFT", 16, include_baseline=False, verify=True),
            RunSpec("QFT", 8, include_baseline=False, verify=True),
            RunSpec("BV", 8, include_baseline=False, shots=50,
                    scenario="dead-rsg", severity=0.1, policy="reroute"),
        ]:
            execute_spec(spec)
        print(json.dumps(loaded))
        """
    )
    assert [name for name, _ in loaded_by_call] == [
        "estimate_yield", "verify_pattern", "verify_pattern",
        "verify_pattern", "estimate_yield",
    ]
    assert [new for _, new in loaded_by_call] == [[]] * 5


@pytest.mark.parametrize("exhibit", ["fig15", "noise-sweep", "degrade-sweep"])
def test_rendering_an_exhibit_loads_no_compiler(exhibit):
    loaded = _loaded_after(
        f"""
        import contextlib, io, os
        os.chdir({str(SRC.parent)!r})
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([{exhibit!r}]) == 0
        """
    )
    assert "repro.eval.reporting" in loaded
    assert _offenders(
        loaded,
        ["numpy", "networkx", "repro.core", "repro.sim", "repro.serve.server"],
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
