"""The custom AST lint rules in scripts/lint_rules.py."""

import importlib.util
import pathlib
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1] / "scripts" / "lint_rules.py"
)
_spec = importlib.util.spec_from_file_location("lint_rules", _SCRIPT)
lint_rules = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("lint_rules", lint_rules)
_spec.loader.exec_module(lint_rules)


def codes(source: str):
    return [f.code for f in lint_rules.check_source(source)]


class TestLR001UnseededRNG:
    def test_zero_arg_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(src) == ["LR001"]

    def test_seeded_default_rng_is_fine(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert codes(src) == []

    def test_seed_sequence_default_rng_is_fine(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(np.random.SeedSequence(3))\n"
        )
        assert codes(src) == []

    @pytest.mark.parametrize(
        "call", ["rand(3)", "randint(0, 2)", "choice([1, 2])", "seed(0)"]
    )
    def test_legacy_global_samplers(self, call):
        src = f"import numpy as np\nx = np.random.{call}\n"
        assert codes(src) == ["LR001"]

    def test_respects_numpy_alias(self):
        src = "import numpy\nx = numpy.random.rand()\n"
        assert codes(src) == ["LR001"]

    def test_unrelated_random_attribute_ignored(self):
        # some_obj.random.rand is not numpy's global state
        src = "x = simulator.random.rand()\n"
        assert codes(src) == []


class TestLR002FloatEquality:
    def test_probability_equality(self):
        assert codes("ok = p == 0.5\n") == ["LR002"]

    def test_not_equal_also_flagged(self):
        assert codes("ok = 0.75 != q\n") == ["LR002"]

    def test_integral_floats_allowed(self):
        assert codes("ok = theta == 1.0 or theta == 0.0\n") == []

    def test_ordering_comparisons_allowed(self):
        assert codes("ok = p < 0.5\n") == []


class TestLR003MutableDefaults:
    def test_list_default(self):
        assert codes("def f(acc=[]):\n    return acc\n") == ["LR003"]

    def test_dict_and_set_defaults(self):
        src = "def f(a={}, b=set()):\n    return a, b\n"
        assert codes(src) == ["LR003", "LR003"]

    def test_none_default_is_fine(self):
        assert codes("def f(acc=None):\n    return acc or []\n") == []

    def test_tuple_default_is_fine(self):
        assert codes("def f(dims=()):\n    return dims\n") == []


class TestLR004SwallowedExceptions:
    def test_bare_except_pass(self):
        src = "try:\n    work()\nexcept:\n    pass\n"
        assert codes(src) == ["LR004"]

    def test_except_exception_pass(self):
        src = "try:\n    work()\nexcept Exception:\n    pass\n"
        assert codes(src) == ["LR004"]

    def test_except_base_exception_pass(self):
        src = "try:\n    work()\nexcept BaseException:\n    pass\n"
        assert codes(src) == ["LR004"]

    def test_broad_type_in_tuple_flagged(self):
        src = "try:\n    work()\nexcept (ValueError, Exception):\n    pass\n"
        assert codes(src) == ["LR004"]

    def test_narrow_except_pass_is_fine(self):
        src = "try:\n    work()\nexcept OSError:\n    pass\n"
        assert codes(src) == []

    def test_handled_broad_except_is_fine(self):
        src = "try:\n    work()\nexcept Exception as exc:\n    log(exc)\n"
        assert codes(src) == []

    def test_test_files_exempt(self):
        src = "try:\n    work()\nexcept Exception:\n    pass\n"
        for path in (
            pathlib.Path("tests/serve/test_x.py"),
            pathlib.Path("src/repro/test_helper.py"),
            pathlib.Path("tests/conftest.py"),
        ):
            assert lint_rules.check_source(src, path) == []
        assert [
            f.code
            for f in lint_rules.check_source(
                src, pathlib.Path("src/repro/serve/server.py")
            )
        ] == ["LR004"]

    def test_noqa_suppresses(self):
        src = "try:\n    work()\nexcept Exception:  # noqa: LR004\n    pass\n"
        assert codes(src) == []


class TestLR005UnboundStringAnnotations:
    def test_unbound_forward_reference_flagged(self):
        src = (
            "from typing import Optional\n"
            "def f(c: Optional[\"Circuit\"] = None):\n"
            "    return c\n"
        )
        assert codes(src) == ["LR005"]

    def test_unbound_return_and_variable_annotations_flagged(self):
        src = (
            "def f() -> \"Ghost\":\n"
            "    pass\n"
            "x: \"Phantom\" = None\n"
        )
        assert codes(src) == ["LR005", "LR005"]

    def test_type_checking_import_is_accepted(self):
        src = (
            "from typing import TYPE_CHECKING, Optional\n"
            "if TYPE_CHECKING:\n"
            "    from repro.circuit.circuit import Circuit\n"
            "def f(c: Optional[\"Circuit\"] = None):\n"
            "    return c\n"
        )
        assert codes(src) == []

    def test_module_bindings_and_builtins_are_accepted(self):
        src = (
            "import numpy as np\n"
            "class Node:\n"
            "    def child(self) -> \"Node\":\n"
            "        return self\n"
            "Alias = int\n"
            "def f(a: \"np.ndarray\", b: \"Alias\", c: \"dict\"):\n"
            "    return a\n"
        )
        assert codes(src) == []

    def test_literal_strings_are_values_not_references(self):
        src = (
            "from typing import Literal\n"
            "def f(kind: Literal[\"x\", \"y\"]):\n"
            "    return kind\n"
        )
        assert codes(src) == []

    def test_noqa_suppresses(self):
        src = "def f(c: \"Circuit\"):  # noqa: LR005\n    return c\n"
        assert codes(src) == []


class TestSuppression:
    def test_targeted_noqa(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # noqa: LR001\n"
        )
        assert codes(src) == []

    def test_bare_noqa(self):
        src = "ok = p == 0.5  # noqa\n"
        assert codes(src) == []

    def test_wrong_code_does_not_suppress(self):
        src = "ok = p == 0.5  # noqa: LR003\n"
        assert codes(src) == ["LR002"]


class TestCLI:
    def test_repo_sources_are_clean(self):
        """The gate CI enforces: src/, scripts/, examples/, benchmarks/
        carry no findings."""
        root = _SCRIPT.parents[1]
        paths = [
            root / name
            for name in ("src", "scripts", "examples", "benchmarks")
            if (root / name).exists()
        ]
        findings = lint_rules.check_paths(paths)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_missing_path_is_an_error(self, capsys):
        assert lint_rules.main(["definitely/not/here"]) == 2

    def test_syntax_error_reported_as_lr000(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = lint_rules.check_paths([bad])
        assert [f.code for f in findings] == ["LR000"]
