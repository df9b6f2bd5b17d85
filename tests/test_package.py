"""Package-level consistency checks: public API imports and __all__ hygiene."""

import importlib

import pytest

SUBPACKAGES = [
    "repro",
    "repro.mx",
    "repro.accelerator",
    "repro.models",
    "repro.platform",
    "repro.data",
    "repro.learn",
    "repro.core",
    "repro.experiments",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists {symbol!r}"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_sorted_and_unique(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name} duplicates exports"


def test_version_matches_pyproject():
    import pathlib
    import re

    import repro

    pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
    text = pyproject.read_text()
    declared = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
    assert repro.__version__ == declared


def test_third_party_imports_are_declared():
    # A clean install gets only the declared dependencies, so every
    # third-party package imported anywhere under src/repro must be listed
    # in pyproject.toml's [project] dependencies.
    import ast
    import pathlib
    import re
    import sys

    import repro

    package = pathlib.Path(repro.__file__).parent
    text = (package.parents[1] / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    declared = {
        re.split(r"[\s\[<>=!~;]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in re.findall(r'"([^"]+)"', deps)
    }
    undeclared = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if (
                    top != "repro"
                    and top not in sys.stdlib_module_names
                    and top.lower() not in declared
                ):
                    undeclared.setdefault(top, path.relative_to(package))
    assert not undeclared, f"imported but not declared: {undeclared}"


def test_public_entry_points_exist():
    from repro.core import build_system, run_on_scenario, validate_run
    from repro.experiments import run_experiment
    from repro.mx import MX4, MX6, MX9

    assert callable(build_system)
    assert callable(run_on_scenario)
    assert callable(validate_run)
    assert callable(run_experiment)
    assert MX4.bits_per_value < MX6.bits_per_value < MX9.bits_per_value
