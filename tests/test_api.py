"""Public API surface: exports exist, are documented, and are stable."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.engine",
    "repro.compile",
    "repro.uq",
    "repro.fta",
    "repro.bdd",
    "repro.stats",
    "repro.opt",
    "repro.sim",
    "repro.elbtunnel",
    "repro.viz",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_docstring(package):
    module = importlib.import_module(package)
    assert module.__doc__ and len(module.__doc__.strip()) > 20


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_documented(package):
    """Every exported class/function carries a docstring."""
    module = importlib.import_module(package)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"undocumented in {package}: {undocumented}"


def test_version_string():
    import repro
    assert repro.__version__.count(".") == 2


def test_version_is_single_sourced():
    """setup.py and pyproject.toml both read repro.__version__."""
    import pathlib

    import repro
    root = pathlib.Path(repro.__file__).resolve().parents[2]
    pyproject = (root / "pyproject.toml").read_text()
    assert 'dynamic = ["version"]' in pyproject
    assert 'version = {attr = "repro.__version__"}' in pyproject
    assert '"1.0.0"' not in pyproject

    # Execute only setup.py's helper definitions, not setup() itself.
    import ast
    setup_py = root / "setup.py"
    module = ast.parse(setup_py.read_text())
    module.body = [node for node in module.body
                   if isinstance(node, (ast.Import, ast.ImportFrom,
                                        ast.FunctionDef))]
    namespace = {"__file__": str(setup_py)}
    exec(compile(module, str(setup_py), "exec"), namespace)
    assert namespace["read_version"]() == repro.__version__


def test_error_hierarchy():
    """Every library error derives from ReproError, so one except
    clause catches everything."""
    from repro import errors
    subclasses = [
        errors.FaultTreeError, errors.ValidationError,
        errors.QuantificationError, errors.DistributionError,
        errors.OptimizationError, errors.BDDError,
        errors.SimulationError, errors.ModelError,
        errors.SerializationError, errors.EngineError,
        errors.UQError,
    ]
    for cls in subclasses:
        assert issubclass(cls, errors.ReproError)
    assert issubclass(errors.ValidationError, errors.FaultTreeError)


def test_no_cross_contamination_of_names():
    """Key classes resolve to a single canonical definition."""
    from repro.core import SafetyModel as a
    from repro.core.model import SafetyModel as b
    assert a is b
    from repro.fta import FaultTree as c
    from repro.fta.tree import FaultTree as d
    assert c is d


def _modules_after_import(imports, package):
    """The ``package`` modules loaded by a fresh interpreter after
    ``import <imports>``."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (src, env.get("PYTHONPATH")) if p])
    code = ("import json, sys\n"
            f"import {imports}\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            f"    if (m + '.').startswith({package + '.'!r}))))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout)


def test_startup_imports_no_scipy():
    """The entry points load without SciPy: importing it costs more
    than the rest of the library, and only Beta/Gamma quantiles and
    the scipy optimizer bridge use it."""
    assert _modules_after_import(
        "repro.engine, repro.serve, repro.cli, repro.uq, "
        "repro.elbtunnel, repro.core", "scipy") == []


def test_startup_imports_no_uq():
    """``repro.core.uncertainty`` runs on :mod:`repro.uq` but imports it
    inside its functions: the entry points start without it."""
    assert _modules_after_import(
        "repro.core, repro.engine, repro.serve, repro.cli",
        "repro.uq") == []
