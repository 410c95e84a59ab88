"""Lazy package exports: an entry point imports only the layers it runs.

Every package ``__init__`` exports its public names through one table
(``repro._lazy.export``), so importing a package imports none of its
modules.  The import budgets below are measured in fresh interpreters,
because this process has long since imported everything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The imports perfbench's E5 cell set-up makes.
E5_SETUP = (
    "from repro.geometry.conflicts import ConflictTable\n"
    "from repro.geometry.layout import IntersectionGeometry\n"
    "from repro.traffic.generator import PoissonTraffic\n"
)


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; returns the ``repro``
    modules it loaded and the lines it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    probe = (
        code
        + "\nimport sys, json\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'repro')))\n"
    )
    process = subprocess.run(
        [sys.executable, "-c", probe], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert process.returncode == 0, process.stderr
    *printed, modules = process.stdout.splitlines()
    return {"modules": json.loads(modules), "printed": printed}


def _packages():
    return [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]


class TestImportBudget:
    def test_import_repro_loads_the_root_only(self):
        assert _fresh("import repro")["modules"] == ["repro", "repro._lazy"]

    def test_import_des_loads_des_only(self):
        assert _fresh("import repro.des")["modules"] == [
            "repro", "repro._lazy", "repro.des",
        ]

    def test_e5_setup_loads_geometry_and_traffic_only(self):
        assert _fresh(E5_SETUP)["modules"] == [
            "repro", "repro._lazy",
            "repro.geometry", "repro.geometry.conflicts",
            "repro.geometry.layout",
            "repro.traffic", "repro.traffic.generator",
            "repro.vehicle", "repro.vehicle.spec",
        ]


def test_resolution_does_not_depend_on_what_was_imported_first():
    """In a fresh interpreter: the root imports a subpackage on first
    access, the registry lists the built-ins without anyone importing
    ``repro.core.policy``, and the three exports that share a
    submodule's name stay the functions after that submodule was
    imported first."""
    out = _fresh(
        "import repro\n"
        "print(repro.analysis.__name__)\n"
        "from repro.core.registry import available_policies\n"
        "print(','.join(available_policies()))\n"
        "import repro.cli.main, repro.core.policy, repro.scenarios.fuzz\n"
        "from repro.cli import main\n"
        "from repro.core import policy\n"
        "from repro.scenarios import fuzz\n"
        "print(','.join(type(f).__name__ for f in (main, policy, fuzz)))\n"
    )
    assert out["printed"] == [
        "repro.analysis",
        "vt-im,crossroads,aim",
        "function,function,function",
    ]


def test_every_export_is_its_defining_modules_object():
    for package in _packages():
        homes = package._export_homes
        expected = sorted(homes) + (["__version__"] if package is repro else [])
        assert package.__all__ == expected
        assert set(homes) <= set(dir(package))
        for name, home in homes.items():
            value = getattr(package, name)
            assert value is getattr(importlib.import_module(home), name), (
                package.__name__, name)
            assert getattr(value, "__module__", home) in (home, None), (
                package.__name__, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        repro.no_such_name
    assert not hasattr(repro.sim, "no_such_module")
