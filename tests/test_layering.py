"""The DESIGN.md layer rules hold (tools/check_layers.py is clean).

Runs the same AST lint CI runs, so a layer violation fails tier-1
locally instead of surfacing only on push.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "check_layers", REPO_ROOT / "tools" / "check_layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_layer_violations():
    lint = _load_lint()
    violations, graph = lint.check(REPO_ROOT / "src")
    assert violations == []
    # Spot-check the spine of the architecture is actually observed.
    assert "protocol" in graph.get("vehicle", set())
    assert "protocol" in graph.get("core", set())
    assert "core" in graph.get("sim", set())
    assert "sim" in graph.get("grid", set())
    # The CLI resolves commands lazily, so the grid edge shows on the
    # facade (module-level) rather than on cli.
    assert "grid" in graph.get("<top>", set())
    # Siblings at level 7 stay independent.
    assert "analysis" not in graph.get("grid", set())
    assert "grid" not in graph.get("analysis", set())


def test_seam_rules_catch_forbidden_imports():
    """The FORBIDDEN seam lint bites: engine->grid/scenarios and any
    sim/grid import of the in-process Channel (module-level, lazy, or
    through the repro.network re-export) are flagged."""
    import ast
    from pathlib import Path

    lint = _load_lint()
    fake = Path("fake.py")

    def violations(module, source):
        return list(lint._forbidden_violations(module, ast.parse(source), fake))

    # The seam rules hold on the real tree (check() was clean above),
    # and each banned edge is actually detected:
    assert violations("repro.sim.engine", "import repro.grid")
    assert violations("repro.sim.engine",
                      "def f():\n    from repro.scenarios import install")
    assert violations("repro.sim.world",
                      "from repro.network.channel import Channel")
    assert violations("repro.grid.world",
                      "def f():\n    from repro.network import Channel")
    # The sanctioned path through the Transport seam stays open.
    assert not violations(
        "repro.sim.world",
        "from repro.network.transport import Transport, default_transport",
    )
    assert not violations(
        "repro.grid.world", "from repro.network import default_transport"
    )


def test_engine_and_transport_rules_registered():
    """The tentpole's seam rules stay pinned in the lint config."""
    lint = _load_lint()
    assert "repro.grid" in lint.FORBIDDEN["repro.sim.engine"]
    assert "repro.scenarios" in lint.FORBIDDEN["repro.sim.engine"]
    for scope in ("repro.sim", "repro.grid"):
        assert "repro.network.channel" in lint.FORBIDDEN[scope]


def test_every_package_has_a_level():
    lint = _load_lint()
    packages = {
        p.name
        for p in (REPO_ROOT / "src" / "repro").iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    }
    assert packages <= set(lint.LAYERS)


def test_export_tables_count_as_module_level_imports():
    """A package's lazy export table is read as module-level imports of
    that package: an entry that points up a layer is flagged, one that
    points down is an edge of the graph, and one the lint cannot read
    is flagged too."""
    import ast

    lint = _load_lint()
    fake = Path("fake/__init__.py")

    def table(entries):
        return ast.parse(
            "from repro._lazy import export\n"
            f"__all__ = export(__name__, {{{entries}}})\n"
        )

    up = table('"repro.sim.world": ("World",)')
    assert list(lint._layer_violations("des", up, fake))
    down = table('"repro.des.core": ("Environment",)')
    assert not list(lint._layer_violations("sim", down, fake))
    assert {t for _, t in lint._package_edges("sim", down)} == {"_lazy", "des"}
    assert list(lint._layer_violations("sim", table("**TABLE"), fake))
