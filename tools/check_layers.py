#!/usr/bin/env python
"""Import-layering lint for the repro package.

Enforces the layered architecture documented in DESIGN.md: every
package is assigned a level, and a module may only *module-level*
import packages at a strictly lower level.  Each entry of a package's
lazy export table (``export(__name__, {module: names})``, see
``repro._lazy``) counts as a module-level import of that package: the
package imports the entry's module when one of its names is looked up.
Function-level (lazy) imports are the sanctioned escape hatch for the
two deliberate back-edges and are therefore not flagged:

* ``repro.vehicle.agent.make_vehicle`` resolves vehicle classes
  through ``repro.core.registry`` (vehicle -> core), and
* ``repro.core.registry`` lazily imports ``repro.core.policy`` to
  self-register the built-ins.

Run from the repository root::

    python tools/check_layers.py            # exit 1 on any violation
    python tools/check_layers.py --graph    # print the observed graph

No third-party dependencies; pure ``ast``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Package (or top-level module) -> architectural level.  A package may
#: only module-level import packages with a strictly smaller level.
LAYERS: Dict[str, int] = {
    # Level -1 — package plumbing: repro._lazy, the lazy-export helper
    # every package __init__ imports; it imports nothing from the
    # package.
    "_lazy": -1,
    # Level 0 — substrate: the DES kernel and the observability layer
    # (obs.events event log + tracer, obs.metrics streaming time-series
    # registry, obs.prom exporters).  des reaches obs via the
    # duck-typed ``env.obs`` attribute, never an import, so no
    # same-level edge exists; obs imports nothing from the package.
    "des": 0,
    "obs": 0,
    # Level 1 — domain primitives: pure models with no protocol logic.
    "geometry": 1,
    "kinematics": 1,
    "timesync": 1,
    "sensors": 1,
    "network": 1,
    "faults": 1,
    # Level 2 — protocol machines (composable, endpoint-agnostic).
    "protocol": 2,
    # Level 3 — vehicle agents (compose protocol machines on a plant).
    "vehicle": 3,
    # Level 4 — traffic generation (spawns vehicles).
    "traffic": 4,
    # Level 5 — intersection managers + the policy registry.
    "core": 5,
    # Level 6 — the simulation world and experiment engines.
    "sim": 6,
    # Level 7 — layers over complete simulations: corridor networks of
    # intersections (grid), analysis/reporting over results, and the
    # declarative scenario DSL + safety oracle + fuzzer (scenarios).
    # All three are siblings; none module-level imports another
    # (scenarios reaches grid only through a lazy compile hook).
    "grid": 7,
    "analysis": 7,
    "scenarios": 7,
    # Level 8 — execution facades: the CLI, and the IM-as-a-service
    # asyncio server/client/load-generator stack (serve hosts the IM
    # core over real links; the CLI reaches it lazily inside command
    # handlers, so no same-level edge exists).
    "cli": 8,
    "serve": 8,
    # The repro/__init__.py + __main__.py facade exports the public API.
    "<top>": 9,
}

#: Seam rules, finer-grained than LAYERS: for files whose full module
#: name matches a key (the module itself or anything beneath it), the
#: listed targets may not be imported at *any* level — lazy
#: function-level imports are banned too, because these guard an
#: abstraction seam, not import-time load order.  A target bans the
#: exact module/symbol and everything beneath it.
FORBIDDEN: Dict[str, Tuple[str, ...]] = {
    # The node-runtime engine is the shared substrate under both the
    # single-intersection World and the corridor GridWorld: it must
    # never know about the grid composition or the scenario DSL built
    # on top of it.
    "repro.sim.engine": ("repro.grid", "repro.scenarios"),
    # Simulation engines consume the wireless medium strictly through
    # the Transport seam (repro.network.transport.default_transport);
    # naming the in-process Channel — by module or by the re-exported
    # class — would pin the implementation the seam exists to hide.
    # repro.serve joins the ban list: worlds reach the socket fabric
    # only through the transport_factory injection seam, never by name.
    "repro.sim": (
        "repro.network.channel", "repro.network.Channel", "repro.serve",
    ),
    "repro.grid": (
        "repro.network.channel", "repro.network.Channel", "repro.serve",
    ),
}

ROOT_PACKAGE = "repro"


def _module_name(path: Path, src_root: Path) -> str:
    """Dotted module name of a source file (packages drop __init__)."""
    parts = list(path.relative_to(src_root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _export_table(tree: ast.Module) -> Iterator[Tuple[int, Optional[str]]]:
    """``(line, module)`` of each entry of a package's lazy export table,
    the dict literal a module-level statement passes to
    ``export(__name__, {...})``; ``module`` is None for an entry that is
    not a string literal (the lint could not follow it)."""
    for statement in tree.body:
        if not isinstance(statement, (ast.Assign, ast.Expr)):
            continue
        for node in ast.walk(statement):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "export"
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Dict)
            ):
                for key in node.args[1].keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        yield key.lineno, key.value
                    else:  # a computed or ``**`` entry
                        yield node.lineno, None


def _all_import_targets(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """Every imported dotted path in the file, at any nesting depth,
    and every module of its export table.

    ``from M import N`` yields both ``M`` and ``M.N`` so seam rules can
    ban a re-exported symbol as well as its home module.
    """
    for lineno, module in _export_table(tree):
        if module is not None:
            yield lineno, module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level != 0 or node.module is None:
                continue
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def _forbidden_violations(
    module: str, tree: ast.Module, path: Path
) -> Iterator[str]:
    rules = [
        banned
        for scope, banned in FORBIDDEN.items()
        if _matches(module, scope)
    ]
    if not rules:
        return
    for lineno, target in _all_import_targets(tree):
        for banned in rules:
            for entry in banned:
                if _matches(target, entry):
                    yield (
                        f"{path}:{lineno}: seam violation — {module} "
                        f"imports {target} (forbidden: {entry}); use the "
                        f"sanctioned abstraction instead (see "
                        f"tools/check_layers.py FORBIDDEN)"
                    )


def _package_of(path: Path, src_root: Path) -> str:
    parts = path.relative_to(src_root / ROOT_PACKAGE).parts
    if len(parts) > 1:
        return parts[0]
    # repro/__init__.py and __main__.py are the facade; any other
    # top-level module (repro/_lazy.py) is a layer of its own.
    name = Path(parts[0]).stem
    return "<top>" if name in ("__init__", "__main__") else name


def _module_level_imports(
    tree: ast.Module,
) -> Iterator[Tuple[int, Optional[str]]]:
    """``(line, module)`` of each import the module makes at import
    time: top-level import statements, including those inside
    module-level ``if``/``try`` blocks, and its export table's entries.
    Relative imports stay inside a package and are skipped."""
    yield from _export_table(tree)
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None:
                yield node.lineno, node.module
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(getattr(node, "body", []))
            stack.extend(getattr(node, "orelse", []))
            stack.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)


def _package_edges(
    package: str, tree: ast.Module
) -> Iterator[Tuple[int, Optional[str]]]:
    """``(line, package)`` of each module-level import of another
    ``repro`` package; None for an export-table entry the lint cannot
    read."""
    for lineno, module in _module_level_imports(tree):
        if module is None:
            yield lineno, None
            continue
        if module == ROOT_PACKAGE:
            target = "<top>"
        elif module.startswith(ROOT_PACKAGE + "."):
            target = module.split(".")[1]
        else:
            continue
        if target != package:  # intra-package imports are free
            yield lineno, target


def _layer_violations(
    package: str, tree: ast.Module, path: Path
) -> Iterator[str]:
    level = LAYERS[package]
    for lineno, target in _package_edges(package, tree):
        if target is None:
            yield (
                f"{path}:{lineno}: export table entry is not a string "
                f"literal, so the lint cannot check it"
            )
        elif target not in LAYERS:
            yield f"{path}:{lineno}: imports unknown package repro.{target}"
        elif LAYERS[target] >= level:
            yield (
                f"{path}:{lineno}: layer violation — {package} (level "
                f"{level}) module-level imports or exports repro.{target} "
                f"(level {LAYERS[target]}); move the import into the "
                f"function that needs it or fix the layering"
            )


def check(src_root: Path) -> Tuple[List[str], Dict[str, Set[str]]]:
    """Return (violations, observed package graph)."""
    violations: List[str] = []
    graph: Dict[str, Set[str]] = defaultdict(set)
    for path in sorted((src_root / ROOT_PACKAGE).rglob("*.py")):
        package = _package_of(path, src_root)
        if package not in LAYERS:
            violations.append(
                f"{path}: package {package!r} has no level in "
                f"tools/check_layers.py LAYERS — assign one"
            )
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        violations.extend(
            _forbidden_violations(_module_name(path, src_root), tree, path)
        )
        violations.extend(_layer_violations(package, tree, path))
        graph[package].update(
            target for _, target in _package_edges(package, tree) if target
        )
    return violations, graph


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="source root (default: src)")
    parser.add_argument("--graph", action="store_true",
                        help="print the observed package import graph")
    args = parser.parse_args(argv)
    src_root = Path(args.src)
    if not (src_root / ROOT_PACKAGE).is_dir():
        print(f"error: {src_root / ROOT_PACKAGE} is not a directory",
              file=sys.stderr)
        return 2
    violations, graph = check(src_root)
    if args.graph:
        for package in sorted(graph, key=lambda p: (LAYERS.get(p, 99), p)):
            targets = ", ".join(sorted(graph[package]))
            print(f"  {package:10s} (L{LAYERS.get(package, '?')}) -> {targets}")
    if violations:
        print(f"{len(violations)} layer violation(s):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    n_files = sum(1 for _ in (src_root / ROOT_PACKAGE).rglob("*.py"))
    print(f"layering OK: {n_files} files, {len(LAYERS)} layers, "
          f"0 violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
