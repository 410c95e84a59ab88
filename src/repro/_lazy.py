"""Lazy package exports: a package imports only what is looked up.

Every ``repro`` package ``__init__`` declares its public names in one
table, ``{defining module: (names, ...)}``, and hands it to
:func:`export`, which returns the package's ``__all__``.  The package
then imports none of its modules up front: a name's defining module is
imported the first time the name is looked up, and the value is cached
on the package.  A name that is not exported but is a submodule
(``repro.sim`` on ``repro``) is imported the same way.  So an entry
point loads only the layers it runs, and the layer diagram of DESIGN.md
§6 holds at run time; ``tools/check_layers.py`` counts each table entry
as a module-level import of its package.

The hooks live on the package's module class rather than as PEP 562
module functions because one of them, ``__setattr__``, has no module
form.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Dict, List, Sequence


class LazyPackage(types.ModuleType):
    """A package whose exports import on first access."""

    #: Exported name -> its defining module.
    _export_homes: Dict[str, str]

    def __getattr__(self, name: str):
        home = self._export_homes.get(name)
        if home is not None:
            value = getattr(importlib.import_module(home), name)
            self.__dict__[name] = value
            return value
        if not name.startswith("__"):
            submodule = f"{self.__name__}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(
            f"module {self.__name__!r} has no attribute {name!r}")

    def __dir__(self) -> List[str]:
        return sorted(set(self.__dict__) | set(self._export_homes))

    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on its package.  An export that
        # shares the submodule's name (``repro.cli.main`` the function,
        # ``repro.core.policy`` the decorator) keeps the name.
        if (isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"
                and name in self._export_homes):
            return
        super().__setattr__(name, value)


def export(package: str, table: Dict[str, Sequence[str]]) -> List[str]:
    """Make ``package`` resolve every name in ``table`` from its defining
    module on first access; returns the sorted names for ``__all__``."""
    module = sys.modules[package]
    module._export_homes = {
        name: home for home, names in table.items() for name in names
    }
    module.__class__ = LazyPackage
    return sorted(module._export_homes)
