"""Lazy package exports (PEP 562).

Each package ``__init__`` lists its public names in one table, name →
defining module, and passes it to :func:`export_lazily`, which returns
``__all__`` (the table's names).  A name's module is imported the first
time the name is read, ``from repro import Network`` included, so
importing a package loads only the modules its caller uses.  A submodule
read as an attribute (``repro.experiments.runner`` after ``import
repro``) is imported on that read.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from types import ModuleType

__all__ = ["export_lazily"]


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on its package.  An export named
        # after its own module (``repro.experiments.sweep``) stays the
        # exported object, as it was when packages imported eagerly.
        if isinstance(value, ModuleType) and self._exports.get(name) == value.__name__:
            value = getattr(value, name)
        super().__setattr__(name, value)


def export_lazily(package: str, exports: dict[str, str]) -> list[str]:
    """Give ``package`` a module ``__getattr__`` that imports each name
    in ``exports`` from its module on first read; return ``__all__``."""
    module = sys.modules[package]
    namespace = vars(module)

    def __getattr__(name: str):
        source = exports.get(name)
        if source is None:
            # A submodule read as an attribute before anything imported it.
            submodule = f"{package}.{name}"
            if not name.startswith("_") and importlib.util.find_spec(submodule):
                return importlib.import_module(submodule)
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    namespace.update(__getattr__=__getattr__, __dir__=__dir__, _exports=exports)
    module.__class__ = _Package
    return list(exports)
