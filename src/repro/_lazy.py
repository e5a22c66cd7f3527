"""Imports deferred to first use: package re-exports and named entry points.

A package ``__init__`` re-exports its submodules' public names without
importing those submodules until a name is first read::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        "tabu": ("TabuParameters", "tabu_treewidth"),
    })

The first read of ``package.tabu_treewidth`` imports ``package.tabu``
and binds the name in the package namespace, so later reads find it
there without calling ``__getattr__``. ``from package import tabu_treewidth`` goes the same
way. A name that is also a submodule's name must be imported eagerly
instead: once that submodule is imported, the import system sets the
package attribute to the module.

:func:`resolve` imports what a ``"module:attribute"`` path names; tables
such as :data:`repro.core.solvers.SOLVERS` name their code that way.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from importlib import import_module


def lazy_exports(
    package: str, namespace: dict, table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` whose ``namespace`` is its
    ``globals()``; ``table`` maps a submodule to the names it exports."""
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__


def resolve(path: str):
    """The attribute a ``"module:attribute"`` path names, importing the
    module if it is not loaded yet."""
    module, _, name = path.partition(":")
    return getattr(import_module(module), name)
