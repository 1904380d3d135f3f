"""Package ``__init__``\\ s as export tables (PEP 562).

A re-exporting package lists ``{submodule: names}`` once; nothing under
it is imported until one of those names is read, so a command pays only
for the layers it runs (``import repro`` loads no NumPy, a cached
``repro sweep`` no simulator).  The rule this supports: *package
``__init__``\\ s are export tables; leaf modules import leaves.*
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s namespace.

    ``table`` maps a submodule (relative to ``package``) to the names
    the package re-exports from it.  A resolved name is stored in the
    package namespace, so later reads are plain attribute lookups; two
    threads racing on a first read both store the same object, and the
    only lock involved is importlib's own per-module one.
    """
    origin = {name: sub for sub, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        try:
            submodule = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__, sorted(origin)
