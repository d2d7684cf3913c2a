"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package that re-exports its layers' public names would otherwise import
every layer on first import, so ``repro stream`` would pay for the ML stack
it never runs.  :func:`lazy_exports` keeps the names importable from the
package while loading each submodule only when one of its names is read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]) -> Tuple[List[str], Callable]:
    """``(__all__, __getattr__)`` for *package*, re-exporting *exports*.

    *exports* maps a submodule (relative to *package*) to the public names
    it provides.  The first read of a name imports its submodule and caches
    the value in the package namespace, so later reads are plain lookups.
    """

    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f"{package}.{module}"), name)
        return value

    return sorted(origin), __getattr__
