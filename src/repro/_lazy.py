"""Lazy package exports: a package ``__init__`` names its re-exports' homes.

Every package ``__init__`` re-exports its public names through
:func:`lazy_exports` instead of importing them, so ``import repro`` (or
``from repro.scheduler.simulator import Simulator``) loads only the
modules a caller uses: the process pool, the TCP server, the campaign
journal and the GA search load when something asks for them.  A name's
home module is imported on its first access (PEP 562 module
``__getattr__``), and the value is then bound in the package namespace,
so later lookups are plain attribute reads.  ``__all__`` stays the
package's explicit public list; ``from package import *`` and
``from package import Name`` resolve through the same hook.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, homes: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``homes`` maps each home module's full name to the names ``package``
    re-exports from it.  An unknown name raises ``AttributeError``, as a
    plain module would, so ``hasattr`` and ``from package import
    submodule`` keep working.
    """
    home_of = {name: module for module, names in homes.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = home_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home_of.keys())

    return __getattr__, __dir__
