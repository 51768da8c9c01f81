"""Lazy package exports (PEP 562): a package ``__init__`` lists which
submodule defines each public name and imports none of them; a name is
imported on first access and cached in the package namespace, so a fresh
process pays only for the modules it uses (``docs/PERFORMANCE.md``, "Cold
start").  Usage, as the whole body of an ``__init__``::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
        "submodule": ("PublicName", "other_name"),
    })
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, Tuple


def lazy_exports(package: str, namespace: dict,
                 exports: Dict[str, Tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for *package*, all three derived
    from *exports* (submodule -> the public names it defines)."""
    home = {name: submodule
            for submodule, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module("." + home[name], package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
