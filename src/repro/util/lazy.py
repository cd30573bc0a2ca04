"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports every public name eagerly puts all
of its submodules on the import path of any one of them: importing the
reduction workflow would also load synthesis, peak finding, rendering
and the benchmark harness.  :func:`lazy_exports` keeps the re-exports
but defers each import to the first attribute access::

    _EXPORTS = {"HKLGrid": "repro.core.grid", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` / ``__dir__`` for a name -> module table.

    ``exports`` maps each public name to the module that defines it.
    The first access imports that module, and the value is stored in
    the package namespace so later lookups bypass the hook.  Any other
    name raises :class:`AttributeError`, which also lets ``from package
    import submodule`` fall through to the ordinary submodule import.
    """

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
