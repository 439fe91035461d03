"""PEP 562 re-exports for the package ``__init__`` modules.

A package lists which module defines each of its public names; that
module is imported the first time the name is read (``pkg.name``,
``from pkg import name``, ``from pkg import *``).  Importing a package
therefore loads none of its submodules, and a process imports only what
it executes -- start-up is paid on every ``ert-repro`` invocation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` / ``__dir__`` for the package whose
    ``globals()`` is ``namespace``.  ``exports`` maps a defining module
    to the names taken from it; a submodule exported under its own name
    (``repro.telemetry`` from ``repro``) is listed against itself."""
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # The builtin, not ``importlib.import_module``: only it is timed
        # by ``-X importtime``, the tool start-up is watched with.  A
        # non-empty ``fromlist`` makes it return the leaf module.
        module = __import__(where[name], None, None, ["__name__"])
        value = (module if where[name] == f"{package}.{name}"
                 else getattr(module, name))
        namespace[name] = value  # later reads never come back here
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
