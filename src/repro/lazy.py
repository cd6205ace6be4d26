"""Package exports resolved on first access (PEP 562).

A package ``__init__`` names its public exports and the submodule that
defines each; :func:`lazy_exports` returns the package's ``__all__``,
``__getattr__`` and ``__dir__``.  ``import repro`` therefore loads no
subpackage, and a process imports only the modules whose names it
reads: a pool worker never imports the optimizer, the sweep engine or
the CLI because some ``__init__`` on the way re-exported them.  Each
package keeps the same imports under ``if TYPE_CHECKING:`` for the
type checker.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, modules: Mapping[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``modules`` maps a submodule, relative to ``package``, to the names
    it defines.  Reading one of them imports that submodule and binds
    the name in the package, so the lookup runs once per name.
    """
    owner: Dict[str, str] = {name: f"{package}.{module}"
                             for module, names in modules.items()
                             for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return list(owner), __getattr__, __dir__
