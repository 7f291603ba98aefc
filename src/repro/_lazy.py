"""Lazy package exports (PEP 562) for ``repro`` and its larger packages.

A package ``__init__`` names its public API in one table, module -> names,
and imports a module only when one of its names is first looked up.  So
``import repro`` or ``from repro.scenarios import get_scenario`` costs the
modules that name needs, not the whole package: a one-flow run never loads
the sweep pool, ``multiprocessing`` or the record aggregator.

Modules still import at top everything they call on every use; only the
package boundary is lazy.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, MutableMapping, Sequence, Tuple


def lazy_exports(
    package: str, namespace: MutableMapping[str, Any], table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` from ``table``.

    ``table`` maps a module path to the names the package re-exports from
    it.  A name resolved once is stored in ``namespace`` (the package's
    globals), so later lookups are plain attribute reads.
    """
    home: Dict[str, str] = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *home})

    return list(home), __getattr__, __dir__
