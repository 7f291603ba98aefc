"""Simulation-engine registry.

Mirrors the protocol registry (:mod:`repro.protocols.registry`): engines are
frozen factory descriptions registered under a string kind, and the scenario
layer dispatches on :attr:`ScenarioSpec.engine.kind` through
:func:`get_engine`.  An engine's ``build`` callable materialises a spec into
a ready-to-run object with the same duck-typed surface as
:class:`~repro.scenarios.build.BuiltScenario` — ``.run()``, ``.collect()``
and ``.sim`` — so callers (the run/sweep path, the ledger, tests)
never care which backend executes a scenario.

This module stays import-light on purpose, as does everything a spec
consults while it validates (the protocol and channel registries, the
package ``__init__`` files, whose exports resolve on first use through
:mod:`repro._lazy`): constructing a spec, ``repro show`` and ``repro list``
must not drag numpy, the simulator or the sweep pool along.  Engine and
protocol modules import those inside ``build``; the run path
(:mod:`repro.scenarios.build`) imports them at top, so a pool parent has
them before its workers fork.  An engine module nobody runs need not be
imported at all: :func:`register_lazy_engine` names its kind up front and
:func:`get_engine` imports the module on first use.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


class EngineUnavailableError(RuntimeError):
    """An engine was requested whose runtime dependencies are missing.

    Raised at *build* time, not at spec construction: a spec naming the
    cohort engine must stay constructable and serialisable on machines
    without numpy (e.g. to prepare a sweep shipped elsewhere).
    """


@dataclass(frozen=True)
class EngineFactory:
    """A registered simulation engine.

    Parameters
    ----------
    kind:
        Registry key, referenced by ``ScenarioSpec.engine.kind``.
    description:
        One-line human description (shown by diagnostics and docs).
    build:
        ``build(spec, seed, recorder)`` returning a BuiltScenario-like
        object (``.run()``, ``.collect()``, ``.sim``).  Must raise
        :class:`EngineUnavailableError` when a missing optional dependency
        makes the engine unusable.
    available:
        Optional zero-argument probe returning ``None`` when the engine can
        run here, or a human-readable reason string when it cannot.
    """

    kind: str
    description: str
    build: Callable[..., Any]
    available: Optional[Callable[[], Optional[str]]] = None

    def check_available(self) -> None:
        """Raise :class:`EngineUnavailableError` if the engine cannot run."""
        reason = self.available() if self.available is not None else None
        if reason is not None:
            raise EngineUnavailableError(
                f"engine {self.kind!r} is unavailable: {reason}"
            )


_REGISTRY: Dict[str, EngineFactory] = {}
#: Kinds whose module registers them when imported, not imported yet.
_LAZY: Dict[str, str] = {}


def register_engine(factory: EngineFactory) -> EngineFactory:
    """Register an engine; duplicate kinds are an error."""
    lazy_module = _LAZY.get(factory.kind)
    if factory.kind in _REGISTRY or lazy_module not in (None, factory.build.__module__):
        raise ValueError(f"engine {factory.kind!r} already registered")
    _LAZY.pop(factory.kind, None)
    _REGISTRY[factory.kind] = factory
    return factory


def register_lazy_engine(kind: str, module: str) -> None:
    """Register ``kind`` as the engine that importing ``module`` registers."""
    if kind in _REGISTRY or kind in _LAZY:
        raise ValueError(f"engine {kind!r} already registered")
    _LAZY[kind] = module


def get_engine(kind: str) -> EngineFactory:
    module = _LAZY.get(kind)
    if module is not None:
        importlib.import_module(module)
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown engine {kind!r}; registered: {', '.join(engine_kinds())}"
        ) from None


def engine_kinds() -> List[str]:
    return sorted({*_REGISTRY, *_LAZY})


def engines() -> List[EngineFactory]:
    return [get_engine(kind) for kind in engine_kinds()]
