"""Simulation-engine registry.

Mirrors the protocol registry (:mod:`repro.protocols.registry`): engines are
frozen factory descriptions registered under a string kind, and the scenario
layer dispatches on :attr:`ScenarioSpec.engine.kind` through
:func:`get_engine`.  An engine's ``build`` callable materialises a spec into
a ready-to-run object with the same duck-typed surface as
:class:`~repro.scenarios.build.BuiltScenario` — ``.run()``, ``.collect()``
and ``.sim`` — so callers (the run/sweep path, the ledger, tests)
never care which backend executes a scenario.

This module stays import-light on purpose: it is pulled in by
``EngineSpec`` validation, which happens on every spec construction, so it
must not drag numpy or the builder stack along.  Engine modules import
those lazily inside ``build``.
"""

from __future__ import annotations

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


def register_engine(factory: EngineFactory) -> EngineFactory:
    """Register an engine; duplicate kinds are an error."""
    if factory.kind in _REGISTRY:
        raise ValueError(f"engine {factory.kind!r} already registered")
    _REGISTRY[factory.kind] = factory
    return factory


def get_engine(kind: str) -> EngineFactory:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown engine {kind!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def engine_kinds() -> List[str]:
    return sorted(_REGISTRY)


def engines() -> List[EngineFactory]:
    return [_REGISTRY[kind] for kind in sorted(_REGISTRY)]
