"""Pluggable simulation engines.

A scenario spec names its engine in ``ScenarioSpec.engine.kind``; the
run/sweep path resolves it through :func:`get_engine` and calls the
factory's ``build``.  Built-in engines:

``exact``
    The reference per-packet discrete-event engine — every receiver is a
    full agent (:mod:`repro.engines.exact`).
``cohort``
    Vectorised aggregate-receiver engine for very large TFMCC populations —
    exact CLR/tracer agents plus numpy cohorts stepped once per feedback
    round (:mod:`repro.engines.cohort`; needs the ``repro[cohort]`` extra).
"""

from repro.engines.registry import (
    EngineFactory,
    EngineUnavailableError,
    engine_kinds,
    engines,
    get_engine,
    register_engine,
    register_lazy_engine,
)

# Importing the built-in engine modules registers them (same pattern as
# repro.protocols); numpy and the scenario builder load lazily inside
# build().  The cohort module is only imported by the first
# get_engine("cohort"), so exact-only processes never compile it.
from repro.engines import exact as _exact  # noqa: E402,F401

register_lazy_engine("cohort", "repro.engines.cohort")

__all__ = [
    "EngineFactory",
    "EngineUnavailableError",
    "engine_kinds",
    "engines",
    "get_engine",
    "register_engine",
]
