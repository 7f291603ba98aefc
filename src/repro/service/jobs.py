"""Service job model and the crash-safe job journal.

A *job* is one client submission: a single run (``grid`` absent,
``replications == 1``) or a sweep grid.  Either way it expands — through
the same :class:`~repro.scenarios.sweep.SweepRunner` machinery the batch
CLI uses — into an ordered list of :class:`~repro.scenarios.registry.SweepRun`
units, each the pure function ``(spec, seed)`` identified by its spec
fingerprint.  The scheduler executes units; the job aggregates their
completion into a state machine::

    queued -> running -> done | failed | cancelled

Every transition appends one line to the :class:`JobJournal`, a flushed
append-only JSONL file next to the service's ResultStore.  The journal is
the restart story: replaying it reconstructs every job's payload and the
set of units already committed, so a daemon that was SIGKILLed resumes its
queued and running jobs exactly where they stopped (completed units are
answered from the result cache without simulating).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.scenarios.registry import SweepRun
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import open_log
from repro.scenarios.sweep import SweepRunner

#: Job lifecycle states; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset(("done", "failed", "cancelled"))


def expand_payload(payload: Mapping[str, Any]) -> List[SweepRun]:
    """Expand a submission payload into its ordered unit list.

    The payload mirrors the batch CLI's vocabulary::

        {"scenario": "fairness",          # registry name, or
         "spec": {...},                   # a concrete ScenarioSpec dict
         "seed": 1,                       # base seed (unit i uses seed+i)
         "params": {"num_tcp": 2,         # factory params and dotted
                    "flows.0.params.max_rtt": 0.3},   # override paths
         "grid": {"num_tcp": [2, 4]},     # optional sweep axes
         "replications": 1}

    Validation is eager and raises ``ValueError``/``KeyError`` on malformed
    payloads (unknown scenario, bad params, missing scenario/spec), which
    the HTTP layer maps to a 400 response.  Expansion is deterministic, so
    replaying a journal reproduces the same units and fingerprints.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("submission payload must be a JSON object")
    unknown = set(payload) - {
        "scenario", "spec", "seed", "params", "grid", "replications"
    }
    if unknown:
        raise ValueError(f"unknown submission fields: {sorted(unknown)}")
    scenario = payload.get("scenario")
    spec_dict = payload.get("spec")
    if (scenario is None) == (spec_dict is None):
        raise ValueError("exactly one of 'scenario' or 'spec' is required")
    seed = payload.get("seed", 1)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"'seed' must be an integer, got {seed!r}")
    replications = payload.get("replications", 1)
    if not isinstance(replications, int) or replications < 1:
        raise ValueError(f"'replications' must be a positive integer, got {replications!r}")
    params = payload.get("params") or {}
    grid = payload.get("grid") or {}
    if not isinstance(params, Mapping):
        raise ValueError("'params' must be an object")
    if not isinstance(grid, Mapping) or not all(
        isinstance(v, (list, tuple)) for v in grid.values()
    ):
        raise ValueError("'grid' must map parameter names to value lists")
    target: Any = scenario
    if spec_dict is not None:
        target = ScenarioSpec.from_dict(spec_dict)  # validates the spec
    runner = SweepRunner(
        target,
        grid=grid,
        params=params,
        replications=replications,
        base_seed=seed,
    )
    return runner.runs()


@dataclass
class Job:
    """One submission and its aggregate progress (thread-safe via the owner)."""

    id: str
    payload: Dict[str, Any]
    units: List[SweepRun]
    fingerprints: List[str]
    state: str = "queued"
    created: float = field(default_factory=time.time)
    finished: Optional[float] = None
    done_units: Set[int] = field(default_factory=set)
    failed_units: Dict[int, str] = field(default_factory=dict)
    #: Per-unit record source: "executed", "cached", "coalesced".
    sources: Dict[int, str] = field(default_factory=dict)
    #: Ordered event log for SSE replay; guarded by :attr:`cond`.
    events: List[Dict[str, Any]] = field(default_factory=list)
    cond: threading.Condition = field(default_factory=threading.Condition)

    @property
    def total(self) -> int:
        return len(self.units)

    @property
    def completed(self) -> int:
        return len(self.done_units) + len(self.failed_units)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def emit(self, event: str, **data: Any) -> Dict[str, Any]:
        """Append one SSE event (sequence-numbered) and wake watchers."""
        with self.cond:
            entry = {"seq": len(self.events), "event": event, **data}
            self.events.append(entry)
            self.cond.notify_all()
        return entry

    def describe(self) -> Dict[str, Any]:
        """JSON status view served by ``GET /v1/jobs/<id>``."""
        return {
            "id": self.id,
            "state": self.state,
            "scenario": self.payload.get("scenario")
            or (self.payload.get("spec") or {}).get("name"),
            "seed": self.payload.get("seed", 1),
            "units": self.total,
            "completed": self.completed,
            "failed": len(self.failed_units),
            "sources": {
                source: sum(1 for s in self.sources.values() if s == source)
                for source in ("executed", "cached", "coalesced")
            },
            "fingerprints": self.fingerprints,
            "created": round(self.created, 3),
            "finished": round(self.finished, 3) if self.finished else None,
        }


class JobJournal:
    """Flushed append-only JSONL journal of job submissions and transitions.

    Entry shapes (one JSON object per line, ``ts`` added automatically)::

        {"op": "submit", "id": ..., "payload": {...}}
        {"op": "unit", "id": ..., "unit": 3, "status": "done"|"failed",
         "fingerprint": ..., "source": ..., "error": ...}
        {"op": "state", "id": ..., "state": "running"|"done"|...}
        {"op": "drain"}

    Lines are flushed as written, so a SIGKILL loses at most the line in
    flight; :meth:`replay` tolerates a truncated tail, and reopening the
    journal cuts it so later entries are not glued onto it.  :meth:`compact`
    rewrites the journal to its minimal equivalent form (one submit + the
    surviving unit/state entries per job) — the graceful-shutdown
    checkpoint.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open_log(path)
        self._lock = threading.Lock()

    def append(self, entry: Mapping[str, Any]) -> None:
        line = json.dumps(
            {"ts": round(time.time(), 3), **entry},
            sort_keys=True,
            separators=(",", ":"),
        )
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - close failures are best-effort
                pass

    @staticmethod
    def replay(path: str) -> List[Dict[str, Any]]:
        """All parseable journal entries in order (truncated tail skipped)."""
        entries: List[Dict[str, Any]] = []
        if not os.path.exists(path):
            return entries
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    break  # killed mid-write: everything after is suspect
                if isinstance(entry, dict) and "op" in entry:
                    entries.append(entry)
        return entries

    def compact(self, jobs: Mapping[str, "Job"]) -> None:
        """Atomically rewrite the journal to reflect current job state."""
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for job in sorted(jobs.values(), key=lambda j: j.id):
                rows: List[Dict[str, Any]] = [
                    {"op": "submit", "id": job.id, "payload": job.payload}
                ]
                for unit in sorted(job.done_units):
                    rows.append(
                        {
                            "op": "unit",
                            "id": job.id,
                            "unit": unit,
                            "status": "done",
                            "fingerprint": job.fingerprints[unit],
                            "source": job.sources.get(unit, "executed"),
                        }
                    )
                for unit, error in sorted(job.failed_units.items()):
                    rows.append(
                        {
                            "op": "unit",
                            "id": job.id,
                            "unit": unit,
                            "status": "failed",
                            "fingerprint": job.fingerprints[unit],
                            "error": error,
                        }
                    )
                rows.append({"op": "state", "id": job.id, "state": job.state})
                for row in rows:
                    fh.write(
                        json.dumps(
                            {"ts": round(time.time(), 3), **row},
                            sort_keys=True,
                            separators=(",", ":"),
                        )
                        + "\n"
                    )
        with self._lock:
            self._fh.close()
            os.replace(tmp, self.path)
            self._fh = open(self.path, "a", encoding="utf-8")
