"""Spec-fingerprint result cache shared by run, sweep, report and the service.

A simulation record is a pure function of ``(spec, seed)``: the scenario
spec is rebuilt from its canonical dict form inside every worker and the
simulator owns a seeded RNG, so two executions of the same pair produce
byte-identical records.  :func:`fingerprint` reduces the pair to a short
stable hash.  It is stamped into every record's ``run`` provenance block
(``record["run"]["fingerprint"]``) and doubles as the key of
:class:`ResultCache`, a JSONL-backed index mapping fingerprints to *pure*
records — the record exactly as ``run_scenario`` produced it, before any
run-specific provenance (index, grid params, scenario name) is attached.

Because the cached payload carries no provenance, a record computed by a
sweep can be reused by a report figure, a service job or a one-off
``repro run`` (and vice versa) as long as spec and seed match: the caller
re-stamps its own ``run`` block, so the reconstructed record is
byte-identical to what a fresh simulation would have written.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - Windows: in-process lock only
    fcntl = None  # type: ignore[assignment]

#: Hex digits kept from the sha256 digest; 64 bits of collision resistance
#: is ample for result-cache sizes while keeping records and manifests short.
FINGERPRINT_LEN = 16


def canonical_json(obj: Any) -> str:
    """Canonical JSON encoding used for all fingerprint payloads.

    Sorted keys and tight separators make the encoding independent of dict
    insertion order; non-JSON values fall back to ``str`` so grid values
    such as tuples never make a fingerprint raise.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def _digest(spec_json: str, seed: int) -> str:
    # Spelt out so that the spec part can be encoded once and reused; equal
    # to canonical_json({"seed": seed, "spec": <the spec dict>}).
    payload = '{"seed":%s,"spec":%s}' % (canonical_json(seed), spec_json)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:FINGERPRINT_LEN]


def fingerprint(spec_dict: Mapping[str, Any], seed: int) -> str:
    """Stable hash of one simulation: canonical spec dict plus seed."""
    return _digest(canonical_json(spec_dict), seed)


def fingerprint_spec(spec: Any, seed: int) -> str:
    """:func:`fingerprint` for a live :class:`ScenarioSpec` instance.

    Specs are immutable, so one keeps its canonical encoding: the
    replications of a grid point encode their shared spec once, which is
    most of what a cache hit costs.  Only an encoding over 64 KiB (an
    explicit tuple of thousands of receivers; a receiver run is three
    fields) is not kept: pinning it cost 6 % of resident memory.
    """
    spec_json = vars(spec).get("_canonical_json")
    if spec_json is None:
        spec_json = canonical_json(spec.to_dict())
        if len(spec_json) <= 1 << 16:
            object.__setattr__(spec, "_canonical_json", spec_json)
    return _digest(spec_json, seed)


def pure_record(record: Mapping[str, Any]) -> Dict[str, Any]:
    """The cacheable part of a record: everything except ``run`` provenance."""
    return {k: v for k, v in record.items() if k != "run"}


def _line_head(key: str) -> str:
    # An index line up to its record, spelt out so that the record is encoded
    # once: head + canonical_json(record) + "}" equals
    # canonical_json({"fingerprint": key, "record": record}).
    return '{"fingerprint":%s,"record":' % canonical_json(key)


class ResultCache:
    """Append-only JSONL index of pure records keyed by spec fingerprint.

    Each line is ``{"fingerprint": <hash>, "record": <pure record>}``.  The
    file is loaded lazily into an in-memory index on first access; ``put``
    appends to both.  The index keeps each record as its canonical JSON
    text — the bytes on disk — and every ``get`` decodes a fresh object
    from it, so callers can never reach the index through a result and an
    entry reads the same (tuples as lists, keys as strings) whether it was
    put by this process or loaded from the file.  Lookups and insertions
    count into :attr:`hits` and :attr:`misses` so callers can report cache
    effectiveness.

    The cache is safe to share across sequential invocations (warm re-runs)
    and across the run/sweep/report/serve entry points.  Concurrent access
    is coordinated on two levels: a ``threading.Lock`` serialises the
    in-memory index against the service daemon's handler threads, and index
    appends take an advisory ``flock`` on a sibling ``<path>.lock`` file so
    that several *processes* writing the same cache (the daemon plus batch
    ``repro run --cache`` invocations, or sweep workers pointed at one
    file) cannot interleave partial index lines.  Readers of an
    append-only JSONL file need no lock — a torn trailing line is skipped
    by the loader.
    """

    def __init__(self, path: str):
        self.path = path
        self._index: Optional[Dict[str, str]] = None
        self.hits = 0
        self.misses = 0
        self._mutex = threading.Lock()

    # ------------------------------------------------------------- locking

    @contextmanager
    def _file_lock(self) -> Iterator[None]:
        """Advisory cross-process lock held around index appends."""
        if fcntl is None:  # pragma: no cover - Windows
            yield
            return
        lock_path = self.path + ".lock"
        directory = os.path.dirname(os.path.abspath(lock_path))
        os.makedirs(directory, exist_ok=True)
        with open(lock_path, "a") as lock_fh:
            fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_fh.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------- loading

    def _load(self) -> Dict[str, str]:
        if self._index is None:
            index: Dict[str, str] = {}
            if os.path.exists(self.path):
                with open(self.path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            entry = json.loads(line)
                        except json.JSONDecodeError:
                            continue  # truncated trailing write; skip
                        if not isinstance(entry, dict) or "fingerprint" not in entry:
                            continue
                        key = entry["fingerprint"]
                        head = _line_head(key)
                        if len(entry) == 2 and line.startswith(head) and line[-1] == "}":
                            index[key] = line[len(head) : -1]  # as ``put`` wrote it
                        else:
                            index[key] = canonical_json(entry["record"])
            self._index = index
        return self._index

    # -------------------------------------------------------------- access

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The pure record cached under ``key``, or None.

        Returns a fresh decode of the stored text: callers stamp their own
        ``run`` provenance into the result, which cannot leak back into the
        index.  Decoding happens outside the mutex, so concurrent hits do
        not wait for one another.
        """
        with self._mutex:
            text = self._load().get(key)
            if text is None:
                self.misses += 1
                return None
            self.hits += 1
        return json.loads(text)

    def put(self, key: str, record: Mapping[str, Any]) -> bool:
        """Cache ``record`` (provenance stripped) under ``key``.

        Returns True when the entry was new; an existing key is left
        untouched (first write wins — records are pure, so any duplicate
        would be identical anyway).
        """
        with self._mutex:
            index = self._load()
            if key in index:
                return False
            text = canonical_json(pure_record(record))
            index[key] = text
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            # The flock serialises appends across processes; the single
            # full-line write keeps the JSONL stream corruption-free even
            # if this process dies mid-append (readers skip a torn tail).
            with self._file_lock():
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(_line_head(key) + text + "}\n")
        return True

    def refresh(self) -> None:
        """Drop the in-memory index so the next access re-reads the file.

        Lets a long-running process (the service daemon) pick up entries
        appended by other processes sharing the cache file.
        """
        with self._mutex:
            self._index = None

    def __contains__(self, key: str) -> bool:
        with self._mutex:
            return key in self._load()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._load())
