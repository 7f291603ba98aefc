"""Append-only JSONL result store.

Every sweep run is reduced to one JSON object per line.  Records are written
with sorted keys and a canonical float representation (``json.dumps``
defaults), so that the same sequence of records always produces byte-identical
files — the property the determinism tests assert for serial vs parallel
sweeps.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from typing import IO, Any, Dict, Iterable, Iterator, List, Sequence


def encode_record(record: Dict[str, Any]) -> str:
    """Canonical single-line JSON encoding of one result record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def open_log(path: str) -> IO[str]:
    """Open an append-only JSONL log for appending, cutting a torn tail first.

    A writer killed mid-line leaves a fragment without its newline, and the
    next line appended would be glued onto it: one unparseable line where a
    reader stops.  The file is truncated to just past its last newline (to
    empty when it has none) before it is opened in ``"a"`` mode.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    if os.path.exists(path):
        with open(path, "rb+") as fh:
            end = keep = fh.seek(0, os.SEEK_END)
            while keep > 0:
                step = min(keep, 4096)
                fh.seek(keep - step)
                newline = fh.read(step).rfind(b"\n")
                if newline >= 0:
                    keep += newline + 1 - step
                    break
                keep -= step
            if keep < end:
                fh.truncate(keep)
    return open(path, "a", encoding="utf-8")


class ResultStore:
    """Appends result records to a JSONL file and reads them back."""

    def __init__(self, path: str):
        self.path = path

    def append(self, record: Dict[str, Any]) -> None:
        self.append_many([record])

    def append_many(self, records: Iterable[Dict[str, Any]]) -> int:
        """Append records in order; returns the number written."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        count = 0
        with open(self.path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(encode_record(record) + "\n")
                count += 1
        return count

    @contextmanager
    def appender(self):
        """Context manager for streaming appends with one open file handle.

        ``store.append`` reopens the file per call, which is fine for a
        handful of records but O(total) syscalls for a large sweep.  The
        appender keeps the file open and flushes after every record, so a
        crash loses at most the line being written::

            with store.appender() as write:
                for record in records:
                    write(record)
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:

            def write(record: Dict[str, Any]) -> None:
                fh.write(encode_record(record) + "\n")
                fh.flush()

            yield write

    def rewrite(self, records: Iterable[Dict[str, Any]]) -> int:
        """Atomically replace the store's contents with ``records``.

        The records are written to a sibling temp file which is then
        renamed over the store, so readers never observe a half-written
        file.  Returns the number of records written.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        tmp = self.path + ".tmp"
        count = 0
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(encode_record(record) + "\n")
                count += 1
        os.replace(tmp, self.path)
        return count

    def scan_valid(self) -> "tuple[List[Dict[str, Any]], int]":
        """Parse the longest valid prefix of the store.

        Returns ``(records, clean_end)`` where ``clean_end`` is the byte
        offset just past the last fully-written valid JSONL line.  A sweep
        worker killed mid-write leaves a truncated (or garbage) tail;
        truncating the file to ``clean_end`` repairs it without touching
        any completed record.
        """
        records: List[Dict[str, Any]] = []
        clean_end = 0
        if not os.path.exists(self.path):
            return records, clean_end
        offset = 0
        with open(self.path, "rb") as fh:
            for raw in fh:
                offset += len(raw)
                if not raw.endswith(b"\n"):
                    break  # truncated final line
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    clean_end = offset
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    break  # corrupt line: everything from here is suspect
                clean_end = offset
        return records, clean_end

    def truncate(self, offset: int) -> None:
        """Truncate the store file to ``offset`` bytes (crash repair)."""
        with open(self.path, "rb+") as fh:
            fh.truncate(offset)

    def iter_records(self, strict: bool = False) -> Iterator[Dict[str, Any]]:
        """Iterate over records in file order.

        A sweep worker that is killed mid-write leaves a truncated final
        line; with ``strict=False`` (the default) such corrupt lines are
        skipped with a :class:`RuntimeWarning` so the surviving records stay
        usable for aggregation.  ``strict=True`` raises instead.
        """
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    if strict:
                        raise
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping truncated/corrupt JSONL line",
                        RuntimeWarning,
                        stacklevel=2,
                    )

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return self.iter_records(strict=True)

    def merge(self, paths: Sequence[str], strict: bool = False) -> int:
        """Append the records of per-worker shard files into this store.

        Shards are consumed in the given path order (record order within a
        shard is preserved); corrupt trailing lines are skipped per
        :meth:`iter_records`.  Returns the number of records appended.
        """
        own = os.path.abspath(self.path)
        for path in paths:
            if os.path.abspath(path) == own:
                # Shards are read lazily while appending: reading the
                # destination would re-consume every line it just wrote and
                # never terminate.
                raise ValueError(f"cannot merge a store into itself: {path}")

        def _records() -> Iterator[Dict[str, Any]]:
            for path in paths:
                yield from ResultStore(path).iter_records(strict=strict)

        return self.append_many(_records())

    def read(self) -> List[Dict[str, Any]]:
        """All records currently in the store."""
        return list(self)

    def __len__(self) -> int:
        return sum(1 for _ in self)
