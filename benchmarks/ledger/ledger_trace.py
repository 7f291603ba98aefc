"""Spans and the sampling profiler of the traced run.

Both live in the harness: a span is recorded around each call into a public
function of the program, and the sampler attributes CPU time inside such a
call to a layer by looking at which source file was executing.  Nothing in
``src/`` knows either exists.
"""

from __future__ import annotations

import json
import os
import signal
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One mark is ``(name, start, end)`` on the ``time.perf_counter`` clock; an
#: operation returns its marks and they become spans only in a traced run.
Mark = Tuple[str, float, float]


class Spans:
    """In-memory span list of one workload; written out when the run ends."""

    def __init__(self, workload: str, start: float):
        self.workload = workload
        self.rows: List[Dict[str, Any]] = []
        self.root = self.add(None, workload, start, start)

    def add(self, parent: Optional[int], name: str, start: float, end: float) -> int:
        span_id = len(self.rows)
        self.rows.append(
            {"id": span_id, "parent": parent, "workload": self.workload,
             "name": name, "start": start, "end": end}
        )
        return span_id

    def add_op(self, name: str, marks: List[Mark]) -> int:
        """One operation span under the root with a child span per mark."""
        if not marks:
            return self.root
        op = self.add(self.root, name, marks[0][1], max(m[2] for m in marks))
        for mark_name, start, end in marks:
            self.add(op, mark_name, start, end)
        return op

    def close(self, end: float) -> List[Dict[str, Any]]:
        self.rows[self.root]["end"] = end
        return self.rows


def write_spans(path: str, rows: List[Dict[str, Any]]) -> None:
    """Append spans to a JSONL file, qualifying ids with the workload name.

    Every child process numbers its spans from 0, so the ledger-wide file
    keys them as ``<workload>:<n>``.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for row in rows:
            prefix = row["workload"] + ":"
            out = dict(row, id=prefix + str(row["id"]))
            out["parent"] = None if row["parent"] is None else prefix + str(row["parent"])
            fh.write(json.dumps(out, sort_keys=True) + "\n")


class Sampler:
    """``SIGPROF`` sampler charging CPU time to the layer of the running file.

    Every ``interval`` seconds of process CPU time the handler walks from the
    interrupted frame outward to the first frame whose file lies under
    ``source_root`` and counts one sample for that file's layer; a stack with
    no such frame counts as ``other``.  Known bias: CPython delivers the
    signal at the next bytecode boundary, so time spent inside a C builtin
    (``heappush``, ``json.dumps``, numpy) is charged to the Python frame that
    called it.  Shares therefore compare across commits, not across layers.
    """

    def __init__(self, source_root: str, layer_of: Callable[[str], str], interval: float = 0.002):
        self.root = os.path.join(os.path.abspath(source_root), "")
        self.layer_of = layer_of
        self.interval = interval
        self.counts: Dict[str, int] = {}
        self._files: Dict[str, Optional[str]] = {}

    def _layer(self, filename: str) -> Optional[str]:
        try:
            return self._files[filename]
        except KeyError:
            layer = None
            if filename.startswith(self.root):
                layer = self.layer_of(filename[len(self.root):])
            self._files[filename] = layer
            return layer

    def _on_sample(self, _signum: int, frame: Any) -> None:
        while frame is not None:
            layer = self._layer(frame.f_code.co_filename)
            if layer is not None:
                self.counts[layer] = self.counts.get(layer, 0) + 1
                return
            frame = frame.f_back
        self.counts["other"] = self.counts.get("other", 0) + 1

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        # Not SIG_DFL: a sample already on its way would then end the process.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def shares(self) -> Dict[str, float]:
        total = sum(self.counts.values())
        return {layer: count / total for layer, count in self.counts.items()} if total else {}
