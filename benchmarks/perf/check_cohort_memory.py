"""Gate on the cohort engine's resident memory per receiver.

Runs the ``scaling`` scenario on the cohort engine at 10^5 and 10^6
receivers (60 s simulated, seed 1), each in a fresh interpreter, and reads
each one's peak resident set (``ru_maxrss``).  The difference over the
900,000 extra receivers is the memory one more receiver costs, with the
interpreter, the exact tracers and the imports cancelled out.

A cohort member's state is 81 bytes: eight float64 loss-history slots, the
open interval, the RTT jitter and an int8 event count.  A step works in
fixed blocks of members, so its scratch does not grow with the cohort; the
gate fails when the reading exceeds ``BOUND_B``, 10-12 % over the 80-82 B
the block-wise step reads (a step that made member-sized temporaries read
176 B).  Bytes on one machine, not seconds::

    PYTHONPATH=src python benchmarks/perf/check_cohort_memory.py --out rss.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

#: Bytes per extra receiver above which the gate fails.
BOUND_B = 90.0
SMALL, LARGE = 100_000, 1_000_000

_CHILD = """
import json, resource, sys, time
from repro.scenarios import get_scenario, run_scenario
n = int(sys.argv[1])
spec = get_scenario("scaling").spec(num_receivers=n, duration=60.0)
start = time.perf_counter()
record = run_scenario(spec.with_overrides(**{"engine.kind": "cohort"}), seed=1)
print(json.dumps({
    "receivers": n,
    "cohort": record["engine"]["receivers_cohort"],
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "wall_s": round(time.perf_counter() - start, 3),
}))
"""


def measure(receivers: int) -> dict:
    """Peak RSS and wall time of one cohort run in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(receivers)],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the result line to this file")
    args = parser.parse_args()
    small, large = measure(SMALL), measure(LARGE)
    per_receiver = (large["peak_rss_kb"] - small["peak_rss_kb"]) * 1024 / (LARGE - SMALL)
    line = {
        "runs": [small, large],
        "bytes_per_receiver": round(per_receiver, 1),
        "bound_b": BOUND_B,
        "passed": per_receiver <= BOUND_B,
    }
    text = json.dumps(line, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if not line["passed"]:
        print(f"{per_receiver:.1f} B per cohort receiver > {BOUND_B} B", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
