"""Byte-identical guard on fixed-seed records of the registry scenarios.

``tests/data/golden_records.jsonl`` holds the canonical result records of
every registry scenario that existed when ``flows`` replaced the
``tfmcc``/``tcp``/``background`` scenario fields, generated with fixed seeds
*before* that change.  The test replays the same (scenario, params, seed)
cases and asserts the encoded records are byte-identical: whatever is done to
the spec, builder, link or channel layers, flow construction order and RNG
draw order have stayed what they were.

Regenerate (only legitimate when a change intentionally alters simulation
behaviour — never to paper over an accidental difference)::

    PYTHONPATH=src python tests/test_compat_golden.py --regen

The top-level ``events`` count is the one field an engine change may move:
it says how many events the engine spent, not what the network did
(merging a link's serialisation and propagation events halved it).  A
regeneration for such a change must show the old and new records equal
once ``events`` is deleted (``--regen`` prints that per case); every other
field moving is a behaviour change.
"""

import json
import os

import pytest

from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.store import encode_record

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_records.jsonl")

#: (scenario, params, seed) — every registry scenario that existed before
#: the redesign, with CLI-sized parameters so the whole fixture replays in
#: seconds while still exercising TCP, background, membership schedules,
#: Gilbert-Elliott loss and the time-scripted dynamics/trace path.
GOLDEN_CASES = [
    ("fairness", {"duration": 5.0, "num_tcp": 2}, 3),
    ("individual-bottlenecks", {"duration": 5.0, "num_receivers": 2}, 3),
    ("scaling", {"duration": 5.0, "num_receivers": 3}, 3),
    (
        "late-join",
        {
            "duration": 12.0,
            "join_time": 4.0,
            "leave_time": 8.0,
            "num_main_receivers": 1,
            "num_tcp": 1,
        },
        3,
    ),
    (
        "responsiveness",
        {"duration": 14.0, "first_join": 2.0, "join_interval": 2.0},
        3,
    ),
    ("bursty-loss", {"duration": 6.0, "burst_length": 4.0}, 3),
    ("background-traffic", {"duration": 6.0, "bg_fraction": 0.4}, 3),
    (
        "flash-crowd",
        {"duration": 8.0, "join_at": 2.0, "join_spread": 1.0, "num_receivers": 3},
        3,
    ),
    ("link_failure_reroute", {"duration": 20.0, "fail_at": 8.0, "recover_at": 14.0}, 3),
    ("bandwidth_step", {"duration": 16.0, "step_at": 6.0, "restore_at": 10.0}, 3),
    ("loss_step_responsiveness", {"duration": 12.0, "step_at": 5.0}, 3),
    (
        "receiver_churn",
        {
            "duration": 12.0,
            "first_join": 2.0,
            "join_interval": 1.0,
            "stay_time": 4.0,
            "num_churners": 2,
        },
        3,
    ),
]


def _execute(scenario, params, seed):
    return encode_record(run_scenario(get_scenario(scenario).spec(**params), seed=seed))


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(f"golden fixture missing: {GOLDEN_PATH} (see module docstring)")
    return {(e["scenario"], e["seed"], json.dumps(e["params"], sort_keys=True)): e["record"]
            for e in _load_golden()}


@pytest.mark.parametrize(
    "scenario,params,seed", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
)
def test_record_byte_identical_to_pre_redesign(golden, scenario, params, seed):
    key = (scenario, seed, json.dumps(params, sort_keys=True))
    assert key in golden, f"no golden entry for {key}; regenerate the fixture"
    assert _execute(scenario, params, seed) == golden[key]


def _regen():
    """Rewrite the fixture and print, per case, ``events`` old -> new and
    whether every other field of the record stayed equal."""
    previous = {}
    if os.path.exists(GOLDEN_PATH):
        previous = {e["scenario"]: json.loads(e["record"]) for e in _load_golden()}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        for scenario, params, seed in GOLDEN_CASES:
            entry = {
                "scenario": scenario,
                "params": params,
                "seed": seed,
                "record": _execute(scenario, params, seed),
            }
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            old, new = previous.get(scenario, {}), json.loads(entry["record"])
            events = f"{old.pop('events', None)} -> {new.pop('events', None)}"
            print(f"{scenario:<26} events {events:<20} rest {'equal' if old == new else 'MOVED'}")
    print(f"wrote {len(GOLDEN_CASES)} golden records to {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
