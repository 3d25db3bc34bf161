"""Pin the outputs the correctness gate compares against.

Run from the repository root after an intentional change to the model's
results (the goldens under ``tests/goldens`` must already agree)::

    python3 hostbench/record.py

It writes ``hostbench/reference.json``: the digest of a ``reproduce-all``
``units/`` tree, the dse workload's payload digest and frontier, and the
digest of the fleet manifest's ``units/`` tree run by one static process.
"""

from __future__ import annotations

import json
import os
import sys

import dse_sweep
import orchestrated
from harness import HERE, WORK, remove_work


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    try:
        iteration = orchestrated.Iteration("reproduce", "record-reproduce")
        orchestrated.check_goldens(iteration)
        sweep = dse_sweep.Sweep("record-dse")
        fleet_digest = orchestrated.one_process_digest()
    finally:
        remove_work()
    document = {
        "reproduce_units_sha256": iteration.units_digest,
        "dse_payload_sha256": sweep.result["payload_sha256"],
        "dse_frontier": sweep.result["frontier"],
        "fleet_one_process_units_sha256": fleet_digest,
    }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
