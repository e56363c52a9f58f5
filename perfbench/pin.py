"""Regenerate pinned.json: the expected output digest of every input any seed can draw.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only when a change is meant to alter what runs produce; the digests
then no longer vouch for the old behaviour, so say so where the change is
described.
"""

import json
from pathlib import Path

import fractal_goodstein as fg

import check
import workloads


def main() -> None:
    pinned = {}
    for name in workloads.WORKLOADS:
        for inp in workloads.family(name):
            spec, seed, max_steps, certify = inp
            pinned[workloads.key(inp)] = check.digest(fg.run(spec, seed, max_steps=max_steps, certify=certify))
            print(workloads.key(inp), pinned[workloads.key(inp)][:16], flush=True)
    path = Path(__file__).resolve().parent / "pinned.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
