#!/usr/bin/env python3
"""Rewrite pins.json from the current code for the given seeds:

    python3 perfbench/pin.py 0 1 2 3

Pins are the digests of every generated input and of the outputs that must
stay byte-identical across commits (see workloads.pinned_digests). Run it
only when a change to those bytes is intended, and say so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import run


def main(seeds):
    spawner = run.Spawner()
    try:
        return _pin(spawner, seeds)
    finally:
        spawner.close()


def _pin(spawner, seeds):
    if not run.prepare():
        return 2
    import workloads

    pins = {}
    for name in workloads.WORKLOADS:
        for seed in seeds:
            detail = run.benchmark(spawner, name, seed, 0.001, False)[0]
            errors = [e for e in detail["errors"] if "pinned digest" not in e]
            if errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            pins.setdefault(name, {}).update({str(k): v for k, v in detail["pins"].items()})
            print(f"pinned {name} seed {seed}", file=sys.stderr)
    path = Path(__file__).parent / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
