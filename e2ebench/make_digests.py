"""Regenerate ``digests.json``, the stored result digests that every
benchmark run is checked against.

Usage, from the root of the repository::

    python3 e2ebench/make_digests.py

For each workload and seed this runs the workload once in a fresh
interpreter, exactly as a benchmark run does, and stores the digest.
For the flit workloads and the default and held-out seeds it also runs
the same experiment with ``engine="reference"`` (the event-by-event
simulator the batched engine must match bit for bit) and refuses to
write the file unless both digests agree.  The held-out seed is not used
while tuning the benchmark or a change, so that a claim can be
re-checked on data it was not written against.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import BUILD_TIMEOUT_S, DIGESTS, WORK_DIR, ChildFailed, run_child
from workloads import WORKLOADS

DEFAULT_SEED = 0
HELD_OUT_SEED = 2012
DEV_SEEDS = tuple(range(10))
REFERENCE_TIMEOUT_S = 900.0


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)

    os.makedirs(WORK_DIR, exist_ok=True)
    seeds = sorted(set(DEV_SEEDS) | {DEFAULT_SEED, HELD_OUT_SEED})
    store: dict = {"default_seed": DEFAULT_SEED,
                   "held_out_seed": HELD_OUT_SEED,
                   "digests": {}, "reference_checked": {}}
    for name, w in WORKLOADS.items():
        run_child("build", name, DEFAULT_SEED, BUILD_TIMEOUT_S)
        digests = store["digests"][name] = {}
        for seed in seeds:
            rec = run_child("run", name, seed, BUILD_TIMEOUT_S)
            if rec["problems"]:
                print(f"{name} seed {seed}: {rec['problems']}",
                      file=sys.stderr)
                return 1
            digests[str(seed)] = rec["digest"]
            print(f"{name} seed {seed}: {rec['digest']} "
                  f"({rec['wall_s']:.2f}s, engine={rec['engine']})",
                  flush=True)
            if w.engine is None or seed not in (DEFAULT_SEED, HELD_OUT_SEED):
                continue
            ref = run_child("run", name, seed, REFERENCE_TIMEOUT_S,
                            ("--engine", "reference"))
            if ref["digest"] != rec["digest"] or ref["problems"]:
                print(f"{name} seed {seed}: reference engine digest "
                      f"{ref['digest']} != {w.engine} {rec['digest']} "
                      f"{ref['problems']}", file=sys.stderr)
                return 1
            print(f"{name} seed {seed}: reference engine agrees "
                  f"({ref['wall_s']:.2f}s)", flush=True)
            store["reference_checked"].setdefault(name, []).append(seed)
    # Written only once every workload and cross-check has passed.
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
