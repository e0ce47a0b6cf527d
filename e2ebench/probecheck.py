"""Check that the host-speed probe does not depend on the program measured.

Usage, from the root of the repository::

    python3 e2ebench/probecheck.py      # 3-5 minutes

Runs 5 rounds of an idle child (``time.sleep(5)``) and of every workload,
pinned to one CPU and sampled by :class:`run.Speedometer` as a benchmark
run is.  Prints each child's mean unit time, then per child the median
over the rounds and its difference from the idle child's.  A workload
whose unit time differs from the idle child's would move the divisor of
every time it reports.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

from run import BENCH_DIR, ROOT, WORK_DIR, Speedometer, child_env, \
    pin_to_one_cpu
from workloads import WORKLOADS

ROUNDS = 5


def child_cmd(name: str, seed: int) -> list:
    if name == "idle":
        return [sys.executable, "-c", "import time; time.sleep(5)"]
    return [sys.executable, os.path.join(BENCH_DIR, "child.py"),
            "--mode", "run", "--workload", name, "--seed", str(seed),
            "--work-dir", WORK_DIR, "--t0", repr(time.monotonic())]


def main() -> int:
    os.makedirs(WORK_DIR, exist_ok=True)
    pin_to_one_cpu()
    names = ["idle", *WORKLOADS]
    units: dict[str, list] = {name: [] for name in names}
    for seed in range(ROUNDS):
        for name in names:
            speedo = Speedometer()
            proc = subprocess.Popen(child_cmd(name, seed), cwd=ROOT,
                                    env=child_env(),
                                    stdout=subprocess.DEVNULL)
            speedo.watch(proc, float("inf"))
            if proc.returncode != 0:
                print(f"error: {name} child exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            mean = statistics.fmean(u for _, _, u in speedo.samples)
            units[name].append(mean)
            print(f"round {seed} {name}: {len(speedo.samples)} samples, "
                  f"mean unit {mean * 1e3:.4f} ms", flush=True)
    idle = statistics.median(units["idle"])
    for name in names:
        med = statistics.median(units[name])
        print(f"{name:24s} median {med * 1e3:.4f} ms "
              f"({(med / idle - 1) * 100:+.2f}% vs idle), "
              f"range {min(units[name]) * 1e3:.4f}"
              f"-{max(units[name]) * 1e3:.4f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
