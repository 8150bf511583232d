"""Replay every recorded seed of benchmark workloads against their goldens.

    python3 scripts/golden_sweep.py                  # all workloads
    python3 scripts/golden_sweep.py halving-noisy    # only the ones named

Runs each distpac seed 0..999 of every named workload (all of them when
none is named) through ``perfbench/bench.py``'s ``Workload.run`` (the same
in-process ``distpac run`` per protocol as the benchmark) and checks its
digest with ``Workload.matches``.  Prints an ``env: python=... numpy=...``
line first, then ``matched/1000`` per workload, and exits 1 if any
seed-point mismatched, 2 on an unknown workload name.
"""

from __future__ import annotations

import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402


def sweep(name: str) -> list:
    """Pool seeds of workload ``name`` whose digest misses its golden."""
    bench.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
        wl = bench.Workload(name, Path(tmp))
        return [seed for seed in range(bench.UNIVERSE)
                if not wl.matches(wl.run(seed))]


def main(names: list) -> int:
    unknown = [name for name in names if name not in bench.WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {', '.join(unknown)}; valid: "
              + ", ".join(bench.WORKLOADS), file=sys.stderr)
        return 2
    bench.pin_threads()
    bench.load_distpac()
    import numpy  # after pin_threads, as the benchmark imports it
    print(f"env: python={platform.python_version()} "
          f"numpy={numpy.__version__}", flush=True)
    bad = 0
    for name in names or bench.WORKLOADS:
        t0 = time.perf_counter()
        missed = sweep(name)
        bad += len(missed)
        print(f"{name}: {bench.UNIVERSE - len(missed)}/{bench.UNIVERSE} "
              f"matched in {time.perf_counter() - t0:.1f} s"
              + (f"; mismatched seeds: {missed}" if missed else ""),
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
