"""Replay every recorded seed of each benchmark workload against its golden.

    python3 scripts/golden_sweep.py

Runs each distpac seed 0..999 of every workload through
``perfbench/bench.py``'s ``Workload.run`` (the same in-process ``distpac run``
per protocol as the benchmark) and checks its digest with
``Workload.matches``.  Prints ``matched/1000`` per workload and exits 1 if
any seed-point mismatched.
"""

from __future__ import annotations

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


def main() -> int:
    bench.pin_threads()
    bench.load_distpac()
    bad = 0
    for name in bench.WORKLOADS:
        t0 = time.perf_counter()
        missed = sweep(name)
        bad += len(missed)
        print(f"{name}: {bench.UNIVERSE - len(missed)}/{bench.UNIVERSE} "
              f"matched in {time.perf_counter() - t0:.1f} s"
              + (f"; mismatched seeds: {missed}" if missed else ""),
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
