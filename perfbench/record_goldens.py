"""Record the correctness digests of one workload.

    python3 perfbench/record_goldens.py --workload desk-mix

Runs distpac seeds 0..UNIVERSE-1 through the workload and writes
``goldens/<workload>.json``.  Record again only when a change is meant to
alter results (ledgers, errors or exit codes), and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import bench


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(bench.WORKLOADS))
    args = p.parse_args(argv)
    bench.pin_threads()
    bench.load_distpac()
    bench.OUT.mkdir(exist_ok=True)
    digests, failed = [], []
    with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
        wl = bench.Workload(args.workload, Path(tmp), check=False)
        for seed in range(bench.UNIVERSE):
            sp = wl.run(seed)
            digests.append(sp.digest)
            if not sp.exit_ok:
                failed.append(seed)
    bench.GOLDENS.mkdir(exist_ok=True)
    bench.golden_path(args.workload).write_text(json.dumps(
        {"workload": args.workload,
         "configs": bench.WORKLOADS[args.workload],
         "failing_seeds": failed, "digests": digests}, indent=1) + "\n")
    print(f"{args.workload}: {len(digests)} digests, "
          f"{len(failed)} seeds exit non-zero: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
