"""Workloads, seed-point execution and correctness digests.

A seed-point is one distpac seed run through every protocol of a workload.
Each protocol runs as an in-process ``distpac run`` for that single seed,
``cli.main(["run", cfg, "--seed-range", "s..s", "--out", tmp])``, so every
operation goes through the YAML parse, validation, runner and the
``results.csv``/``summary.json`` writing that a user's run goes through.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
OUT = HERE / "out"

# Distpac seeds 0..UNIVERSE-1 have recorded digests; a workload seed picks
# the order in which a run visits them.
UNIVERSE = 1000

_INTERVAL = {"kind": "uniform_interval"}

WORKLOADS = {
    "halving-noisy": [
        {"protocol": "robust_halving", "k": 3, "eps": 0.05,
         "noise_rate": 0.08, "grid": 51, "distributions": [_INTERVAL] * 3},
    ],
    "center-k8": [
        {"protocol": "boosting", "n": 20, "k": 8, "eps": 0.2},
        {"protocol": "sample_shipping", "n": 30, "k": 8, "eps": 0.1},
        {"protocol": "interval_summary", "d": 3, "k": 8, "eps": 0.08,
         "noise_rate": 0.05, "m_per_player": 1500},
    ],
    "desk-mix": [
        {"protocol": "closed_conjunction", "n": 30, "k": 5, "eps": 0.05},
        {"protocol": "closed_box", "d": 1, "k": 3, "eps": 0.05,
         "distributions": [_INTERVAL] * 3},
        {"protocol": "parity_two_player", "n": 40, "k": 2, "eps": 0.05},
        {"protocol": "decision_list", "n": 50, "k": 4, "eps": 0.05},
        {"protocol": "sample_shipping", "n": 30, "k": 4, "eps": 0.05},
        {"protocol": "eq_conjunction", "n": 30, "k": 4, "eps": 0.05},
        {"protocol": "averaging", "d": 10, "k": 2, "eps": 0.05},
        {"protocol": "round_robin_perceptron", "k": 3, "gamma": 0.2,
         "alpha": 0.05},
        {"protocol": "adversarial_perceptron", "gamma": 0.1},
        {"protocol": "private_conjunction", "n": 10, "k": 2, "eps": 0.05},
    ],
}


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or goldens)."""


def load_distpac():
    """Import distpac from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "distpac" / "cli.py").is_file():
        raise BenchError(f"no distpac sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import distpac
    import distpac.cli
    if Path(distpac.__file__).resolve().parent != SRC / "distpac":
        raise BenchError(f"distpac was imported from {distpac.__file__}, "
                         f"not from {SRC}")
    return distpac


def seed_order(workload_seed: int) -> list:
    """The distpac seeds a run visits, in order; fixed by the workload seed."""
    return random.Random(workload_seed).sample(range(UNIVERSE), UNIVERSE)


def golden_path(name: str) -> Path:
    return GOLDENS / f"{name}.json"


@dataclass
class SeedPoint:
    seed: int
    codes: list        # exit code of each protocol run
    rows: list         # the results.csv data row of each run ("" if none)
    digest: str

    @property
    def exit_ok(self) -> bool:
        return not any(self.codes)


class Workload:
    """Config files for one workload, written once, and a seed-point runner."""

    def __init__(self, name: str, tmpdir: Path, *, check: bool = True):
        self.name = name
        self.tmp = Path(tmpdir)
        self.cli = sys.modules["distpac.cli"]
        self.configs = []
        for i, cfg in enumerate(WORKLOADS[name]):
            cfg = dict(cfg, name=f"{i}-{cfg['protocol']}")
            path = self.tmp / f"{cfg['name']}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            self.configs.append((cfg["name"], str(path)))
        self.golden = self._load_golden() if check else None
        self._sink = io.StringIO()

    def _load_golden(self) -> list:
        path = golden_path(self.name)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise BenchError(f"missing goldens {path}") from None
        if data["configs"] != WORKLOADS[self.name] or \
                len(data["digests"]) != UNIVERSE:
            raise BenchError(f"{path} was recorded for another workload "
                             "definition; record it again")
        return data["digests"]

    def _cli(self, path: str, seed: int) -> int:
        sink = self._sink
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                return self.cli.main(["run", path, "--seed-range",
                                      f"{seed}..{seed}",
                                      "--out", str(self.tmp)])
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed run for a user too
                return 1

    def run(self, seed: int, tracer=None) -> SeedPoint:
        codes, rows, written = [], [], 0
        for name, path in self.configs:
            out = self.tmp / name
            for fname in ("results.csv", "summary.json", "trace.csv"):
                (out / fname).unlink(missing_ok=True)
            if tracer is not None:
                sent = (tracer.counter("channel.bits_sent"),
                        tracer.counter("channel.examples_sent"))
            code = self._cli(path, seed)
            row = ""
            if code == 0:
                lines = (out / "results.csv").read_text().splitlines()
                row = lines[1] if len(lines) == 2 else "unexpected rows"
                written += sum((out / f).stat().st_size
                               for f in ("results.csv", "summary.json",
                                         "trace.csv")
                               if (out / f).exists())
                if tracer is not None:
                    cols = row.split(",")
                    tracer.add("channel.drift_bits", int(cols[2]) - (
                        tracer.counter("channel.bits_sent") - sent[0]))
                    tracer.add("channel.drift_examples", int(cols[3]) - (
                        tracer.counter("channel.examples_sent") - sent[1]))
            codes.append(code)
            rows.append(row)
        text = "\n".join(f"{name}|{code}|{row}" for (name, _), code, row
                         in zip(self.configs, codes, rows))
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        if tracer is not None:
            tracer.add("cli.bytes_written", written)
        return SeedPoint(seed, codes, rows, digest)

    def matches(self, sp: SeedPoint) -> bool:
        """The seed-point reproduced its recorded digest (exit codes, ledger
        and error columns of every protocol)."""
        return self.golden[sp.seed] == sp.digest
