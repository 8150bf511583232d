"""distpac benchmark: closed-loop `distpac run` seed sweeps.

    python3 perfbench/run.py --workload halving-noisy --seed 0 --seconds 40
    python3 perfbench/run.py --workload all            # one table, 3 workloads
    python3 perfbench/run.py --workload center-k8 --trace 1   # per-layer view

One client in one process runs seed-points back to back, each starting only
after the previous one completed, for ``--seconds`` of wall time.  Every
seed-point's results are checked against recorded digests.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import bench
from tracer import Tracer

SETUP_PROBES = 5

END_TO_END = {
    "seeds_per_s": "1/s",
    "seed_ms_p50": "ms",
    "seed_ms_p90": "ms",
    "cpu_ms_per_seed": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed next to the metrics: seed-points with a non-zero exit or a digest
# mismatch, over attempted.  The JSON ``failed`` counts mismatches only.
FAILED_FRAC = ("failed_frac", "ratio")

# (metric, unit).  Times and counts are means per traced seed-point.
PER_LAYER = [
    ("core.predict.self_s", "s"), ("core.predict.calls", "count"),
    ("core.predict.rows", "count"), ("core.draw_sample.self_s", "s"),
    ("core.draw_sample.calls", "count"), ("core.stream.self_s", "s"),
    ("core.measure_errors.self_s", "s"),
    ("channel.send.self_s", "s"), ("channel.send.calls", "count"),
    ("channel.send_example.self_s", "s"),
    ("channel.send_example.calls", "count"),
    ("channel.bits_sent", "bits"), ("channel.drift_bits", "bits"),
    ("channel.drift_examples", "count"),
    ("baseline.sample_shipping.self_s", "s"),
    ("baseline.eq_mistake_bound.self_s", "s"),
    ("closed.run_intersection_closed.self_s", "s"),
    ("closed.smallest_consistent.self_s", "s"),
    ("parity.gf2_reduce.self_s", "s"), ("parity.gf2_reduce.calls", "count"),
    ("parity.classify.self_s", "s"),
    ("declist.consistent_triplets.self_s", "s"),
    ("declist.run_decision_list.self_s", "s"),
    ("linear.margin_perceptron_pass.self_s", "s"),
    ("linear.margin_perceptron_pass.calls", "count"),
    ("linear.adversarial_lower_bound.self_s", "s"),
    ("linear.averaging_protocol.self_s", "s"),
    ("boosting.quantize.self_s", "s"), ("boosting.quantize.calls", "count"),
    ("boosting.best_stump.self_s", "s"),
    ("boosting.run_distributed_boosting.self_s", "s"),
    ("agnostic.run_robust_halving.self_s", "s"),
    ("agnostic.opt_search.guesses", "count"),
    ("agnostic.opt_search.accept_ratio", "ratio"),
    ("agnostic.merge_summaries.self_s", "s"),
    ("agnostic.player_summary.self_s", "s"),
    ("agnostic.dp_best_intervals.self_s", "s"),
    ("privacy.learn_private_conjunction.self_s", "s"),
    ("cli.run_config.self_s", "s"), ("cli.runner.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead", "ratio"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(bench.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed: picks which distpac seeds run")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="wall time of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def env_line(args) -> str:
    import numpy
    nproc = len(os.sched_getaffinity(0))
    return (f"env: workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace} nproc={nproc} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


@dataclass
class Phase:
    """One closed loop: its seed-points and their latencies."""
    points: list = field(default_factory=list)
    lat: list = field(default_factory=list)
    cpu: float = 0.0
    wall: float = 0.0
    mismatches: int = 0


def closed_loop(wl, seeds, seconds=None, tracer=None) -> Phase:
    """Run seed-points back to back, each after the previous one completed,
    until `seeds` is exhausted or `seconds` of wall time have passed."""
    ph = Phase()
    t_start = time.perf_counter()
    for seed in seeds:
        if tracer is not None:
            tracer.begin(len(ph.points))
        t0, c0 = time.perf_counter(), time.process_time()
        sp = wl.run(seed, tracer)
        ph.lat.append(time.perf_counter() - t0)
        ph.cpu += time.process_time() - c0
        ph.points.append(sp)
        ph.mismatches += not wl.matches(sp)
        if seconds is not None and time.perf_counter() - t_start >= seconds:
            break
    ph.wall = time.perf_counter() - t_start
    return ph


def setup(name: str, seed: int, tmp: Path):
    """Everything before the first seed-point: imports, configs, order."""
    bench.load_distpac()
    return bench.Workload(name, tmp), bench.seed_order(seed)


def measure_setup(args) -> float:
    """Median wall time from process start to the first seed-point being
    ready, over SETUP_PROBES fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise bench.BenchError(f"setup probe failed (exit {code})")
        times.append(dt)
    return statistics.median(times)


def failures(wl, points) -> int:
    """Seed-points with a non-zero exit or a digest mismatch (failed_frac).

    Only mismatches are failed operations of the benchmark: a seed whose
    exit code the goldens record (SearchFailureError, exit 1) reproduced
    its output and is counted here, not in the JSON ``failed``."""
    return sum(1 for sp in points if not sp.exit_ok or not wl.matches(sp))


def end_to_end(args):
    setup_s = measure_setup(args)
    with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
        wl, order = setup(args.workload, args.seed, Path(tmp))
        warm = wl.run(order[0])             # first-call costs stay untimed
        ph = closed_loop(wl, itertools.cycle(order), args.seconds)
    n = len(ph.points)
    failed = failures(wl, ph.points)
    metrics = {
        "seeds_per_s": n / ph.wall,
        "seed_ms_p50": statistics.median(ph.lat) * 1e3,
        "seed_ms_p90": (statistics.quantiles(ph.lat, n=10)[-1]
                        if n > 1 else ph.lat[0]) * 1e3,
        "cpu_ms_per_seed": ph.cpu / n * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{'metric':<18}{'value':>14}  unit")
    for name, unit in END_TO_END.items():
        print(f"{name:<18}{metrics[name]:>14.4f}  {unit}")
    print(f"{FAILED_FRAC[0]:<18}{failed / n:>14.4f}  {FAILED_FRAC[1]}")
    beyond = sum(1 for x in ph.lat if x * 1e3 > metrics["seed_ms_p90"])
    print(f"seed-points: {n} measured, {beyond} beyond p90, {failed} "
          f"with a non-zero exit or mismatch, {ph.mismatches} digest "
          f"mismatches")
    return {"correct": ph.mismatches == 0 and wl.matches(warm),
            "attempted": n, "failed": ph.mismatches,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END.items()}}


def layer_metrics(tracer, n: int, overhead: float) -> dict:
    calls, self_s = {}, {}
    for agg in tracer.spans.values():
        for (parent, name), (cnt, _total, own, _failed) in agg.items():
            calls[name] = calls.get(name, 0) + cnt
            self_s[name] = self_s.get(name, 0.0) + own
    counters: dict = {}
    for cnt in tracer.counters.values():
        for key, value in cnt.items():
            counters[key] = counters.get(key, 0) + value
    guesses = sum(agg.get(("agnostic.opt_search",
                           "agnostic.run_robust_halving"), (0,))[0]
                  for agg in tracer.spans.values())
    accepted = sum(rec[0] - rec[3] for agg in tracer.spans.values()
                   for (parent, name), rec in agg.items()
                   if name == "agnostic.opt_search")
    values = {}
    for metric, _unit in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "self_s":
            values[metric] = self_s.get(span, 0.0) / n
        elif kind == "calls":
            values[metric] = calls.get(span, 0) / n
        elif metric == "agnostic.opt_search.guesses":
            values[metric] = guesses / n
        elif metric == "agnostic.opt_search.accept_ratio":
            values[metric] = accepted / guesses if guesses else 0.0
        elif metric == "trace.overhead":
            values[metric] = overhead
        else:
            values[metric] = counters.get(metric, 0) / n
    return values


def traced(args):
    with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
        wl, order = setup(args.workload, args.seed, Path(tmp))
        warm = wl.run(order[0])
        tracer = Tracer(sys.modules["distpac"])
        # Half the time traced, then the same seed-points untraced: the
        # ratio of the two is the tracing overhead.
        with tracer:
            ph = closed_loop(wl, itertools.cycle(order), args.seconds / 2,
                             tracer)
        replay = closed_loop(wl, [sp.seed for sp in ph.points])
    n = len(ph.points)
    overhead = sum(ph.lat) / sum(replay.lat)
    values = layer_metrics(tracer, n, overhead)
    write_spans(args, tracer, ph.points, ph.lat)
    shares: dict = {}
    for agg in tracer.spans.values():
        for (_parent, name), rec in agg.items():
            module = name.split(".")[0]
            shares[module] = shares.get(module, 0.0) + rec[2]
    print(f"self time by module, share of traced seed-point time "
          f"({n} seed-points, overhead {overhead:.2f}x):")
    for module, own in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<10}{own / sum(ph.lat):>8.1%}")
    units = dict(PER_LAYER)
    for metric, value in values.items():
        print(f"{metric:<44}{value:>16.6g}  {units[metric]}")
    correct = ph.mismatches == 0 and replay.mismatches == 0 and \
        wl.matches(warm)
    return {"correct": correct, "attempted": n, "failed": ph.mismatches,
            "metrics": {m: {"value": values[m], "unit": u}
                        for m, u in PER_LAYER}}


def write_spans(args, tracer, done, lat) -> None:
    """Aggregated spans per seed-point, kept in memory until now."""
    points = []
    for i, (sp, wall) in enumerate(zip(done, lat)):
        points.append({
            "id": i, "seed": sp.seed, "wall_s": wall, "codes": sp.codes,
            "spans": [[parent, name, cnt, total, own, failed]
                      for (parent, name), (cnt, total, own, failed)
                      in sorted(tracer.spans[i].items())],
            "counters": tracer.counters[i]})
    path = bench.OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"env": env_line(args),
                                "seed_points": points}))
    print(f"spans written to {path.relative_to(bench.ROOT)}")


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    results = {}
    for name in bench.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        print(lines[-2])
        results[name] = json.loads(lines[-1])
        results[name][FAILED_FRAC[0]] = next(
            float(line.split()[1]) for line in lines
            if line.startswith(FAILED_FRAC[0] + " "))
    rows = list(END_TO_END.items()) + [FAILED_FRAC] if not args.trace \
        else PER_LAYER
    print(f"{'metric':<44}{'unit':<7}"
          + "".join(f"{n:>16}" for n in bench.WORKLOADS))
    for metric, unit in rows:
        cells = []
        for name in bench.WORKLOADS:
            res = results[name]
            value = res[metric] if metric == FAILED_FRAC[0] else \
                res["metrics"][metric]["value"]
            cells.append(f"{value:>16.6g}")
        print(f"{metric:<44}{unit:<7}" + "".join(cells))
    for name in bench.WORKLOADS:
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    bench.pin_threads()
    if args.workload == "all":
        return run_all(args)
    bench.OUT.mkdir(exist_ok=True)
    try:
        if args.setup_probe:
            with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
                setup(args.workload, args.seed, Path(tmp))
                print("ready", flush=True)
            return 0
        bench.load_distpac()
        result = traced(args) if args.trace else end_to_end(args)
    except bench.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(env_line(args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
