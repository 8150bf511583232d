"""Batch experiment runner.

``distpac run config.yaml`` executes one protocol over a seed range and
writes results.csv (one row per seed), summary.json (aggregates plus wall
time), and trace.csv for the adversarial perceptron construction.
``distpac compare dirA dirB`` prints per-currency ratios of medians.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import agnostic, baseline, boosting, channel, closed, declist, linear
from . import parity as parity_mod
from . import privacy as privacy_mod
from .core import (ConfigurationError, Conjunction, DecisionListFunc,
                   IntervalUnion, LinearSeparator, ParityFunc,
                   ProtocolError, ProtocolResult, Threshold,
                   UniformBoolean, UniformInterval, draw_sample,
                   sample_error, stream)

OUT_ROOT_ENV = "DISTPAC_OUT_ROOT"


class ConfigError(ValueError):
    """Config validation failure with a field diagnostic."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _require(cfg: dict, field: str, typ=None):
    if field not in cfg:
        raise ConfigError(f"missing required field '{field}'")
    value = cfg[field]
    if typ is not None and not isinstance(value, typ):
        raise ConfigError(f"field '{field}' must be {typ}, got {value!r}")
    return value


def _check_eps(eps) -> float:
    if not isinstance(eps, (int, float)) or not (0 < eps < 1):
        raise ConfigError("field 'eps' must be in (0,1)")
    return float(eps)


def build_distribution(entry: dict, dim: int):
    from .core import (GaussianSphericalUnitNorm, PointMassList,
                       ProductBernoulli, UniformSphere)
    kind = entry.get("kind", "uniform_boolean")
    if kind == "uniform_boolean":
        return UniformBoolean(dim)
    if kind == "product_bernoulli":
        p = entry.get("p", 0.5)
        probs = tuple([float(p)] * dim) if isinstance(p, (int, float)) \
            else tuple(float(v) for v in p)
        if len(probs) != dim:
            raise ConfigError(f"product_bernoulli p has length {len(probs)}, "
                              f"expected {dim}")
        return ProductBernoulli(probs)
    if kind == "uniform_sphere":
        return UniformSphere(dim)
    if kind == "gaussian_unit":
        return GaussianSphericalUnitNorm(dim)
    if kind == "uniform_interval":
        return UniformInterval(float(entry.get("lo", 0.0)),
                               float(entry.get("hi", 1.0)))
    if kind == "point_mass":
        return PointMassList(tuple(tuple(p) for p in entry["points"]),
                             tuple(entry["probabilities"]))
    raise ConfigError(f"unknown distribution kind '{kind}'")


def _specs(cfg: dict, dim: int) -> list:
    k = _require(cfg, "k", int)
    if k < 1:
        raise ConfigError("field 'k' must be >= 1")
    entries = cfg.get("distributions", [{}] * k)
    if len(entries) != k:
        raise ConfigError(f"'distributions' lists {len(entries)} players, "
                          f"but k = {k}")
    return [build_distribution(e, dim) for e in entries]


def _random_conjunction(n: int, seed: int, size: int) -> Conjunction:
    rng = stream(seed, "cli_target", "conjunction")
    vars_ = rng.choice(n, size=min(size, n), replace=False)
    return Conjunction(n, frozenset(int(v) for v in vars_))


def _threshold_class(grid: int) -> list:
    """Both orientations of a threshold at each of ``grid`` points of [0, 1]."""
    return [Threshold(float(t), s)
            for t in np.linspace(0.0, 1.0, grid) for s in (1, -1)]


# ---------------------------------------------------------------------------
# Protocol registry: name -> callable(cfg, seed) -> ProtocolResult
# ---------------------------------------------------------------------------


def _run_closed(cfg, seed, cls):
    dim = _require(cfg, "n" if cls == "conjunction" else "d", int)
    eps = _check_eps(_require(cfg, "eps"))
    delta = float(cfg.get("delta", 0.05))
    specs = _specs(cfg, dim)
    if cls == "conjunction":
        vars_cfg = cfg.get("target", {}).get("variables")
        f = Conjunction(dim, frozenset(vars_cfg)) if vars_cfg else \
            _random_conjunction(dim, seed, max(1, dim // 4))
    else:
        t = cfg.get("target", {})
        from .core import Box
        f = Box(tuple(t.get("lo", [0.25] * dim)),
                tuple(t.get("hi", [0.75] * dim)))
    return closed.run_intersection_closed(specs, f, eps, delta, cls, seed,
                                          c=float(cfg.get("c", 1.0)))


def _run_parity(cfg, seed):
    n = _require(cfg, "n", int)
    eps = _check_eps(_require(cfg, "eps"))
    specs = _specs(cfg, n)
    rng = stream(seed, "cli_target", "parity")
    v = tuple(int(b) for b in rng.integers(0, 2, size=n))
    if not any(v):
        v = (1,) + v[1:]
    f = ParityFunc(n, v)
    return parity_mod.run_parity_two_player(specs, f, eps,
                                            float(cfg.get("delta", 0.05)),
                                            seed, c=float(cfg.get("c", 8.0)))


def _run_decision_list(cfg, seed):
    n = _require(cfg, "n", int)
    eps = _check_eps(_require(cfg, "eps"))
    specs = _specs(cfg, n)
    f = declist.random_decision_list(n, int(cfg.get("n_rules", 10)), seed)
    return declist.run_decision_list(specs, f, eps,
                                     float(cfg.get("delta", 0.05)), seed)


def _run_sample_shipping(cfg, seed):
    n = _require(cfg, "n", int)
    eps = _check_eps(_require(cfg, "eps"))
    specs = _specs(cfg, n)
    f = _random_conjunction(n, seed, max(1, n // 4))
    learner = lambda s: closed.smallest_consistent(s, "conjunction")
    return baseline.sample_shipping(specs, f, eps,
                                    float(cfg.get("delta", 0.05)), learner,
                                    n, seed)


def _run_eq_conjunction(cfg, seed):
    n = _require(cfg, "n", int)
    eps = _check_eps(_require(cfg, "eps"))
    specs = _specs(cfg, n)
    f = _random_conjunction(n, seed, max(1, n // 4))
    m = closed.pac_sample_size(n, eps, len(specs),
                               float(cfg.get("delta", 0.05)))
    samples = [draw_sample(spec, f, m, seed, tags=("eq", i))
               for i, spec in enumerate(specs)]
    return baseline.eq_mistake_bound(samples,
                                     baseline.ConjunctionElimination(n))


def _run_averaging(cfg, seed):
    d = _require(cfg, "d", int)
    eps = _check_eps(_require(cfg, "eps"))
    cfg = dict(cfg)
    cfg.setdefault("distributions", [{"kind": "gaussian_unit"}] * cfg["k"])
    specs = _specs(cfg, d)
    f = LinearSeparator(tuple([1.0] + [0.0] * (d - 1)))
    return linear.averaging_protocol(specs, f, eps, seed)


def _run_round_robin(cfg, seed):
    gamma = float(cfg.get("gamma", 0.2))
    alpha = float(cfg.get("alpha", 0.05))
    k = _require(cfg, "k", int)
    per_player = int(cfg.get("per_player", 40))
    samples, _f = linear.well_spread_dataset(k, per_player, gamma, alpha,
                                             seed)
    linear.certify_well_spread(samples, alpha)
    return linear.round_robin_perceptron(
        samples, linear.UNTIL_CONSISTENT, 0.0, alpha,
        update_cap=linear.default_update_cap(gamma))


def _run_adversarial_perceptron(cfg, seed):
    gamma = float(cfg.get("gamma", 0.1))
    rounds, trace = linear.adversarial_lower_bound(gamma)
    res = ProtocolResult(hypotheses={}, ledger=channel.CostLedger(),
                         meta={"rounds_to_consistency": rounds,
                               "gamma": gamma})
    res.ledger.rounds = rounds
    res.trace = trace
    return res


def _run_boosting(cfg, seed):
    n = _require(cfg, "n", int)
    eps = _check_eps(_require(cfg, "eps"))
    specs = _specs(cfg, n)
    f = _random_conjunction(n, seed, max(1, n // 4))
    return boosting.run_distributed_boosting(
        specs, f, eps, float(cfg.get("delta", 0.05)), seed,
        beta=float(cfg.get("beta", 0.25)),
        q=cfg.get("q", 32))


def _run_robust_halving(cfg, seed):
    eps = _check_eps(_require(cfg, "eps"))
    specs = _specs(cfg, 1)
    H = _threshold_class(int(cfg.get("grid", 201)))
    f = Threshold(float(cfg.get("target_t", 0.37)), 1)
    noise = float(cfg.get("noise_rate", 0.0))
    res = agnostic.opt_search(specs, f, H, eps,
                              float(cfg.get("delta", 0.05)), seed,
                              noise_rate=noise,
                              shared_randomness=bool(
                                  cfg.get("shared_randomness", False)))
    h = res.hypotheses[channel.BROADCAST]
    val = draw_sample(specs[0], f, 4000, seed, tags=("cli_val",))
    res.errors = {"mixture": sample_error(h, val)}
    return res


def _run_interval_summary(cfg, seed):
    d = _require(cfg, "d", int)
    eps = _check_eps(_require(cfg, "eps"))
    k = _require(cfg, "k", int)
    intervals = cfg.get("target", {}).get(
        "intervals", [[0.1, 0.3], [0.5, 0.6], [0.8, 0.95]][:d])
    f = IntervalUnion(tuple(tuple(iv) for iv in intervals))
    noise = float(cfg.get("noise_rate", 0.0))
    m = int(cfg.get("m_per_player", 4000))
    samples = [draw_sample(UniformInterval(), f, m, seed,
                           noise_rate=noise, tags=("interval", i))
               for i in range(k)]
    res = agnostic.run_interval_summary(samples, d, eps)
    h = res.hypotheses[channel.CENTER]
    val = draw_sample(UniformInterval(), f, 8000, seed, tags=("cli_val",))
    res.errors = {"mixture": sample_error(h, val)}
    return res


def _run_private_conjunction(cfg, seed):
    n = _require(cfg, "n", int)
    eps = _check_eps(_require(cfg, "eps"))
    specs = _specs(cfg, n)
    priv = cfg.get("privacy", {})
    f = _random_conjunction(n, seed, max(1, n // 4))
    return privacy_mod.private_conjunction_protocol(
        specs, f, eps, seed,
        mode=priv.get("mode", "differential"),
        alpha=float(priv.get("alpha", 1.0)),
        delta=float(priv.get("delta", 0.05)))


PROTOCOLS = {
    "closed_conjunction": lambda c, s: _run_closed(c, s, "conjunction"),
    "closed_box": lambda c, s: _run_closed(c, s, "box"),
    "parity_two_player": _run_parity,
    "decision_list": _run_decision_list,
    "sample_shipping": _run_sample_shipping,
    "eq_conjunction": _run_eq_conjunction,
    "averaging": _run_averaging,
    "round_robin_perceptron": _run_round_robin,
    "adversarial_perceptron": _run_adversarial_perceptron,
    "boosting": _run_boosting,
    "robust_halving": _run_robust_halving,
    "interval_summary": _run_interval_summary,
    "private_conjunction": _run_private_conjunction,
}


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _parse_seeds(cfg: dict, seed_range: str | None) -> list:
    if seed_range:
        a, _, b = seed_range.partition("..")
        try:
            return list(range(int(a), int(b) + 1))
        except ValueError:
            raise ConfigError(f"bad --seed-range '{seed_range}', "
                              "expected a..b")
    seeds = cfg.get("seeds", 0)
    if isinstance(seeds, int):
        return [seeds]
    if isinstance(seeds, list) and len(seeds) == 2 and \
            all(isinstance(v, int) for v in seeds):
        return list(range(seeds[0], seeds[1] + 1))
    if isinstance(seeds, list):
        return [int(v) for v in seeds]
    raise ConfigError("field 'seeds' must be an int, [first, last], or a "
                      "list of ints")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def run_config(path: str, seed_range: str | None = None,
               out_dir: str | None = None) -> int:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        print(f"error: config file not found: {path}", file=sys.stderr)
        return 2
    except yaml.YAMLError as exc:
        print(f"error: malformed config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("error: config must be a mapping", file=sys.stderr)
        return 2
    try:
        name = _require(cfg, "protocol", str)
        if name not in PROTOCOLS:
            raise ConfigError(f"unknown protocol '{name}'; valid: "
                              + ", ".join(sorted(PROTOCOLS)))
        seeds = _parse_seeds(cfg, seed_range)
        out = Path(out_dir or cfg.get("out")
                   or os.environ.get(OUT_ROOT_ENV, "results")) \
            / cfg.get("name", name)
        runner = PROTOCOLS[name]

        k = int(cfg.get("k", 1))
        err_cols = [f"error_p{i + 1}" for i in range(k)]
        header = ["protocol", "seed", "bits", "examples", "hypotheses",
                  "rounds", "meta_rounds", "error_mixture"] + err_cols
        rows = []
        wall_total = 0.0
        trace_rows = []
        for seed in seeds:
            t0 = time.perf_counter()
            res = runner(cfg, seed)
            wall_total += time.perf_counter() - t0
            led = res.ledger
            row = [name, seed, led.bits, led.examples, led.hypotheses,
                   led.rounds, led.meta_rounds,
                   res.errors.get("mixture", "")]
            row += [res.errors.get(f"p{i + 1}", "") for i in range(k)]
            rows.append(row)
            if res.trace:
                for (rnd, player, ex, hyp) in res.trace:
                    trace_rows.append([seed, rnd, player]
                                      + list(ex) + list(hyp))
        # only now: a config or protocol error in any seed writes nothing
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "results.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
        if trace_rows:
            width = (len(trace_rows[0]) - 3) // 2
            with open(out / "trace.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["seed", "round", "player"]
                           + [f"x{i}" for i in range(width)]
                           + [f"w{i}" for i in range(width)])
                for row in trace_rows:
                    w.writerow([_fmt(v) for v in row])
        summary = {
            "protocol": name,
            "params": {key: cfg.get(key) for key in
                       ("n", "d", "k", "eps", "delta", "gamma")
                       if key in cfg},
            "seeds": len(seeds),
            "wall_ms": round(wall_total * 1000.0, 3),
        }
        for idx, col in enumerate(header[2:7], start=2):
            vals = [float(r[idx]) for r in rows]
            summary[col] = {"median": float(np.median(vals)),
                            "p90": float(np.percentile(vals, 90))}
        errs = [float(r[7]) for r in rows if r[7] != ""]
        if errs:
            summary["error_mixture"] = {
                "median": float(np.median(errs)),
                "p90": float(np.percentile(errs, 90))}
        with open(out / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"wrote {out / 'results.csv'} ({len(rows)} rows)")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, ConfigurationError) as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 1


def compare(dir_a: str, dir_b: str) -> int:
    summaries = []
    for d in (dir_a, dir_b):
        p = Path(d) / "summary.json"
        if not p.exists():
            print(f"error: missing {p}", file=sys.stderr)
            return 2
        with open(p) as fh:
            summaries.append(json.load(fh))
    a, b = summaries
    if a["params"] != b["params"]:
        print("error: comparison refused, class parameters differ: "
              f"{a['params']} vs {b['params']}", file=sys.stderr)
        return 2
    print(f"{'currency':<12}{'A median':>14}{'B median':>14}{'ratio':>10}")
    for cur in ("bits", "examples", "rounds"):
        ma, mb = a[cur]["median"], b[cur]["median"]
        if mb:
            ratio = ma / mb
        else:
            ratio = 1.0 if ma == 0 else math.inf
        print(f"{cur:<12}{ma:>14.6g}{mb:>14.6g}{ratio:>10.4g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="distpac",
        description="Communication-metered distributed learning protocols.")
    parser.add_argument("--list-protocols", action="store_true",
                        help="list runnable protocol names and exit")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed-range", default=None, metavar="a..b")
    p_run.add_argument("--out", default=None)
    p_cmp = sub.add_parser("compare", help="compare two run directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    args = parser.parse_args(argv)
    if args.list_protocols:
        for name in sorted(PROTOCOLS):
            print(name)
        return 0
    if args.command == "run":
        return run_config(args.config, args.seed_range, args.out)
    if args.command == "compare":
        return compare(args.dir_a, args.dir_b)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
