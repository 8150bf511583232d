"""Batch experiment runner.

``distpac run config.yaml`` executes one protocol over a seed range and
writes results.csv (one row per seed), summary.json (aggregates plus wall
time), and trace.csv for the adversarial perceptron construction.
``distpac compare dirA dirB`` prints per-currency ratios of medians.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
from .core import (Box, ConfigurationError, Conjunction, IntervalUnion,
                   LinearSeparator, ParityFunc, PointMassList,
                   ProductBernoulli, ProtocolError, ProtocolResult,
                   Threshold, UniformBoolean, UniformInterval, UniformSphere,
                   draw_sample, sample_error, stream)

OUT_ROOT_ENV = "DISTPAC_OUT_ROOT"
# libyaml's parser when pyyaml was built with it; the resolver, and so the
# parsed mapping, is SafeLoader's either way
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Config validation failure with a field diagnostic."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

REQUIRED = object()


def _conforms(value, typ) -> bool:
    if isinstance(typ, tuple):
        return any(_conforms(value, t) for t in typ)
    if isinstance(typ, list):
        return isinstance(value, list) and \
            all(_conforms(v, typ[0]) for v in value)
    if isinstance(value, bool):
        return typ is bool
    return isinstance(value, (int, float) if typ is float else typ)


def _describe(typ) -> str:
    if isinstance(typ, tuple):
        return " or ".join(_describe(t) for t in typ)
    if isinstance(typ, list):
        return f"a list of ({_describe(typ[0])})"
    return "null" if typ is type(None) else typ.__name__


def _field(cfg: dict, name: str, typ, default=REQUIRED):
    """Config field ``name`` (dots reach into sub-mappings) of type ``typ``:
    a type, ``[typ]`` for a list, or a tuple of choices.  An int is a valid
    float (returned as one); a bool is neither.  A missing required field or
    a value of another type is a ConfigError that names the field."""
    *parents, leaf = name.split(".")
    for key in parents:
        cfg = _field(cfg, key, dict, {})
    if leaf not in cfg:
        if default is REQUIRED:
            raise ConfigError(f"missing required field '{name}'")
        return default
    value = cfg[leaf]
    if not _conforms(value, typ):
        raise ConfigError(f"field '{name}' must be {_describe(typ)}, "
                          f"got {value!r}")
    return float(value) if typ is float else value


def _fraction(cfg: dict, name: str, default=REQUIRED) -> float:
    value = _field(cfg, name, float, default)
    if not 0 < value < 1:
        raise ConfigError(f"field '{name}' must be in (0,1), got {value!r}")
    return value


def _count(cfg: dict, name: str, default=REQUIRED) -> int:
    """An int field that sizes something, so must be >= 1."""
    value = _field(cfg, name, int, default)
    if value < 1:
        raise ConfigError(f"field '{name}' must be >= 1, got {value!r}")
    return value


def build_distribution(entry: dict, dim: int):
    kind = _field(entry, "kind", str, "uniform_boolean")
    if kind == "uniform_boolean":
        return UniformBoolean(dim)
    if kind == "product_bernoulli":
        p = _field(entry, "p", (float, [float]), 0.5)
        probs = tuple(map(float, p if isinstance(p, list) else [p] * dim))
        if len(probs) != dim:
            raise ConfigError(f"field 'p' must have length {dim}, "
                              f"got {p!r}")
        if not all(0.0 <= v <= 1.0 for v in probs):
            raise ConfigError(f"field 'p' must lie in [0, 1], got {p!r}")
        return ProductBernoulli(probs)
    if kind in ("uniform_sphere", "gaussian_unit"):
        return UniformSphere(dim)
    if kind == "uniform_interval":
        if dim != 1:
            raise ConfigError("field 'kind': uniform_interval is "
                              f"1-dimensional, the protocol needs {dim}")
        lo = _field(entry, "lo", float, 0.0)
        hi = _field(entry, "hi", float, 1.0)
        if not lo < hi:
            raise ConfigError("fields 'lo' and 'hi' must have lo < hi, "
                              f"got {lo!r}, {hi!r}")
        return UniformInterval(lo, hi)
    if kind == "point_mass":
        points = _field(entry, "points", [[float]])
        if any(len(pt) != dim for pt in points):
            raise ConfigError(f"field 'points' must list points of dimension "
                              f"{dim}, got {points!r}")
        probs = _field(entry, "probabilities", [float])
        try:
            return PointMassList(tuple(map(tuple, points)), tuple(probs))
        except ConfigurationError as exc:  # count, sign or sum
            raise ConfigError(f"field 'probabilities': {exc}, "
                              f"got {probs!r}") from None
    raise ConfigError(f"unknown distribution kind '{kind}'")


def _setup(cfg: dict, dim: int, default_kind: str = "uniform_boolean"):
    """(eps, delta, specs): the accuracy fields and one distribution per
    player, ``default_kind`` for each when ``distributions`` is absent."""
    eps = _fraction(cfg, "eps")
    delta = _fraction(cfg, "delta", 0.05)
    k = _count(cfg, "k")
    entries = _field(cfg, "distributions", [dict], [{"kind": default_kind}] * k)
    if len(entries) != k:
        raise ConfigError(f"'distributions' lists {len(entries)} players, "
                          f"but k = {k}")
    return eps, delta, [build_distribution(e, dim) for e in entries]


def _random_conjunction(n: int, seed: int) -> Conjunction:
    rng = stream(seed, "cli_target", "conjunction")
    vars_ = rng.choice(n, size=min(max(1, n // 4), n), replace=False)
    return Conjunction(n, frozenset(int(v) for v in vars_))


def _threshold_class(grid: int) -> list:
    """Both orientations of a threshold at each of ``grid`` points of [0, 1]."""
    return [Threshold(float(t), s)
            for t in np.linspace(0.0, 1.0, grid) for s in (1, -1)]


# ---------------------------------------------------------------------------
# Protocol registry: name -> callable(cfg, seed) -> ProtocolResult
# ---------------------------------------------------------------------------


def _run_closed(cfg, seed, cls):
    dim = _count(cfg, "n" if cls is Conjunction else "d")
    eps, delta, specs = _setup(cfg, dim)
    if cls is Conjunction:
        vars_cfg = _field(cfg, "target.variables", [int], None)
        if vars_cfg is None:
            f = _random_conjunction(dim, seed)
        elif not all(0 <= j < dim for j in vars_cfg):
            raise ConfigError("field 'target.variables' must lie in "
                              f"[0, n) = [0, {dim}), got {vars_cfg!r}")
        else:  # [] is the all-true conjunction
            f = Conjunction(dim, frozenset(vars_cfg))
    else:
        lo = _field(cfg, "target.lo", [float], [0.25] * dim)
        hi = _field(cfg, "target.hi", [float], [0.75] * dim)
        for name, corner in (("lo", lo), ("hi", hi)):
            if len(corner) != dim:
                raise ConfigError(f"field 'target.{name}' must have length "
                                  f"d = {dim}, got {corner!r}")
        if any(a > b for a, b in zip(lo, hi)):
            raise ConfigError("fields 'target.lo' and 'target.hi' must have "
                              f"lo <= hi on every axis, got {lo!r}, {hi!r}")
        f = Box(tuple(lo), tuple(hi))
    return closed.run_intersection_closed(specs, f, eps, delta, seed,
                                          c=_field(cfg, "c", float, 1.0))


def _run_parity(cfg, seed):
    n = _count(cfg, "n")
    eps, _delta, specs = _setup(cfg, n)
    rng = stream(seed, "cli_target", "parity")
    v = tuple(int(b) for b in rng.integers(0, 2, size=n))
    if not any(v):
        v = (1,) + v[1:]
    f = ParityFunc(n, v)
    return parity_mod.run_parity_two_player(specs, f, eps, seed,
                                            c=_field(cfg, "c", float, 8.0))


def _run_decision_list(cfg, seed):
    n = _count(cfg, "n")
    eps, delta, specs = _setup(cfg, n)
    n_rules = _count(cfg, "n_rules", 10)
    if n_rules > 2 * n:
        raise ConfigError(f"field 'n_rules' must be <= 2n = {2 * n}, "
                          f"got {n_rules}")
    f = declist.random_decision_list(n, n_rules, seed)
    return declist.run_decision_list(specs, f, eps, delta, seed)


def _run_sample_shipping(cfg, seed):
    n = _count(cfg, "n")
    eps, _delta, specs = _setup(cfg, n)
    f = _random_conjunction(n, seed)
    learner = lambda s: closed.smallest_consistent(s, Conjunction)
    return baseline.sample_shipping(specs, f, eps, learner, n, seed)


def _run_eq_conjunction(cfg, seed):
    n = _count(cfg, "n")
    eps, delta, specs = _setup(cfg, n)
    f = _random_conjunction(n, seed)
    m = closed.pac_sample_size(n, eps, len(specs), delta)
    samples = [draw_sample(spec, f, m, seed, tags=("eq", i))
               for i, spec in enumerate(specs)]
    return baseline.eq_mistake_bound(samples,
                                     baseline.ConjunctionElimination(n))


def _run_averaging(cfg, seed):
    d = _count(cfg, "d")
    eps, _delta, specs = _setup(cfg, d, "uniform_sphere")
    f = LinearSeparator(tuple([1.0] + [0.0] * (d - 1)))
    return linear.averaging_protocol(specs, f, eps, seed)


def _run_round_robin(cfg, seed):
    gamma = _field(cfg, "gamma", float, 0.2)
    alpha = _field(cfg, "alpha", float, 0.05)
    samples, _f = linear.well_spread_dataset(
        _count(cfg, "k"), _count(cfg, "per_player", 40), gamma, alpha,
        seed)
    linear.certify_well_spread(samples, alpha)
    return linear.round_robin_perceptron(
        samples, linear.UNTIL_CONSISTENT, 0.0, alpha,
        update_cap=linear.default_update_cap(gamma))


def _run_adversarial_perceptron(cfg, seed):
    gamma = _field(cfg, "gamma", float, 0.1)
    rounds, trace = linear.adversarial_lower_bound(gamma)
    res = ProtocolResult(hypotheses={}, ledger=channel.CostLedger(),
                         trace=trace, meta={"rounds_to_consistency": rounds,
                                            "gamma": gamma})
    res.ledger.rounds = rounds
    return res


def _run_boosting(cfg, seed):
    n = _count(cfg, "n")
    eps, delta, specs = _setup(cfg, n)
    f = _random_conjunction(n, seed)
    q = _field(cfg, "q", (int, type(None)), 32)
    return boosting.run_distributed_boosting(
        specs, f, eps, delta, seed, beta=_field(cfg, "beta", float, 0.25),
        q=q if q is None else _count(cfg, "q", 32))


def _run_robust_halving(cfg, seed):
    eps, _delta, specs = _setup(cfg, 1)
    H = _threshold_class(_count(cfg, "grid", 201))
    f = Threshold(_field(cfg, "target_t", float, 0.37), 1)
    res = agnostic.opt_search(
        specs, f, H, eps, seed,
        noise_rate=_field(cfg, "noise_rate", float, 0.0),
        shared_randomness=_field(cfg, "shared_randomness", bool, False))
    val = draw_sample(specs[0], f, 4000, seed, tags=("cli_val",))
    res.errors = {"mixture": sample_error(res.hypotheses[channel.BROADCAST],
                                          val)}
    return res


def _run_interval_summary(cfg, seed):
    d = _count(cfg, "d")
    eps = _fraction(cfg, "eps")
    intervals = _field(cfg, "target.intervals", [[float]],
                       [[0.1, 0.3], [0.5, 0.6], [0.8, 0.95]][:d])
    if any(len(iv) != 2 or iv[0] > iv[1] for iv in intervals):
        raise ConfigError("field 'target.intervals' must list [lo, hi] "
                          f"pairs with lo <= hi, got {intervals!r}")
    f = IntervalUnion(tuple(tuple(iv) for iv in intervals))
    noise = _field(cfg, "noise_rate", float, 0.0)
    m = _count(cfg, "m_per_player", 4000)
    samples = [draw_sample(UniformInterval(), f, m, seed,
                           noise_rate=noise, tags=("interval", i))
               for i in range(_count(cfg, "k"))]
    res = agnostic.run_interval_summary(samples, d, eps)
    val = draw_sample(UniformInterval(), f, 8000, seed, tags=("cli_val",))
    res.errors = {"mixture": sample_error(res.hypotheses[channel.CENTER],
                                          val)}
    return res


def _run_private_conjunction(cfg, seed):
    n = _count(cfg, "n")
    eps, _delta, specs = _setup(cfg, n)
    f = _random_conjunction(n, seed)
    return privacy_mod.private_conjunction_protocol(
        specs, f, eps, seed,
        mode=_field(cfg, "privacy.mode", str, "differential"),
        alpha=_field(cfg, "privacy.alpha", float, 1.0),
        delta=_field(cfg, "privacy.delta", float, 0.05))


PROTOCOLS = {
    "closed_conjunction": lambda c, s: _run_closed(c, s, Conjunction),
    "closed_box": lambda c, s: _run_closed(c, s, Box),
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
            seeds = list(range(int(a), int(b) + 1))
        except ValueError:
            raise ConfigError(f"bad --seed-range '{seed_range}', "
                              "expected a..b")
    else:
        seeds = _field(cfg, "seeds", (int, [int]), 0)
        if isinstance(seeds, int):
            seeds = [seeds]
        elif len(seeds) == 2:
            seeds = list(range(seeds[0], seeds[1] + 1))
    if not seeds:
        raise ConfigError("the seed selection is empty")
    return seeds


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)


def _quantiles(table: list) -> list:
    """{median, p90} of each column of a table of rows, one numpy call
    each over the whole table."""
    cols = np.array(table, dtype=np.float64)
    return [{"median": float(med), "p90": float(p90)} for med, p90 in
            zip(np.median(cols, axis=0), np.percentile(cols, 90, axis=0))]


def run_config(path: str, seed_range: str | None = None,
               out_dir: str | None = None) -> int:
    try:
        try:
            with open(path) as fh:
                cfg = yaml.load(fh, Loader=YAML_LOADER)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a mapping")
        name = _field(cfg, "protocol", str)
        if name not in PROTOCOLS:
            raise ConfigError(f"unknown protocol '{name}'; valid: "
                              + ", ".join(sorted(PROTOCOLS)))
        seeds = _parse_seeds(cfg, seed_range)
        out = Path(out_dir or _field(cfg, "out", str, None)
                   or os.environ.get(OUT_ROOT_ENV, "results")) \
            / _field(cfg, "name", str, name)
        runner = PROTOCOLS[name]
        counters = channel.CostLedger.COUNTERS
        scopes = ["mixture"] + [f"p{i + 1}"
                                for i in range(_count(cfg, "k", 1))]
        header = ["protocol", "seed", *counters] \
            + [f"error_{scope}" for scope in scopes]
        rows, counts, mixture, trace_rows = [], [], [], []
        wall_total = 0.0
        for seed in seeds:
            t0 = time.perf_counter()
            res = runner(cfg, seed)
            wall_total += time.perf_counter() - t0
            counts.append([getattr(res.ledger, c) for c in counters])
            errors = [res.errors.get(scope, "") for scope in scopes]
            rows.append([name, seed, *counts[-1], *errors])
            if errors[0] != "":
                mixture.append(errors[:1])
            trace_rows += [[seed, rnd, player] + list(ex) + list(hyp)
                           for (rnd, player, ex, hyp) in res.trace or ()]
        # only now: a config or protocol error in any seed writes nothing
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "results.csv", header, rows)
        if trace_rows:
            width = (len(trace_rows[0]) - 3) // 2
            _write_csv(out / "trace.csv", ["seed", "round", "player"]
                       + [f"x{i}" for i in range(width)]
                       + [f"w{i}" for i in range(width)], trace_rows)
        summary = {
            "protocol": name,
            "params": {key: cfg.get(key) for key in
                       ("n", "d", "k", "eps", "delta", "gamma")
                       if key in cfg},
            "seeds": len(seeds),
            "wall_ms": round(wall_total * 1000.0, 3),
        }
        summary.update(zip(counters, _quantiles(counts)))
        if mixture:
            summary["error_mixture"], = _quantiles(mixture)
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


CURRENCIES = ("bits", "examples", "rounds")


def compare(dir_a: str, dir_b: str) -> int:
    runs = []
    for run_dir in (dir_a, dir_b):
        p = Path(run_dir) / "summary.json"
        try:  # unreadable, not JSON, or without an entry compare reads
            summary = json.loads(p.read_bytes())
            runs.append((summary["params"], [float(summary[cur]["median"])
                                             for cur in CURRENCIES]))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: cannot read {p}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 2
    (params_a, medians_a), (params_b, medians_b) = runs
    if params_a != params_b:
        print("error: comparison refused, class parameters differ: "
              f"{params_a} vs {params_b}", file=sys.stderr)
        return 2
    print(f"{'currency':<12}{'A median':>14}{'B median':>14}{'ratio':>10}")
    for cur, ma, mb in zip(CURRENCIES, medians_a, medians_b):
        ratio = ma / mb if mb else (1.0 if ma == 0 else math.inf)
        print(f"{cur:<12}{ma:>14.6g}{mb:>14.6g}{ratio:>10.4g}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    parser = _parser()
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
