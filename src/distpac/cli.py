"""Batch experiment runner.

``distpac run config.yaml`` reads and checks the whole config against the
fields its protocol declares in ``TABLE`` (README's field table renders it)
before any seed runs, then executes the protocol over a seed range and writes
results.csv (one row per seed), summary.json (aggregates plus wall time) and
trace.csv for the adversarial perceptron construction.
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
from collections import namedtuple
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
                   boolean_rows, draw_sample, sample_error, stream)

OUT_ROOT_ENV = "DISTPAC_OUT_ROOT"
# libyaml's parser when pyyaml was built with it; the resolver, and so the
# parsed mapping, is SafeLoader's either way
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Config validation failure with a field diagnostic."""


# ---------------------------------------------------------------------------
# Config fields: each protocol declares its fields; one reader reads them
# ---------------------------------------------------------------------------

REQUIRED = object()
ALWAYS_ALLOWED = ("protocol", "name", "out", "seeds")  # run_config reads them
# a field's type (as _field takes it), README wording, range ok, error wording
Kind = namedtuple("Kind", "typ doc ok want", defaults=("", None, ""))
# a field's dotted name, kind, default (REQUIRED, a value, or a function of
# the values before it), README wording of kind and default if not the usual,
# and then(values): a check against the values before it, giving any new value
Field = namedtuple("Field", "name kind default doc shown then",
                   defaults=(REQUIRED, None, None, None))
COUNT = Kind(int, "int ≥ 1", lambda v: v >= 1, "be >= 1")
FRACTION = Kind(float, "float in (0, 1)", lambda v: 0 < v < 1, "be in (0,1)")
POSITIVE = Kind(float, "float > 0", lambda v: v > 0, "be > 0")
FLOAT = Kind(float, "float")


def _conforms(value, typ) -> bool:
    if isinstance(typ, tuple):
        return any(_conforms(value, t) for t in typ)
    if isinstance(typ, list):
        return isinstance(value, list) and \
            all(_conforms(v, typ[0]) for v in value)
    if isinstance(value, bool):
        return typ is bool
    if typ is float:  # finite: YAML reads .inf and .nan as floats
        return isinstance(value, (int, float)) and \
            abs(value) <= sys.float_info.max
    return isinstance(value, typ)


def _describe(typ) -> str:
    if isinstance(typ, tuple):
        return " or ".join(_describe(t) for t in typ)
    if isinstance(typ, list):
        return f"a list of ({_describe(typ[0])})"
    return {type(None): "null", float: "finite float"}.get(typ, typ.__name__)


def _field(cfg: dict, name: str, typ, default=REQUIRED):
    """Config field ``name`` (dots reach into sub-mappings) of type ``typ``:
    a type, ``[typ]`` for a list, or a tuple of choices.  A float is finite;
    an int is a valid float (returned as one); a bool is neither."""
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


def _fail(names, what: str, *got):
    """Raise the ConfigError: fields ``names``, holding ``got``, ``what``."""
    *rest, last = [f"'{name}'" for name in names]
    named = f"fields {', '.join(rest)} and {last}" if rest else f"field {last}"
    got = f", got {', '.join(map(repr, got))}" if got else ""
    raise ConfigError(named + what + got)


def _check(name: str, value, ok: bool, want: str):
    return value if ok else _fail((name,), f" must {want}", value)


def _read(cfg: dict, fields, values: dict) -> dict:
    """``values`` and each of ``fields``, in order, read and checked."""
    for name, (typ, _doc, ok, want), default, _, _, then in fields:
        default = default(values) if callable(default) else default
        values[name] = value = _field(cfg, name, typ, default)
        _check(name, value, not ok or ok(value), want)
        if then:
            values[name] = then(values) or value
    return values


def _undeclared(cfg: dict, names, prefix: str = "") -> list:
    """Dotted names of the undeclared keys of ``cfg``, nested ones too."""
    heads, out = {name.partition(".")[0] for name in names}, []
    for key, value in cfg.items():
        if key not in heads:
            out.append(f"{prefix}{key}")
        elif isinstance(value, dict):  # target or privacy, with dotted names
            out += _undeclared(value, [n.partition(".")[2] for n in names
                                       if n.startswith(f"{key}.")],
                               f"{prefix}{key}.")
        elif key == "distributions":
            for i, entry in enumerate(value):
                fields = KINDS[entry.get("kind", "uniform_boolean")]
                out += _undeclared(entry, ["kind", *(f.name for f in fields)],
                                   f"{prefix}{key}[{i}].")
    return out


def _sized(v: dict, names: str, size, limit=int(np.iinfo(np.intp).max),
           want: str = " must give a sample size numpy can index") -> None:
    """Reject fields ``names`` whose ``size(*values)`` is no int in [0, limit]
    (numpy indexes by intp) or raises: eps² is 0, or ceil meets inf."""
    got = [v[name] for name in names.split()]
    try:
        m = size(*got)
    except (ArithmeticError, ValueError):
        m = None
    if not (isinstance(m, int) and 0 <= m <= limit):
        _fail(names.split(), want, *got)


def _points(v: dict) -> None:
    points, dim = v["points"], v["dim"]
    _check("points", points, points and all(len(pt) == dim for pt in points),
           f"list points of dimension {dim}")
    _check("points", points, not v["boolean"] or
           boolean_rows(np.array(points, float)).all(),
           "have 0/1 coordinates for a boolean protocol")


KINDS = {  # a distribution kind -> the fields it reads after ``kind``
    "uniform_boolean": (), "uniform_sphere": (),
    "product_bernoulli": (Field("p", Kind((float, [float])), 0.5),),
    "uniform_interval": (Field("lo", FLOAT, 0.0), Field("hi", FLOAT, 1.0)),
    "point_mass": (Field("points", Kind([[float]]), then=_points),
                   Field("probabilities", Kind([float]))),
}


def _distribution(entry: dict, dim: int, boolean: bool):
    """One ``distributions`` entry's spec, 0/1-valued when ``boolean``."""
    kind = _field(entry, "kind", str, "uniform_boolean")
    if boolean and kind in ("uniform_sphere", "uniform_interval"):
        _fail(("kind",), f": {kind} draws real features, the protocol needs "
              "boolean ones")
    if kind not in KINDS:
        raise ConfigError(f"unknown distribution kind '{kind}'")
    if kind == "uniform_interval" and dim != 1:
        _fail(("kind",), ": uniform_interval is 1-dimensional, the protocol "
              f"needs {dim}")
    v = _read(entry, KINDS[kind], {"dim": dim, "boolean": boolean})
    if kind == "product_bernoulli":
        p = v["p"]
        probs = tuple(map(float, p if isinstance(p, list) else [p] * dim))
        _check("p", p, len(probs) == dim, f"have length {dim}")
        _check("p", p, all(0.0 <= x <= 1.0 for x in probs), "lie in [0, 1]")
        return ProductBernoulli(probs)
    try:
        if kind == "uniform_interval":
            return UniformInterval(v["lo"], v["hi"])
        if kind == "point_mass":
            return PointMassList(tuple(map(tuple, v["points"])),
                                 tuple(v["probabilities"]))
    except ConfigurationError as exc:  # interval bounds, point-mass weights
        blamed = ("lo", "hi") if "lo" in v else ("probabilities",)
        _fail(blamed, f": {exc}", *map(v.get, blamed))
    return (UniformSphere if kind == "uniform_sphere" else UniformBoolean)(dim)


def _setup(dim: str | None, kind: str = "uniform_boolean", check=None):
    """The *setup* fields eps, k and distributions: a spec per player (k of
    ``kind`` if none are listed) of the dimension in field ``dim`` (1 if
    None; 0/1-valued if it is n), which ``check(values)`` may reject."""
    def specs(v: dict) -> list:
        entries, k = v["distributions"], v["k"]
        if len(entries) != k:
            raise ConfigError(f"'distributions' lists {len(entries)} "
                              f"players, but k = {k}")
        v["distributions"] = [_distribution(e, v[dim] if dim else 1,
                                            dim == "n") for e in entries]
        if check:
            check(v)
        return v["distributions"]
    return [Field("eps", FRACTION), Field("k", COUNT), Field(
        "distributions", Kind([dict]), lambda v: [{"kind": kind}] * v["k"],
        then=specs)]


def _random_conjunction(n: int, seed: int) -> Conjunction:
    rng = stream(seed, "cli_target", "conjunction")
    vars_ = rng.choice(n, size=min(max(1, n // 4), n), replace=False)
    return Conjunction(n, frozenset(int(v) for v in vars_))


def _random_parity(n: int, seed: int) -> ParityFunc:
    rng = stream(seed, "cli_target", "parity")
    v = tuple(int(b) for b in rng.integers(0, 2, size=n))
    return ParityFunc(n, v if any(v) else (1,) + v[1:])


@functools.cache  # built once, not per seed: immutable, and runs reuse it
def _threshold_class(grid: int) -> tuple:
    """Both orientations of a threshold at each of ``grid`` points of [0, 1]."""
    return tuple(Threshold(float(t), s)
                 for t in np.linspace(0.0, 1.0, grid) for s in (1, -1))


def _validated(res, party: str, spec, f, m: int, seed: int):
    """``res`` with its only error: ``party``'s hypothesis on m fresh
    ("cli_val",) points of ``spec``, reported as the mixture error."""
    val = draw_sample(spec, f, m, seed, tags=("cli_val",))
    res.errors = {"mixture": sample_error(res.hypotheses[party], val)}
    return res


# ---------------------------------------------------------------------------
# The protocol table, rendered in README: each protocol's fields in read order,
# the (fields, size(*values)[, limit]) of each sample it draws, job(values, seed)
# ---------------------------------------------------------------------------


def _closed_job(v: dict, seed: int):
    variables = v.get("target.variables")
    f = Box(tuple(v["target.lo"]), tuple(v["target.hi"])) if "d" in v else \
        _random_conjunction(v["n"], seed) if variables is None else \
        Conjunction(v["n"], frozenset(variables))
    return closed.run_intersection_closed(v["distributions"], f, v["eps"],
                                          v["delta"], seed, c=v["c"])


def _eq_conjunction_job(v: dict, seed: int):
    n, f = v["n"], _random_conjunction(v["n"], seed)
    m = closed.pac_sample_size(n, v["eps"], v["k"], v["delta"])
    samples = [draw_sample(spec, f, m, seed, tags=("eq", i))
               for i, spec in enumerate(v["distributions"])]
    return baseline.eq_mistake_bound(samples,
                                     baseline.ConjunctionElimination(n))


def _round_robin_job(v: dict, seed: int):
    samples, _f = linear.well_spread_dataset(
        v["k"], v["per_player"], v["gamma"], v["alpha"], seed)
    linear.certify_well_spread(samples, v["alpha"])
    return linear.round_robin_perceptron(
        samples, v["alpha"], update_cap=linear.default_update_cap(v["gamma"]))


def _adversarial_job(v: dict, seed: int):  # the construction draws nothing
    rounds, trace = linear.adversarial_lower_bound(v["gamma"])
    return ProtocolResult(hypotheses={}, trace=trace,
                          ledger=channel.CostLedger(rounds=rounds))


def _robust_halving_job(v: dict, seed: int):
    specs, f = v["distributions"], Threshold(v["target_t"], 1)
    res = agnostic.opt_search(specs, f, _threshold_class(v["grid"]), v["eps"],
                              seed, noise_rate=v["noise_rate"],
                              shared_randomness=v["shared_randomness"])
    return _validated(res, channel.BROADCAST, specs[0], f, 4000, seed)


def _interval_summary_job(v: dict, seed: int):
    f = IntervalUnion(tuple(tuple(iv) for iv in v["target.intervals"]))
    samples = [draw_sample(UniformInterval(), f, v["m_per_player"], seed,
                           noise_rate=v["noise_rate"], tags=("interval", i))
               for i in range(v["k"])]
    res = agnostic.run_interval_summary(samples, v["d"], v["eps"])
    return _validated(res, channel.CENTER, UniformInterval(), f, 8000, seed)


def _ordered_corners(v: dict) -> None:
    lo, hi, d = v["target.lo"], v["target.hi"], v["d"]
    for name, corner in (("target.lo", lo), ("target.hi", hi)):
        _check(name, corner, len(corner) == d, f"have length d = {d}")
    if any(a > b for a, b in zip(lo, hi)):
        _fail(("target.lo", "target.hi"), " must have lo <= hi on every axis",
              lo, hi)


N, D, K = Field("n", COUNT), Field("d", COUNT), Field("k", COUNT)
DELTA, C = Field("delta", FRACTION, 0.05), Field("c", POSITIVE, 1.0)
NOISE = Field("noise_rate", Kind(float, "float in [0, 1/2)",
                                 lambda r: 0 <= r < 0.5, "be in [0,1/2)"), 0.0)
BOOLEAN = _setup("n")
VARIABLES = Field(
    "target.variables", Kind([int], "list of ints in [0, n), `[]` being the "
                             "all-true conjunction"), None,
    shown="a seeded random conjunction of max(1, n // 4) variables",
    then=lambda v: _check("target.variables", v["target.variables"], all(
        0 <= j < v["n"] for j in v["target.variables"] or ()),
        f"lie in [0, n) = [0, {v['n']})"))
CORNERS = (Field("target.lo", Kind([float], "list of `d` floats"),
                 lambda v: [0.25] * v["d"], shown="`[0.25] * d`"),
           Field("target.hi", Kind([float], "list of `d` floats, each ≥ its "
                                   "`target.lo`"), lambda v: [0.75] * v["d"],
                 shown="`[0.75] * d`", then=_ordered_corners))
Q = Field("q", Kind((int, type(None)), "int ≥ 1 (mantissa bits kept, exact "
                    "from 52 up) or null (exact weights)",
                    lambda q: q is None or q >= 1, "be >= 1 or null"), 32)
BETA = Field("beta", FRACTION, 0.25, "float in (0, 1/2)",
             then=lambda v: _check("beta", v["beta"], v["beta"] < 0.5,
                                   "be in (0,1/2)"))
INTERVALS = Field("target.intervals", Kind(
    [[float]], "list of `[lo, hi]` pairs with lo ≤ hi",
    lambda ivs: all(len(iv) == 2 and iv[0] <= iv[1] for iv in ivs),
    "list [lo, hi] pairs with lo <= hi"),
    lambda v: [[0.1, 0.3], [0.5, 0.6], [0.8, 0.95]][:v["d"]],
    shown="`[[0.1, 0.3], [0.5, 0.6], [0.8, 0.95]][:d]`")
PRIVACY = (Field("privacy.mode", Kind(
    str, "one of " + ", ".join(f"`{m}`" for m in privacy_mod.MODES),
    lambda m: m in privacy_mod.MODES, "be one of " + ", ".join(
        privacy_mod.MODES)), privacy_mod.MODE_DIFFERENTIAL),
    Field("privacy.alpha", POSITIVE, 1.0), Field("privacy.delta", FRACTION,
                                                 0.05))
PAC = ("n eps k delta", closed.pac_sample_size)
TABLE = {
    "closed_conjunction": (
        [N, *BOOLEAN, DELTA, VARIABLES, C],
        [("n eps k delta c", functools.partial(closed.sample_size,
                                                Conjunction))], _closed_job),
    "closed_box": (
        [D, *_setup("d"), DELTA, *CORNERS, C],
        [("d eps k delta c", functools.partial(closed.sample_size, Box))],
        _closed_job),
    "parity_two_player": (
        [N, *_setup("n", check=lambda v: _check(
            "k", v["k"], v["k"] == 2, "be 2")), Field("c", POSITIVE, 8.0)],
        [("n eps c", parity_mod.sample_size)],
        lambda v, seed: parity_mod.run_parity_two_player(
            v["distributions"], _random_parity(v["n"], seed), v["eps"], seed,
            c=v["c"])),
    "decision_list": (
        [N, *BOOLEAN, DELTA, Field(
            "n_rules", COUNT, 10, "int ≥ 1 and ≤ 2n", then=lambda v: _check(
                "n_rules", v["n_rules"], v["n_rules"] <= 2 * v["n"],
                f"be <= 2n = {2 * v['n']}"))],
        [PAC], lambda v, seed: declist.run_decision_list(
            v["distributions"], declist.random_decision_list(
                v["n"], v["n_rules"], seed), v["eps"], v["delta"], seed)),
    "sample_shipping": (
        [N, *BOOLEAN], [("n eps k", baseline.shipping_sample_size)],
        lambda v, seed: baseline.sample_shipping(
            v["distributions"], _random_conjunction(v["n"], seed), v["eps"],
            seed)),
    "eq_conjunction": ([N, *BOOLEAN, DELTA], [PAC], _eq_conjunction_job),
    "averaging": (
        [D, *_setup("d", kind="uniform_sphere")],
        [("d eps", linear.averaging_sample_size)],
        lambda v, seed: linear.averaging_protocol(v["distributions"], (
            LinearSeparator((1.0,) + (0.0,) * (v["d"] - 1))), v["eps"], seed)),
    "round_robin_perceptron": (
        # gamma's update cap is checked once every field is read
        [Field("gamma", FRACTION, 0.2), Field("alpha", POSITIVE, 0.05), K,
         Field("per_player", COUNT, 40, then=lambda v: _sized(
             v, "gamma", linear.default_update_cap, math.inf,
             " must give a finite update cap"))],
        [], _round_robin_job),
    "adversarial_perceptron": ([Field("gamma", FRACTION, 0.1)], [],
                               _adversarial_job),
    "boosting": (
        [N, *BOOLEAN, DELTA, Q, BETA],
        [("n beta", boosting.weak_sample_size), PAC],
        lambda v, seed: boosting.run_distributed_boosting(
            v["distributions"], _random_conjunction(v["n"], seed), v["eps"],
            v["delta"], seed, beta=v["beta"], q=v["q"])),
    "robust_halving": (
        [*_setup(None), Field("grid", COUNT, 201),
         Field("target_t", FLOAT, 0.37), NOISE,
         Field("shared_randomness", Kind(bool, "bool"), False)],
        [("eps", agnostic.validation_sample_size)],
        _robust_halving_job),
    "interval_summary": (
        [D, Field("eps", FRACTION), INTERVALS, NOISE,
         Field("m_per_player", COUNT, 4000), K],
        [("d eps", agnostic.border_count)],
        _interval_summary_job),
    "private_conjunction": (
        [N, *_setup("n", check=lambda v: all(isinstance(
            s, privacy_mod.PRODUCT_SPECS) for s in v["distributions"])
            or _fail(("kind",), ": private_conjunction needs uniform_boolean "
                     "or product_bernoulli")), *PRIVACY],
        # m only sizes rng.binomial draws, which take any int64
        [("n privacy.alpha eps privacy.delta privacy.mode",
          privacy_mod.conjunction_sample_size, 2 ** 63 - 1)],
        lambda v, seed: privacy_mod.private_conjunction_protocol(
            v["distributions"], _random_conjunction(v["n"], seed), v["eps"],
            seed, mode=v["privacy.mode"], alpha=v["privacy.alpha"],
            delta=v["privacy.delta"])),
}


def _prepare(name: str, cfg: dict):
    """Protocol ``name``'s job(seed), once ``cfg`` passes every check."""
    fields, sizes, job = TABLE[name]
    values = _read(cfg, fields, {})
    unknown = _undeclared(cfg, ALWAYS_ALLOWED + tuple(f.name for f in fields))
    if unknown:
        raise ConfigError("unknown field " + ", ".join(
            f"'{key}'" for key in unknown) + f": protocol '{name}' reads no "
            "such field")
    for size in sizes:
        _sized(values, *size)
    return functools.partial(job, values)


# name -> prepare(cfg) -> job(seed) -> ProtocolResult
PROTOCOLS = {name: functools.partial(_prepare, name) for name in TABLE}



# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


# streams keep a seed's low 64 bits, so a seed outside this range would
# replay another seed under its own label
SEED_LIMIT = 2 ** 64


def _parse_seeds(cfg: dict, seed_range: str | None) -> list:
    if seed_range:
        source = f"--seed-range '{seed_range}'"
        a, _, b = seed_range.partition("..")
        try:
            seeds = range(int(a), int(b) + 1)
        except ValueError:
            raise ConfigError(f"bad {source}, expected a..b")
    else:
        source = "field 'seeds'"
        seeds = _field(cfg, "seeds", (int, [int]), 0)
        if isinstance(seeds, int):
            seeds = [seeds]
        elif len(seeds) == 2:
            seeds = range(seeds[0], seeds[1] + 1)
    if not seeds:
        raise ConfigError("the seed selection is empty")
    # checked before a range is listed: its ends are its extremes
    ends = (seeds[0], seeds[-1]) if isinstance(seeds, range) else seeds
    bad = [s for s in ends if not 0 <= s < SEED_LIMIT]
    if bad:
        raise ConfigError(f"{source}: seed {bad[0]} is outside "
                          f"0..{SEED_LIMIT - 1}")
    return list(seeds)


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)


def _quantiles(table: list) -> list:
    """{median, p90} of each column of a table of rows: the floats
    ``np.median`` and ``np.percentile(..., 90)`` give, computed on each
    sorted column without their per-call cost."""
    out = []
    for col in zip(*table):
        c = sorted(map(float, col))
        n, h = len(c), len(c) // 2
        med = c[h] if n % 2 else (c[h - 1] + c[h]) / 2
        # numpy's linear method: virtual index v = (n-1) q between sorted
        # indices i and j, clipped to index -1 at the end (its gamma then
        # counts from -1), and numpy's _lerp between them
        v = (n - 1) * 0.9
        i, j = (math.floor(v), math.floor(v) + 1) if v < n - 1 else (-1, -1)
        a, b, t = c[i], c[j], v - i
        p90 = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
        out.append({"median": med, "p90": p90})
    return out


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
        sub = _field(cfg, "name", str, name)
        parts = Path(sub).parts
        _check("name", sub, bool(parts) and not Path(sub).is_absolute()
               and ".." not in parts, "be a directory under the output root")
        # read even when --out overrides it: a config is checked whole
        root = _field(cfg, "out", str, None)
        _check("out", root, root != "", "be a non-empty path")
        if out_dir == "":
            raise ConfigError("--out must be a non-empty path, got ''")
        root = out_dir or root or os.environ.get(OUT_ROOT_ENV, "results")
        if not root:
            raise ConfigError(f"{OUT_ROOT_ENV} must be a non-empty path, "
                              "got ''")
        out = Path(root) / sub
        job = PROTOCOLS[name](cfg)
        # prepare checked k, or rejected it if the protocol takes none
        scopes = ["mixture"] + [f"p{i + 1}" for i in range(cfg.get("k", 1))]
        counters = channel.CostLedger.COUNTERS
        rows, counts, mixture, trace_rows = [], [], [], []
        wall_total = 0.0
        for seed in seeds:
            t0 = time.perf_counter()
            res = job(seed)
            wall_total += time.perf_counter() - t0
            counts.append([getattr(res.ledger, c) for c in counters])
            errors = [res.errors.get(scope, "") for scope in scopes]
            rows.append([name, seed, *counts[-1], *errors])
            if errors[0] != "":
                mixture.append(errors[:1])
            trace_rows += [[seed, rnd, player] + list(ex) + list(hyp)
                           for (rnd, player, ex, hyp) in res.trace or ()]
        # only now: a protocol error in any seed writes nothing
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "results.csv", ["protocol", "seed", *counters]
                   + [f"error_{scope}" for scope in scopes], rows)
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
    except MemoryError as exc:
        # a size numpy can index but this machine cannot hold
        print(f"out of memory: {str(exc) or 'MemoryError'}",
              file=sys.stderr)
        return 3


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
