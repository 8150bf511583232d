"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them alongside the pytest verdicts).
"""

import itertools
import math
import time

import numpy as np
import sympy
import yaml

from distpac import agnostic, boosting, channel, cli, declist, linear, parity
from distpac import privacy as privacy_mod
from distpac.closed import pac_sample_size, run_intersection_closed
from distpac.core import (Conjunction, IntervalUnion, ParityFunc,
                          UniformBoolean, UniformInterval, draw_sample,
                          sample_error, stream)

from conftest import threshold_grid
from test_declist import brute_force_triplets


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def test_criterion_01_conjunction_closed_form():
    n, k, eps = 30, 5, 0.05
    t0 = time.perf_counter()
    ledger_ok, good = True, 0
    for seed in range(100):
        f = Conjunction(n, frozenset(
            int(v) for v in stream(seed, "acc1").choice(n, 5, replace=False)))
        res = run_intersection_closed([UniformBoolean(n)] * k, f, eps, 0.05,
                                      seed)
        led = res.ledger
        ledger_ok &= (led.rounds, led.hypotheses, led.bits) == (1, k, k * n)
        good += res.errors["mixture"] <= eps
    elapsed = time.perf_counter() - t0
    report(1, "conjunction closed-form",
           ledger_ok and good >= 95 and elapsed < 5.0,
           f"ledger exact, {good}/100 within eps, {elapsed:.2f}s")


def test_criterion_02_parity_two_player():
    n, eps = 40, 0.05
    t0 = time.perf_counter()
    specs = [UniformBoolean(n)] * 2
    bits_ok, good = True, 0
    for seed in range(100):
        v = tuple(int(b) for b in stream(seed, "acc2").integers(0, 2, size=n))
        f = ParityFunc(n, v if any(v) else (1,) + v[1:])
        res = parity.run_parity_two_player(specs, f, eps, seed)
        bits_ok &= res.ledger.bits == 2 * n
        good += res.errors["mixture"] <= eps
    # reliability: the basis predictor never errs when it answers
    f = ParityFunc(n, tuple(int(b) for b in
                            stream(7, "acc2_rel").integers(0, 2, size=n)))
    s = draw_sample(UniformBoolean(n), f, 3000, 7, tags=("rel",))
    basis = parity.gf2_reduce(s)
    X = stream(8, "acc2_q").integers(0, 2, size=(100000, n)).astype(float)
    labels, known = basis.classify(X)
    violations = int((labels[known] != f.predict(X)[known]).sum())
    elapsed = time.perf_counter() - t0
    report(2, "parity two-player",
           bits_ok and violations == 0 and good >= 90 and elapsed < 30.0,
           f"bits=80 exact, {violations} reliability violations, "
           f"{good}/100 within eps, {elapsed:.2f}s")


def test_criterion_03_decision_lists():
    n, k, eps = 50, 4, 0.05
    from distpac.core import rule_bits
    rounds_ok, bits_ok, consistent_ok = True, True, True
    for seed in range(100):
        f = declist.random_decision_list(n, 8, seed)
        res = declist.run_decision_list([UniformBoolean(n)] * k, f, eps,
                                        0.05, seed)
        outs = [c for (_j, _b, c) in f.rules] + [f.default]
        alternations = sum(a != b for a, b in zip(outs, outs[1:]))
        led = res.ledger
        rounds_ok &= led.rounds <= alternations + 1
        upstream = led.bits - led.per_player.get(channel.CENTER, 0)
        bits_ok &= upstream <= k * (4 * n + 2) * rule_bits(n)
        h = res.hypotheses[channel.CENTER]
        for i in range(k):
            s = draw_sample(UniformBoolean(n), f, res.meta["m_per_player"],
                            seed, tags=("declist", i))
            consistent_ok &= sample_error(h, s) == 0.0
    oracle_ok = True
    for trial in range(1000):
        rng = stream(trial, "acc3_oracle")
        dim = int(rng.integers(2, 9))
        m = int(rng.integers(1, 16))
        from distpac.core import Sample
        X = rng.integers(0, 2, size=(m, dim)).astype(float)
        y = np.where(rng.random(m) < 0.5, 1, -1)
        s = Sample(X, y)
        oracle_ok &= (declist.consistent_triplets(s, np.ones(m, dtype=bool))
                      == brute_force_triplets(s))
    report(3, "decision lists",
           rounds_ok and bits_ok and consistent_ok and oracle_ok,
           "rounds/bits bounds hold, outputs consistent, oracle 1000/1000")


def test_criterion_04_adversarial_golden_trace():
    t0 = time.perf_counter()
    g = 0.1
    golden = [
        ("p1", (1, g, g), (1, g, g)),
        ("p2", (1, -g, -3 * g), (0, 2 * g, 4 * g)),
        ("p2", (1, -g, g), (-1, 3 * g, 3 * g)),
        ("p1", (1, g, 3 * g), (0, 4 * g, 6 * g)),
        ("p1", (1, g, -g), (1, 5 * g, 5 * g)),
        ("p2", (1, -g, -3 * g), (0, 6 * g, 8 * g)),
        ("p2", (1, -g, g), (-1, 7 * g, 7 * g)),
        ("p1", (1, g, 3 * g), (0, 8 * g, 10 * g)),
        ("p1", (1, g, -g), (1, 9 * g, 9 * g)),
    ]
    r_01, trace = linear.adversarial_lower_bound(0.1)
    rows_ok = len(trace) >= 9
    for row, (player, ex, hyp) in zip(trace[:9], golden):
        _rnd, got_player, got_ex, got_hyp = row
        rows_ok &= got_player == player
        rows_ok &= np.allclose(got_ex, ex) and np.allclose(got_hyp, hyp)
    r_005, _ = linear.adversarial_lower_bound(0.05)
    ratio = r_005 / r_01
    elapsed = time.perf_counter() - t0
    report(4, "adversarial golden trace",
           rows_ok and 3.2 <= ratio <= 4.8 and elapsed < 10.0,
           f"9 rows exact, rounds ratio {ratio:.3f}, {elapsed:.2f}s")


def test_criterion_05_well_spread_perceptron():
    gamma, alpha, k = 0.2, 0.05, 3
    bound = 1 + 3 * alpha / (gamma * gamma)
    ok = True
    for seed in range(50):
        samples, _target = linear.well_spread_dataset(k, 15, gamma, alpha,
                                                      seed)
        linear.certify_well_spread(samples, alpha)
        res = linear.round_robin_perceptron(
            samples, alpha, update_cap=linear.default_update_cap(gamma))
        ok &= res.ledger.meta_rounds <= bound
        h = res.hypotheses["p1"]
        for s in samples:
            ok &= bool((h.predict(s.features) == s.labels).all())
    report(5, "well-spread perceptron", ok,
           f"meta_rounds <= {bound:.2f} and exact classification, 50 seeds")


def test_criterion_06_distributed_boosting():
    n, k, eps, beta = 20, 3, 0.05, 0.25
    T = boosting.boosting_rounds(eps, beta)
    m_weak = boosting.weak_sample_size(n, beta)
    specs = [UniformBoolean(n)] * k
    constant_ok, bound_ok, good = True, True, 0
    for seed in range(100):
        f = Conjunction(n, frozenset(
            int(v) for v in stream(seed, "acc6").choice(n, 3, replace=False)))
        res = boosting.run_distributed_boosting(specs, f, eps, 0.05, seed)
        tel = res.meta["telemetry"]
        constant_ok &= all(row["examples"] == m_weak for row in tel)
        bound_ok &= all(row["train_error"] <= row["train_bound"] + 1e-12
                        for row in tel)
        good += (len(tel) <= T and res.errors["mixture"] <= eps)
    # k=1, exact weights must be bit-identical to single-machine AdaBoost
    f = Conjunction(n, frozenset({0, 4, 9}))
    m = pac_sample_size(n, eps, 1, 0.05)
    sample = draw_sample(UniformBoolean(n), f, m, 11, tags=("boost", 0))
    single = boosting.adaboost_single(sample, T, m_weak, 11)
    dist = boosting.run_distributed_boosting([UniformBoolean(n)], f, eps,
                                             0.05, 11, q=None)
    identical = (dist.meta["weak"] == single["weak"]
                 and dist.meta["alphas"] == single["alphas"])
    report(6, "distributed boosting",
           constant_ok and bound_ok and good >= 90 and identical and T == 24,
           f"m_weak constant, bound holds, {good}/100 within eps in T={T}, "
           f"k=1 bit-identical")


def test_criterion_07_robust_halving():
    eps, noise = 0.05, 0.05
    grid = threshold_grid()
    target = grid[grid.index(min(
        (h for h in grid if h.sign == 1), key=lambda h: abs(h.t - 0.37)))]
    specs = [UniformInterval(0.0, 1.0)] * 2
    loop_cap = 10 * math.log2(len(grid))
    loops_ok, good = True, 0
    for seed in range(100):
        try:
            res = agnostic.opt_search(specs, target, grid, eps, seed,
                                      noise_rate=noise)
        except agnostic.SearchFailureError:
            continue
        loops_ok &= res.meta["loops"] <= loop_cap
        h = res.hypotheses[channel.BROADCAST]
        val = draw_sample(specs[0], target, 4000, seed, noise_rate=noise,
                          tags=("acc7_val",))
        good += sample_error(h, val) <= 8 * noise + 0.05
    # noise-free runs must never eliminate the best hypothesis
    t_idx = grid.index(target)
    never_eliminated = True
    for seed in range(100):
        res = agnostic.run_robust_halving(specs, target, grid, eps, eps,
                                          seed)
        never_eliminated &= t_idx in res.meta["survivors"]
    shared = agnostic.run_robust_halving(specs, target, grid, eps, eps, 0,
                                         shared_randomness=True)
    report(7, "robust halving",
           loops_ok and good >= 90 and never_eliminated
           and shared.meta["count_bits"] == 0,
           f"loops bounded, {good}/100 within 8*opt+0.05, best hypothesis "
           f"kept 100/100, shared randomness zeroes count bits")


def exhaustive_interval_cost(pos, neg, d):
    """Prefix-sum exhaustive scan over <= d disjoint positive blocks: every
    cut set of 2r borders, r = 1..d, priced in numpy chunks."""
    S = len(pos)
    cpos = np.concatenate([[0.0], np.cumsum(pos)])
    cneg = np.concatenate([[0.0], np.cumsum(neg)])
    base = cpos[S]
    best = base  # zero blocks
    for r in range(1, d + 1):
        combos = itertools.combinations(range(S + 1), 2 * r)
        while True:
            cuts = np.fromiter(itertools.chain.from_iterable(
                itertools.islice(combos, 50_000)), dtype=np.intp)
            if not len(cuts):
                break
            cuts = cuts.reshape(-1, 2 * r)
            cost = np.full(len(cuts), base)
            for a, b in zip(cuts[:, 0::2].T, cuts[:, 1::2].T):
                cost += (cneg[b] - cneg[a]) - (cpos[b] - cpos[a])
            best = min(best, cost.min())
    return best


def test_criterion_08_interval_summary():
    d, k, eps, noise = 3, 2, 0.05, 0.05
    target = IntervalUnion(((0.1, 0.3), (0.5, 0.6), (0.8, 0.95)))
    B = math.ceil(d / eps)
    structure_ok, good = True, 0
    for seed in range(100):
        samples = [draw_sample(UniformInterval(0.0, 1.0), target, 3000, seed,
                               noise_rate=noise, tags=("acc8", i))
                   for i in range(k)]
        res = agnostic.run_interval_summary(samples, d, eps)
        structure_ok &= res.ledger.rounds == 1
        structure_ok &= res.meta["values"] == k * B
        h = res.hypotheses[channel.CENTER]
        clean = draw_sample(UniformInterval(0.0, 1.0), target, 6000, seed,
                            tags=("acc8_val",))
        good += sample_error(h, clean) <= 0.0 + 0.1  # opt = 0 on clean labels
    dp_ok = True
    for seed in range(3):
        rng = stream(seed, "acc8_dp")
        pos, neg = rng.random(30), rng.random(30)
        borders = np.linspace(0.0, 1.0, 31).tolist()
        cost, _h = agnostic.dp_best_intervals(borders, pos, neg, d)
        dp_ok &= abs(cost - exhaustive_interval_cost(pos, neg, d)) < 1e-9
    report(8, "interval summary", structure_ok and good >= 90 and dp_ok,
           f"one round, {k * B} values, DP = exhaustive at 30 segments, "
           f"{good}/100 within opt+0.1")


def test_criterion_09_privacy():
    # Laplace scale over 1e5 draws
    rng = stream(0, "acc9_lap")
    scale = 0.02
    draws = np.array([privacy_mod.laplace_noise(rng, scale)
                      for _ in range(100000)])
    scale_ok = abs(abs(draws).mean() - scale) <= 0.05 * scale
    # symbolic density-ratio bound e^{alpha'}
    x, a = sympy.symbols("x a", real=True)
    alpha_p, n = sympy.Rational(1, 10), 50
    s_sym = 1 / (alpha_p * n)
    dens = sympy.exp(-sympy.Abs(x - a) / s_sym) / (2 * s_sym)
    shift = sympy.Rational(1, n)
    symbolic_ok = sympy.simplify(
        sympy.Abs(shift) / s_sym - alpha_p) == 0
    for xv, av in itertools.product((-2, 0, 0.4, 3), (-1, 0, 1)):
        ratio = float(sympy.log(
            dens / dens.subs(a, a + shift)).subs({x: xv, a: av}))
        symbolic_ok &= ratio <= float(alpha_p) + 1e-12
    # distributional beta coverage over 1e3 same-distribution pairs
    delta_p, n_s, p = 0.05, 400, 0.3
    beta = privacy_mod.distributional_beta(delta_p, n_s)
    rng2 = stream(1, "acc9_beta")
    gaps = np.abs(rng2.binomial(n_s, p, size=1000)
                  - rng2.binomial(n_s, p, size=1000)) / n_s
    beta_ok = np.mean(gaps > beta) <= delta_p
    # ledger identity and accuracy at the computed sample size
    n_dim, k, eps = 10, 2, 0.05
    specs = [UniformBoolean(n_dim)] * k
    good, ledger_ok = 0, True
    for seed in range(100):
        f = Conjunction(n_dim, frozenset(
            int(v) for v in stream(seed, "acc9").choice(n_dim, 2,
                                                        replace=False)))
        priv = privacy_mod.private_conjunction_protocol(specs, f, eps, seed)
        base = run_intersection_closed(specs, f, eps, 0.05, seed)
        ledger_ok &= priv.ledger.to_dict() == base.ledger.to_dict()
        good += priv.errors["mixture"] <= eps
    report(9, "privacy",
           scale_ok and symbolic_ok and beta_ok and ledger_ok and good >= 85,
           f"scale within 5%, symbolic ratio <= e^alpha', beta covers "
           f">= {1 - delta_p:.2f}, ledgers identical, {good}/100 within eps")


def test_criterion_10_determinism(tmp_path):
    configs = [
        {"protocol": "closed_conjunction", "n": 30, "k": 5, "eps": 0.05,
         "seeds": [0, 2]},
        {"protocol": "closed_box", "d": 1, "k": 3, "eps": 0.05,
         "distributions": [{"kind": "uniform_interval"}] * 3,
         "seeds": [0, 1]},
        {"protocol": "parity_two_player", "n": 40, "k": 2, "eps": 0.05,
         "seeds": [0, 1]},
        {"protocol": "decision_list", "n": 50, "k": 4, "eps": 0.05,
         "seeds": [0, 1]},
        {"protocol": "sample_shipping", "n": 20, "k": 3, "eps": 0.1,
         "seeds": [0, 1]},
        {"protocol": "eq_conjunction", "n": 20, "k": 3, "eps": 0.05,
         "seeds": [0, 1]},
        {"protocol": "averaging", "d": 5, "k": 2, "eps": 0.1,
         "seeds": [0, 1]},
        {"protocol": "adversarial_perceptron", "gamma": 0.1, "seeds": 0},
        {"protocol": "round_robin_perceptron", "k": 3, "gamma": 0.2,
         "alpha": 0.05, "seeds": [0, 1]},
        {"protocol": "boosting", "n": 20, "k": 3, "eps": 0.05,
         "seeds": 0},
        {"protocol": "robust_halving", "k": 2, "eps": 0.05,
         "noise_rate": 0.05, "seeds": 0},
        {"protocol": "interval_summary", "d": 3, "k": 2, "eps": 0.05,
         "noise_rate": 0.05, "seeds": [0, 1]},
        {"protocol": "private_conjunction", "n": 10, "k": 2, "eps": 0.05,
         "seeds": [0, 1]},
    ]
    assert {cfg["protocol"] for cfg in configs} == set(cli.PROTOCOLS)
    ok = True
    for cfg in configs:
        cfg = dict(cfg, name=cfg["protocol"])
        path = tmp_path / f"{cfg['protocol']}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        outputs = []
        for run in ("a", "b"):
            code = cli.main(["run", str(path),
                             "--out", str(tmp_path / run)])
            assert code == 0, f"{cfg['protocol']} exited {code}"
            outputs.append((tmp_path / run / cfg["name"]
                            / "results.csv").read_bytes())
        ok &= outputs[0] == outputs[1]
    report(10, "determinism", ok,
           f"{len(configs)} protocol families byte-identical on re-run")
