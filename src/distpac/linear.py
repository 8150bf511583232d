"""Linear-separator protocols: radially-symmetric averaging, round-robin
margin perceptron, and the two-player adversarial construction that forces
quadratically many rounds.

The local perceptron phase runs until every example sits at functional
margin >= 1.  It always updates on the violating example whose raw dot
product |w . x| is smallest (ties to the lowest index).  This is
deterministic, satisfies every margin-perceptron bound (any violator
selection does), and is exactly the adversarial choice the two-player
lower-bound construction needs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import channel
from .core import (ConfigurationError, DistributionSpec, LinearSeparator,
                   ProtocolError, ProtocolResult, Sample, draw_sample,
                   measure_errors, pm1, stream)


def margin_perceptron_pass(w: np.ndarray, sample: Sample, made: int, *,
                           update_cap: int | None = None,
                           trace: list | None = None,
                           trace_info: tuple = ()) -> int:
    """One player's local phase: update the float64 vector ``w`` in place
    until all examples sit at functional margin >= 1, and return the
    number of updates.  ``made`` counts the run's updates before this
    phase; the run may make at most ``update_cap`` in all."""
    if len(sample) == 0:
        raise ConfigurationError("perceptron phase needs a nonempty sample")
    X = sample.features
    y = sample.labels.astype(np.float64)
    updates = 0
    while True:
        dots = X @ w
        violating = (y * dots) < 1.0
        if not violating.any():
            return updates
        cand = np.flatnonzero(violating)
        pick = cand[int(np.argmin(np.abs(dots[cand])))]
        w += y[pick] * X[pick]
        updates += 1
        if trace is not None:
            trace.append(trace_info + (tuple(X[pick].tolist()),
                                       tuple(w.tolist())))
        if update_cap is not None and made + updates > update_cap:
            raise ProtocolError(
                f"perceptron exceeded the update cap {update_cap}")


def default_update_cap(gamma: float) -> int:
    """10x the margin-perceptron bound of 3/gamma^2 updates."""
    return math.ceil(10.0 * 3.0 / (gamma * gamma))


def round_robin_perceptron(samples: Sequence[Sample], alpha: float, *,
                           update_cap: int | None = None,
                           max_meta_rounds: int = 10000) -> ProtocolResult:
    """Pass one hypothesis vector around the ring of players.

    Each player runs its local phase to consistency, and each pass charges
    one hypothesis plus a 32-bit update count.  Player 1 halts once the
    previous meta-round made fewer than 1/alpha updates.
    """
    if not samples:
        raise ConfigurationError("need at least one player")
    k = len(samples)
    w = np.zeros(samples[0].dim)
    made = 0
    ledger = channel.CostLedger()
    while True:
        if ledger.meta_rounds >= max_meta_rounds:
            raise ProtocolError(
                f"no convergence within {max_meta_rounds} meta-rounds")
        meta_updates = 0
        for i in range(k):
            updates = margin_perceptron_pass(w, samples[i], made,
                                             update_cap=update_cap)
            made += updates
            meta_updates += updates
            nxt = f"p{(i + 1) % k + 1}"
            channel.send_hypothesis(ledger, f"p{i + 1}", nxt,
                                    LinearSeparator(tuple(w)))
            channel.send_count(ledger, f"p{i + 1}", nxt, updates, 32)
            channel.advance_round(ledger, "round")
        channel.advance_round(ledger, "meta_round")
        if meta_updates < 1.0 / alpha:
            break
    h = LinearSeparator(tuple(w))
    hypotheses = {f"p{i + 1}": h for i in range(k)}
    return ProtocolResult(hypotheses=hypotheses, ledger=ledger)


def averaging_sample_size(d: int, eps: float) -> int:
    """Points each player averages: ceil(d / eps^2)."""
    return math.ceil(d / (eps * eps))


def averaging_protocol(specs: Sequence[DistributionSpec], f: LinearSeparator,
                       eps: float, seed: int) -> ProtocolResult:
    """For radially symmetric D_i, the mean of l(x) x/||x|| points along the
    target; one vector per player, one round.  Each player averages
    ``averaging_sample_size`` points."""
    m = averaging_sample_size(f.dim, eps)
    vectors = []
    for i, spec in enumerate(specs):
        s = draw_sample(spec, f, m, seed, tags=("averaging", i))
        norms = np.linalg.norm(s.features, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        vectors.append((s.labels[:, None] * s.features / norms).mean(axis=0))
    ledger = channel.hypotheses_to_center(
        [LinearSeparator(tuple(v.tolist())) for v in vectors])
    mean = np.mean(vectors, axis=0)
    nrm = np.linalg.norm(mean)
    if nrm == 0.0:
        raise ProtocolError("zero resultant direction; retry with a fresh "
                            "seed")
    h = LinearSeparator(tuple((mean / nrm).tolist()))
    errors = measure_errors(h, specs, f, seed)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors, meta={"m_per_player": m})


# ---------------------------------------------------------------------------
# Data generators and certificates
# ---------------------------------------------------------------------------


def well_spread_dataset(k: int, per_player: int, gamma: float, alpha: float,
                        seed: int) -> tuple:
    """Exactly gamma-margin, alpha-well-spread data split over k players.

    Points are x_i = gamma * l_i * e_0 + sqrt(1 - gamma^2) * e_{i+1}; every
    cross pair then has |cos| = gamma^2, so the construction needs
    gamma^2 < alpha.  Returns (samples, target).
    """
    if gamma * gamma >= alpha:
        raise ConfigurationError("need gamma^2 < alpha for well-spread data "
                                 "at margin gamma")
    n_pts = k * per_player
    d = n_pts + 1
    rng = stream(seed, "well_spread")
    labels = pm1(rng.random(n_pts) < 0.5)
    X = np.zeros((n_pts, d))
    X[:, 0] = gamma * labels
    X[np.arange(n_pts), np.arange(n_pts) + 1] = math.sqrt(1.0 - gamma * gamma)
    order = rng.permutation(n_pts)
    samples = []
    for i in range(k):
        idx = order[i * per_player:(i + 1) * per_player]
        samples.append(Sample(X[idx], labels[idx]))
    target = LinearSeparator(tuple([1.0] + [0.0] * n_pts))
    return samples, target


_CERTIFY_PAIRS = 100000


def certify_well_spread(samples: Sequence[Sample], alpha: float) -> float:
    """Max |cos| over all point pairs, or over _CERTIFY_PAIRS sampled pairs
    when there are more; raises if >= alpha."""
    X = np.vstack([s.features for s in samples])
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    n = X.shape[0]
    pairs = n * (n - 1) // 2
    if pairs <= _CERTIFY_PAIRS:
        cos = np.abs(X @ X.T)
        np.fill_diagonal(cos, 0.0)
        worst = float(cos.max()) if n > 1 else 0.0
    else:
        rng = stream(0, "spread_certificate")
        ii = rng.integers(0, n, size=_CERTIFY_PAIRS)
        jj = rng.integers(0, n, size=_CERTIFY_PAIRS)
        keep = ii != jj
        worst = float(np.abs((X[ii[keep]] * X[jj[keep]]).sum(axis=1)).max())
    if worst >= alpha:
        raise ConfigurationError(
            f"data is not {alpha}-well-spread (worst |cos| = {worst:.4f})")
    return worst


# ---------------------------------------------------------------------------
# Adversarial construction: two players fighting over the first coordinate
# ---------------------------------------------------------------------------


def adversarial_two_player_data(gamma: float) -> list:
    """The 3-D construction where round-robin perceptron needs
    order-1/gamma^2 rounds.  Player 1 holds the positives at mass
    0.49/0.49/0.02, player 2 the negatives at 0.5/0.5; the listed order is
    the one that sustains the alternating update fight."""
    g = gamma
    p1 = Sample(np.array([[1, g, g], [1, g, 3 * g], [1, g, -g]], float),
                np.array([1, 1, 1]))
    p2 = Sample(np.array([[1, -g, -3 * g], [1, -g, g]], float),
                np.array([-1, -1]))
    return [p1, p2]


def adversarial_lower_bound(gamma: float) -> tuple:
    """Run the adversarial construction to consistency.

    Returns (rounds_taken, trace); each trace row is
    (round, player, example, resulting_hypothesis), one row per update.
    """
    if not (0.0 < gamma <= 0.2):
        raise ConfigurationError("gamma must lie in (0, 0.2]")
    samples = adversarial_two_player_data(gamma)
    w = np.zeros(3)
    trace: list = []
    rounds = 0
    quiet = 0
    turn = 0
    while quiet < len(samples):
        if rounds >= 200000:
            raise ProtocolError("adversarial run exceeded 200000 rounds")
        rounds += 1
        updates = margin_perceptron_pass(w, samples[turn], 0, trace=trace,
                                         trace_info=(rounds, f"p{turn + 1}"))
        quiet = quiet + 1 if updates == 0 else 0
        turn = (turn + 1) % len(samples)
    return rounds, trace
