"""Linear-separator protocols: radially-symmetric averaging, round-robin
margin perceptron, and the two-player adversarial construction that forces
quadratically many rounds.

The local perceptron phase always updates on the violating example whose
raw dot product |w . x| is smallest (ties to the lowest index).  This is
deterministic, satisfies every margin-perceptron bound (any violator
selection does), and is exactly the adversarial choice the two-player
lower-bound construction needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import channel
from .core import (M_EVAL, ConfigurationError, DistributionSpec,
                   LinearSeparator, ProtocolError, ProtocolResult, Sample,
                   draw_sample, measure_errors, stream)

UNTIL_CONSISTENT = "until_consistent"
UNTIL_EPS_FRACTION = "until_eps_fraction"


class NonSeparableDataError(ProtocolError):
    pass


class NonConvergenceError(ProtocolError):
    pass


class DegenerateEstimateError(ProtocolError):
    pass


@dataclass
class MarginPerceptronState:
    w: np.ndarray
    update_count: int = 0
    pass_updates: int = 0  # updates made by the most recent local phase
    meta_round_updates: list = field(default_factory=list)

    @classmethod
    def zero(cls, d: int) -> "MarginPerceptronState":
        return cls(w=np.zeros(d, dtype=np.float64))


def margin_perceptron_pass(state: MarginPerceptronState, sample: Sample,
                           mode: str, eps: float = 0.0, *,
                           update_cap: int | None = None,
                           trace: list | None = None,
                           trace_info: tuple = ()) -> MarginPerceptronState:
    """One player's local phase: update until all examples sit at functional
    margin >= 1 (until_consistent) or until fewer than an eps fraction
    violate it (until_eps_fraction)."""
    if len(sample) == 0:
        raise ConfigurationError("perceptron phase needs a nonempty sample")
    if mode not in (UNTIL_CONSISTENT, UNTIL_EPS_FRACTION):
        raise ConfigurationError(f"unknown perceptron mode {mode!r}")
    X = sample.features
    y = sample.labels.astype(np.float64)
    state.pass_updates = 0
    while True:
        dots = X @ state.w
        violating = (y * dots) < 1.0
        if mode == UNTIL_CONSISTENT:
            if not violating.any():
                break
        else:
            if violating.mean() < eps:
                break
        cand = np.flatnonzero(violating)
        pick = cand[int(np.argmin(np.abs(dots[cand])))]
        state.w = state.w + y[pick] * X[pick]
        state.update_count += 1
        state.pass_updates += 1
        if trace is not None:
            trace.append(trace_info + (tuple(X[pick].tolist()),
                                       tuple(state.w.tolist())))
        if update_cap is not None and state.update_count > update_cap:
            raise NonSeparableDataError(
                f"perceptron exceeded the update cap {update_cap}")
    return state


def default_update_cap(gamma: float) -> int:
    """10x the margin-perceptron bound of 3/gamma^2 updates."""
    return math.ceil(10.0 * 3.0 / (gamma * gamma))


def spread_alpha(d: int, k: int, eps: float) -> float:
    """Spread level alpha = sqrt(4 log(2dk/eps) / d) used by the
    non-concentrated analysis."""
    return math.sqrt(4.0 * math.log(2.0 * d * k / eps) / d)


def round_robin_perceptron(samples: Sequence[Sample], mode: str, eps: float,
                           alpha: float, *, update_cap: int | None = None,
                           max_meta_rounds: int = 10000) -> ProtocolResult:
    """Pass one hypothesis vector around the ring of players.

    Each pass charges one hypothesis plus a 32-bit update count.  In
    until_consistent mode, player 1 halts once the previous meta-round made
    fewer than 1/alpha updates; in until_eps_fraction mode the run halts
    after a meta-round with no updates at all (every player then has local
    violation fraction below eps).
    """
    if not samples:
        raise ConfigurationError("need at least one player")
    d = samples[0].dim
    k = len(samples)
    state = MarginPerceptronState.zero(d)
    ledger = channel.CostLedger()
    while True:
        if ledger.meta_rounds >= max_meta_rounds:
            raise NonConvergenceError(
                f"no convergence within {max_meta_rounds} meta-rounds")
        meta_updates = 0
        for i in range(k):
            margin_perceptron_pass(state, samples[i], mode, eps,
                                   update_cap=update_cap)
            meta_updates += state.pass_updates
            nxt = f"p{(i + 1) % k + 1}"
            channel.send_hypothesis(ledger, f"p{i + 1}", nxt,
                                    LinearSeparator(tuple(state.w)))
            channel.send_count(ledger, f"p{i + 1}", nxt, state.pass_updates,
                               32)
            channel.advance_round(ledger, "round")
        channel.advance_round(ledger, "meta_round")
        state.meta_round_updates.append(meta_updates)
        if mode == UNTIL_CONSISTENT and meta_updates < 1.0 / alpha:
            break
        if mode == UNTIL_EPS_FRACTION and meta_updates == 0:
            break
    h = LinearSeparator(tuple(state.w))
    hypotheses = {f"p{i + 1}": h for i in range(k)}
    return ProtocolResult(
        hypotheses=hypotheses, ledger=ledger,
        meta={"state": state,
              "meta_round_updates": list(state.meta_round_updates),
              "total_updates": state.update_count})


def averaging_protocol(specs: Sequence[DistributionSpec], f: LinearSeparator,
                       eps: float, seed: int, *, c: float = 1.0,
                       m: int | None = None) -> ProtocolResult:
    """For radially symmetric D_i, the mean of l(x) x/||x|| points along the
    target; one vector per player, one round."""
    d = f.dim
    if m is None:
        m = math.ceil(c * d / (eps * eps))
    ledger = channel.CostLedger()
    vectors = []
    for i, spec in enumerate(specs):
        s = draw_sample(spec, f, m, seed, tags=("averaging", i))
        norms = np.linalg.norm(s.features, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        v = (s.labels[:, None] * s.features / norms).mean(axis=0)
        vectors.append(v)
        channel.send_hypothesis(ledger, f"p{i + 1}", channel.CENTER,
                                LinearSeparator(tuple(v.tolist())))
    channel.advance_round(ledger, "round")
    mean = np.mean(vectors, axis=0)
    nrm = np.linalg.norm(mean)
    if nrm == 0.0:
        raise DegenerateEstimateError("zero resultant direction; retry with "
                                      "a fresh seed")
    h = LinearSeparator(tuple((mean / nrm).tolist()))
    errors = measure_errors(h, specs, f, M_EVAL, seed)
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
    labels = np.where(rng.random(n_pts) < 0.5, 1, -1).astype(np.int8)
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


def data_margin(samples: Sequence[Sample], target: LinearSeparator) -> float:
    X = np.vstack([s.features for s in samples])
    y = np.concatenate([s.labels for s in samples]).astype(np.float64)
    w = np.asarray(target.w)
    return float((y * (X @ w)).min())


# ---------------------------------------------------------------------------
# Adversarial construction: two players fighting over the first coordinate
# ---------------------------------------------------------------------------


def adversarial_two_player_data(gamma: float) -> tuple:
    """The 3-D construction where round-robin perceptron needs
    order-1/gamma^2 rounds.  Player 1 holds the positives at mass
    0.49/0.49/0.02, player 2 the negatives at 0.5/0.5; the listed order is
    the one that sustains the alternating update fight."""
    g = gamma
    p1 = Sample(np.array([[1, g, g], [1, g, 3 * g], [1, g, -g]], float),
                np.array([1, 1, 1]))
    p2 = Sample(np.array([[1, -g, -3 * g], [1, -g, g]], float),
                np.array([-1, -1]))
    return [p1, p2], LinearSeparator((0.0, 1.0, 0.0))


def adversarial_lower_bound(gamma: float) -> tuple:
    """Run the adversarial construction to consistency.

    Returns (rounds_taken, trace); each trace row is
    (round, player, example, resulting_hypothesis), one row per update.
    """
    if not (0.0 < gamma <= 0.2):
        raise ConfigurationError("gamma must lie in (0, 0.2]")
    samples, _target = adversarial_two_player_data(gamma)
    state = MarginPerceptronState.zero(3)
    trace: list = []
    rounds = 0
    quiet = 0
    turn = 0
    while quiet < len(samples):
        if rounds >= 200000:
            raise NonConvergenceError("adversarial run exceeded 200000 "
                                      "rounds")
        rounds += 1
        margin_perceptron_pass(state, samples[turn], UNTIL_CONSISTENT,
                               trace=trace,
                               trace_info=(rounds, f"p{turn + 1}"))
        quiet = quiet + 1 if state.pass_updates == 0 else 0
        turn = (turn + 1) % len(samples)
    return rounds, trace
