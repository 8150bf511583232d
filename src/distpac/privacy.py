"""Private conjunction learning: each player answers its n statistical
queries with Laplace noise at a differential or distributional privacy
budget, showing that privacy costs sample size but never communication.

The conjunction protocol never materializes its (very large) private
samples.  For product distributions and conjunction targets the per-player
view reduces to sufficient statistics: the number of positive examples and,
per variable, the count of zeros among positives.  Both are binomials, so
the protocol simulates them directly; the resulting noisy answers have
exactly the distribution of the materialized run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channel
from .closed import combine
from .core import (ConfigurationError, Conjunction, DistributionSpec,
                   ProductBernoulli, ProtocolError, ProtocolResult,
                   UniformBoolean, measure_errors, stream)

MODE_NONE = "none"
MODE_DIFFERENTIAL = "differential"
MODE_DISTRIBUTIONAL = "distributional"
MODES = (MODE_NONE, MODE_DIFFERENTIAL, MODE_DISTRIBUTIONAL)

# the distributions the learner's sufficient statistics are derived for
PRODUCT_SPECS = (UniformBoolean, ProductBernoulli)


@dataclass
class PrivacyBudget:
    """Per-player query budget: M declared queries sharing alpha and delta."""

    mode: str
    alpha_total: float
    delta_total: float
    M: int
    spent: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown privacy mode {self.mode!r}")
        if self.mode != MODE_NONE and self.alpha_total <= 0:
            raise ConfigurationError("alpha_total must be positive")
        if self.M < 1:
            raise ConfigurationError("M must be >= 1")

    @property
    def alpha_prime(self) -> float:
        return self.alpha_total / self.M

    @property
    def delta_prime(self) -> float:
        """Per-query delta, read by distributional noise only."""
        return self.delta_total / self.M

    def charge(self) -> None:
        if self.spent >= self.M:
            raise ProtocolError(f"privacy budget exhausted after {self.M} "
                                "queries")
        self.spent += 1


def laplace_noise(rng: np.random.Generator, scale: float) -> float:
    """Inverse-CDF Laplace draw, centered at 0."""
    u = rng.random() - 0.5
    return -scale * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


def distributional_beta(delta_prime: float, n_sample: int) -> float:
    """Global sensitivity proxy sqrt(2 ln(4/delta') / |S|)."""
    return math.sqrt(2.0 * math.log(4.0 / delta_prime) / n_sample)


def noise_scale(budget: PrivacyBudget, n_sample: int) -> float:
    if budget.mode == MODE_NONE:
        return 0.0
    if budget.mode == MODE_DIFFERENTIAL:
        return 1.0 / (budget.alpha_prime * n_sample)
    return distributional_beta(budget.delta_prime, n_sample) \
        / budget.alpha_prime


def _noisy(value: float, budget: PrivacyBudget, n_sample: int, seed: int,
           *tags: object) -> float:
    """value plus Laplace noise at the budget's scale for n_sample examples,
    drawn from stream(seed, *tags) only when that scale is non-zero."""
    scale = noise_scale(budget, n_sample)
    if scale == 0.0:
        return value
    return value + laplace_noise(stream(seed, *tags), scale)


def private_sample_size(M: int, alpha: float, tau: float, delta: float,
                        mode: str) -> int:
    """Sample size sufficient for all M answers to be tau-accurate with
    probability >= 1 - delta."""
    if min(M, alpha, tau, delta) <= 0 or tau >= 1:
        raise ConfigurationError("parameters must be positive with tau < 1")
    if mode == MODE_DIFFERENTIAL:
        return math.ceil(max(M / (alpha * tau), M / (tau * tau))
                         * math.log(M / delta))
    if mode == MODE_DISTRIBUTIONAL:
        return math.ceil(M * M * math.log(M / delta) ** 3
                         / (alpha * alpha * tau * tau))
    if mode == MODE_NONE:
        return math.ceil(M / (tau * tau) * math.log(M / delta))
    raise ConfigurationError(f"unknown privacy mode {mode!r}")


# ---------------------------------------------------------------------------
# Private conjunction learning
# ---------------------------------------------------------------------------


def _zero_prob_given_positive(spec: DistributionSpec, f: Conjunction,
                              j: int) -> float:
    """Pr[x_j = 0 | f(x) = 1] under a product distribution."""
    if j in f.variables:
        return 0.0
    if isinstance(spec, UniformBoolean):
        return 0.5
    return 1.0 - spec.p[j]


def _positive_prob(spec: DistributionSpec, f: Conjunction) -> float:
    if isinstance(spec, UniformBoolean):
        return 0.5 ** len(f.variables)
    return float(np.prod([spec.p[j] for j in sorted(f.variables)])) \
        if f.variables else 1.0


def learn_private_conjunction(spec: DistributionSpec, f: Conjunction,
                              eps: float, budget: PrivacyBudget, m: int,
                              seed: int, tags: tuple = ()) -> Conjunction:
    """One player's SQ learner: keep variable j iff the noisy estimate of
    Pr[x_j = 0 | positives] is at most eps/n.

    Works on sufficient statistics (binomial counts), so m can be huge.
    """
    n = f.dim
    if not isinstance(spec, PRODUCT_SPECS):
        raise ConfigurationError("private conjunction learner needs a "
                                 "product distribution")
    rng = stream(seed, "private_conj", *tags)
    m_pos = int(rng.binomial(m, _positive_prob(spec, f)))
    if m_pos == 0:
        # degenerate conditioning: the closure identity is always safe
        return Conjunction(n, frozenset(range(n)))
    keep = []
    threshold = eps / n
    for j in range(n):
        budget.charge()
        zeros = int(rng.binomial(m_pos, _zero_prob_given_positive(spec, f, j)))
        answer = _noisy(zeros / m_pos, budget, m_pos, seed,
                        "private_conj_noise", *tags, j)
        if answer <= threshold:
            keep.append(j)
    return Conjunction(n, frozenset(keep))


def conjunction_sample_size(n: int, alpha: float, eps: float, delta: float,
                            mode: str) -> int:
    """Per-player sample size: n answers, each tau = eps / (2n) accurate."""
    return private_sample_size(n, alpha, eps / (2 * n), delta, mode)


def private_conjunction_protocol(specs: Sequence[DistributionSpec],
                                 f: Conjunction, eps: float, seed: int, *,
                                 mode: str = MODE_DIFFERENTIAL,
                                 alpha: float = 1.0, delta: float = 0.05
                                 ) -> ProtocolResult:
    """One round, k conjunction hypotheses, charged by the closure
    protocol's own exchange (``channel.hypotheses_to_center``)."""
    n = f.dim
    m = conjunction_sample_size(n, alpha, eps, delta, mode)
    budgets = [PrivacyBudget(mode, alpha, delta, M=n) for _ in specs]
    locals_ = [learn_private_conjunction(spec, f, eps, budget, m, seed,
                                         tags=(i,))
               for i, (spec, budget) in enumerate(zip(specs, budgets))]
    ledger = channel.hypotheses_to_center(locals_)
    h = combine(locals_)
    errors = measure_errors(h, specs, f, seed)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors,
                          meta={"m_per_player": m,
                                "budgets_spent": [b.spent for b in budgets]})

