"""Conditional probability model of an imperfect number-resolving detector.

The detector is an ideal photon counter preceded by a loss channel and
subject to Poissonian dark counts: each of the n incident photons survives
independently with probability 1 - p_loss, and an independent Poisson(lam)
number of dark counts is added to the survivors. The measured count m is
therefore distributed as Binomial(n, 1 - p_loss) + Poisson(lam), and

    P(m|n) = sum_d  pois(d; lam) * C(n, m-d) * (1-p_loss)^(m-d) * p_loss^(n-m+d)

with the binomial coefficient taken as zero outside 0 <= m-d <= n, which
makes the sum over d finite and exact. Every term is evaluated in the log
domain via log-gamma so large factorials neither overflow nor round to
spurious zeros, and 0**0 is treated as 1 so the p_loss = 0 and p_loss = 1
edge cases come out exact. The terms of an entry are added in a fixed order,
by increasing number of survivors s = m - d, so an entry's value does not
depend on the size of the matrix it is computed in; build_matrix and
conditional_prob compute the same terms and add them in that order.

All functions here are pure; built matrices are immutable and safe to share
across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DetectorParams",
    "ConditionalMatrix",
    "poisson_pmf",
    "conditional_prob",
    "build_matrix",
]


@dataclass(frozen=True)
class DetectorParams:
    """Physical parameters of the lossy, dark-count-prone detector.

    Attributes:
        p_loss: per-photon loss probability, in [0, 1].
        lam: mean number of dark counts per measurement window. Treated as
            the per-shot mean; converting a physical rate times a window
            duration into this number is the caller's job.
        tail_epsilon: maximum probability mass allowed to fall above the
            truncated measured-count range of a built matrix, in (0, 1).
    """

    p_loss: float
    lam: float
    tail_epsilon: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_loss <= 1.0):
            raise ValueError(f"p_loss must be in [0, 1], got {self.p_loss!r}")
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        if not (0.0 < self.tail_epsilon < 1.0):
            raise ValueError(
                f"tail_epsilon must be in (0, 1), got {self.tail_epsilon!r}"
            )


@dataclass(frozen=True)
class ConditionalMatrix:
    """Finite matrix of conditional probabilities P(m|n).

    entries[m, n] is the probability of measuring m counts given n incident
    photons, for n in 0..n_max and m in 0..m_max. Matrices produced by
    build_matrix retain at least 1 - tail_epsilon of every column's mass;
    the remainder lies above m_max.
    """

    n_max: int
    m_max: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.n_max < 0 or self.m_max < 0:
            raise ValueError("n_max and m_max must be >= 0")
        e = np.array(self.entries, dtype=float)
        if e.shape != (self.m_max + 1, self.n_max + 1):
            raise ValueError(
                f"entries shape {e.shape} does not match "
                f"(m_max+1, n_max+1) = {(self.m_max + 1, self.n_max + 1)}"
            )
        if not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite")
        if e.min() < 0.0 or e.max() > 1.0:
            raise ValueError("entries must be probabilities in [0, 1]")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    def column(self, n: int) -> np.ndarray:
        """Distribution of measured counts for n incident photons."""
        return self.entries[:, n]


def poisson_pmf(lam: float, d: int) -> float:
    """Probability of d dark counts under a Poisson law with mean lam.

    Evaluated as exp(-lam + d*log(lam) - lgamma(d+1)), so rates up to 1e3
    and counts up to 1e4 stay inside float range until the final
    exponentiation.
    """
    d = _check_count(d, "d")
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    if lam == 0.0:
        return 1.0 if d == 0 else 0.0
    return math.exp(-lam + d * math.log(lam) - math.lgamma(d + 1))


def conditional_prob(params: DetectorParams, m: int, n: int) -> float:
    """P(m|n): probability of measuring m counts given n incident photons.

    Finite sum over the number of surviving photons s from 0 to min(m, n),
    with the terms build_matrix computes, added in the same order, so the two
    agree bit for bit.
    """
    m = _check_count(m, "m")
    n = _check_count(n, "n")
    top = min(m, n)  # the most photons that can survive into m counts
    survivors = _survivors(1.0 - params.p_loss, np.arange(top + 1), n).tolist()
    pois = _poisson_pmfs(params.lam, range(m - top, m + 1)).tolist()
    total = 0.0
    for s in range(top + 1):  # in increasing s, as _response adds them
        total += pois[top - s] * survivors[s]
    return total


def build_matrix(params: DetectorParams, n_max: int) -> ConditionalMatrix:
    """Construct the P(m|n) matrix for incident numbers 0..n_max.

    The measured range is truncated at m_max = n_max + q, where q is the
    smallest integer whose Poisson(lam) tail mass beyond it is at most
    tail_epsilon; every column then retains at least 1 - tail_epsilon of
    its mass. Each entry adds its terms in increasing survivor count, so
    its value does not depend on n_max or m_max, and it equals
    conditional_prob bit for bit.
    """
    n_max = _check_count(n_max, "n_max")
    m_max = n_max + _poisson_tail_quantile(params.lam, params.tail_epsilon)
    return ConditionalMatrix(n_max=n_max, m_max=m_max, entries=_response(params, n_max, m_max))


def _check_count(value, name: str) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _response(params: DetectorParams, n_max: int, m_max: int) -> np.ndarray:
    """entries[m, n] = sum over s of pois(m - s) * B[s, n], added in increasing s."""
    s, n = np.ogrid[: n_max + 1, : n_max + 1]
    survivors = _survivors(1.0 - params.p_loss, s, n)
    pois = _poisson_pmfs(params.lam, range(m_max + 1))
    entries = np.zeros((m_max + 1, n_max + 1))
    for k in range(min(n_max, m_max) + 1):  # the terms where k photons survive
        entries[k:, k:] += pois[: m_max + 1 - k, np.newaxis] * survivors[k, k:]
    return entries


def _survivors(q: float, s, n) -> np.ndarray:
    """B[s, n] = C(n, s) q^s (1-q)^(n-s), the probability that s of n photons survive.

    s and n are integer arrays or scalars that broadcast together, and no s
    exceeds max(n); entries where s > n are never read. An entry is the same
    elementwise expression whatever the shapes, so build_matrix and
    conditional_prob get the same bits.
    """
    s, n = np.broadcast_arrays(s, n)
    if q == 0.0:  # 0**0 = 1: every photon is lost
        return (s == 0).astype(float)
    if q == 1.0:  # 0**0 = 1: every photon survives
        return (s == n).astype(float)
    log_fact = np.array([math.lgamma(k + 1) for k in range(int(n.max()) + 1)])
    lost = np.maximum(n - s, 0)  # clipped where s > n, a part never read
    log_comb = log_fact[n] - log_fact[s] - log_fact[lost]
    return np.exp(log_comb + s * math.log(q) + lost * math.log1p(-q))


def _poisson_pmfs(lam: float, counts: range) -> np.ndarray:
    """poisson_pmf(lam, d) for each d in counts."""
    return np.array([poisson_pmf(lam, d) for d in counts])


def _poisson_tail_quantile(lam: float, epsilon: float) -> int:
    """Smallest q with P(D > q) <= epsilon for D ~ Poisson(lam)."""
    # Past 40 standard deviations (plus a margin for small lam) from the mean
    # the pmf is below about e^-700, so the mass outside the table is far
    # below any epsilon and P(D > lo) rounds to 1. Summing downward from the
    # far tail adds the smallest terms first.
    width = 40.0 * math.sqrt(lam) + 200.0
    lo, hi = max(0, math.floor(lam - width)), math.ceil(lam + width)
    pmf = _poisson_pmfs(lam, range(lo, hi + 1))
    tail = np.cumsum(pmf[:0:-1])[::-1]  # tail[i] = P(lo + i < D <= hi)
    return lo + int(np.count_nonzero(tail > epsilon))
