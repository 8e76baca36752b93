"""Conditional probability model of an imperfect number-resolving detector.

The detector is an ideal photon counter preceded by a loss channel and
subject to Poissonian dark counts: each of the n incident photons survives
independently with probability 1 - p_loss, and an independent Poisson(lam)
number of dark counts is added to the survivors. The measured count m is
therefore distributed as Binomial(n, 1 - p_loss) + Poisson(lam).

P(m|n) is built photon by photon from P(m|0), the Poisson pmf: one more
photon is either lost or kept as one more count, so

    P(m|n+1) = p_loss * P(m|n) + (1 - p_loss) * P(m-1|n).

Both terms are non-negative, so nothing cancels; p_loss = 0 makes a step an
exact shift, p_loss = 1 an exact copy, and dyadic inputs give exact entries.
Row m of column n reads only rows m-n..m of column 0, so an entry does not
depend on the size of its matrix.

All functions here are pure; built matrices are immutable and safe to share
across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .priors import _Fresh, _check_count, _frozen

__all__ = ["DetectorParams", "ConditionalMatrix", "build_matrix"]


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

    A p_loss or lam of -0.0 is stored as 0.0.
    """

    p_loss: float
    lam: float
    tail_epsilon: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_loss <= 1.0):
            raise ValueError(f"p_loss must be in [0, 1], got {self.p_loss!r}")
        object.__setattr__(self, "p_loss", self.p_loss + 0.0)  # -0.0 reads as 0.0
        object.__setattr__(self, "lam", _rate(self.lam))
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

    entries is a read-only copy of the caller's array; build_matrix's own is
    adopted without a copy.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = _frozen(self.entries, float)
        if e.ndim != 2 or e.size == 0:
            raise ValueError("entries must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite")
        if e.min() < 0.0 or e.max() > 1.0:
            raise ValueError("entries must be probabilities in [0, 1]")
        object.__setattr__(self, "entries", e)

    @property
    def n_max(self) -> int:
        return self.entries.shape[1] - 1

    @property
    def m_max(self) -> int:
        return self.entries.shape[0] - 1


def build_matrix(params: DetectorParams, n_max: int) -> ConditionalMatrix:
    """Construct the P(m|n) matrix for incident numbers 0..n_max.

    The measured range is truncated at m_max = n_max + q, where q is the
    smallest integer whose Poisson(lam) tail mass beyond it is at most
    tail_epsilon; every column then retains at least 1 - tail_epsilon of
    its mass. An entry's value does not depend on n_max or m_max.
    """
    n_max = _check_count(n_max, "n_max")
    m_max = _m_max(params, n_max)
    return ConditionalMatrix(_response(params, n_max, m_max).view(_Fresh))  # adopted, not copied


def _m_max(params: DetectorParams, n_max: int) -> int:
    """The last measured count build_matrix keeps for incident numbers 0..n_max."""
    return n_max + _poisson_tail_quantile(params.lam, params.tail_epsilon)


def _response(params: DetectorParams, n_max: int, m_max: int) -> np.ndarray:
    """entries[m, n] = P(m|n) from the Poisson column 0, one photon per column."""
    # m_max is at least the table's lower edge lo, as the tail quantile is
    lo, hi = _tail_table(params.lam)
    top = min(m_max, hi)
    entries = np.empty((m_max + 1, n_max + 1))
    entries[:, 0] = 0.0  # a count outside the table gets 0
    entries[lo : top + 1, 0] = _poisson_table(params.lam)[: top + 1 - lo]
    for n in range(n_max):
        _add_photon(entries[:, n], entries[:, n + 1], params.p_loss)
    return entries


def _add_photon(col: np.ndarray, out: np.ndarray, p_loss: float) -> None:
    """out = P(.|n+1) over col's rows of P(.|n); out[0] gets no kept photon."""
    np.multiply(col, p_loss, out=out)
    out[1:] += (1.0 - p_loss) * col[:-1]


def _rate(lam: float) -> float:
    """lam checked as a dark-count mean, with -0.0 read as 0.0."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    return lam + 0.0


@functools.lru_cache(maxsize=1)
def _poisson_table(lam: float) -> np.ndarray:
    """The read-only Poisson(lam) pmf over the counts _tail_table(lam).

    One table is held, for the last lam asked, so a run builds it once.
    """
    # The ratios P(d+1)/P(d) = lam/(d+1), multiplied outward from the mode k,
    # give the pmf over _tail_table(lam) up to one factor, which the sum fixes.
    lo, hi = _tail_table(lam)
    k = math.floor(lam)
    up = np.cumprod(lam / np.arange(k + 1, hi + 1))
    down = np.cumprod(np.arange(k, lo, -1) / lam)
    total = math.fsum([1.0, *up.tolist(), *down.tolist()])  # mode outward: fsum stays fast
    table = np.concatenate((down[::-1], [1.0], up)) / total
    table.setflags(write=False)
    return table


def _poisson_tail_quantile(lam: float, epsilon: float) -> int:
    """Smallest q with P(D > q) <= epsilon for D ~ Poisson(lam).

    q is never below _tail_table(lam)[0], the lower edge of the search.
    """
    # Summing downward from the far tail adds the smallest terms first.
    lo = _tail_table(lam)[0]
    pmf = _poisson_table(lam)
    tail = np.cumsum(pmf[:0:-1])[::-1]  # tail[i] = P(lo + i < D <= hi)
    return lo + int(np.count_nonzero(tail > epsilon))


def _tail_table(lam: float) -> tuple[int, int]:
    """The counts lo..hi over which _poisson_tail_quantile searches."""
    # Past 40 standard deviations (plus a margin for small lam) from the mean
    # the pmf is below e^-759.4 (worst near lam 323; checked up to lam 1e8),
    # under 2^-1074: the table holds every pmf a double can carry, and
    # P(D > lo) rounds to 1.
    width = 40.0 * math.sqrt(lam) + 200.0
    return max(0, math.floor(lam - width)), math.ceil(lam + width)
