"""Seeded stochastic simulation of detection histograms.

Serves as the independent statistical oracle for the analytic pipeline: a
shot with n incident photons draws Binomial(n, 1 - p_loss) survivors plus a
Poisson(lam) number of dark counts. The sampler builds its own probability
tables and shares no code with countfix.detector, whose results it checks.

A histogram of independent shots is itself a multinomial draw, so the
samplers draw histograms, not shots. `shots` shots with n incident photons
split into survivor numbers by multinomial(shots, binomial pmf); the c_s
shots with s survivors then split into dark counts d by multinomial(c_s,
Poisson pmf), and each adds to the measured count m = s + d. The work grows
with the (survivor, dark) support, not with the number of shots.

Reproducibility contract. All randomness comes from numpy's Generator on
the Philox 4x64 counter-based generator. The 64-bit seed is used directly
as the Philox key, and disjoint substreams are carved out of the 256-bit
counter space: the conditional-column stream for incident number n starts
at counter (0 << 192) | (n << 128), the joint prior-then-detector stream at
(1 << 192). Column n makes two Generator.multinomial calls on its stream:

1. the survivor counts, multinomial(shots, binomial pmf), over the survivor
   numbers in increasing order;
2. in one call, the dark counts of every survivor number s that has shots,
   multinomial(survivor_counts[s], Poisson pmf), one row per s in
   increasing order, over the dark counts in decreasing probability (a
   stable sort, so ties keep increasing d).

The joint stream first draws the incident numbers, multinomial(shots, prior
pmf), then makes the same two calls for each drawn n in increasing order.
numpy gives a draw's rounding remainder to its last category, so each
multinomial sees only the categories of positive probability, and a number
of zero weight is never drawn. Histograms are therefore bit-identical for a
given (seed, params, shots) and numpy's multinomial stream, which NEP 19
does not freeze across numpy versions. This layout dates from version
0.3.0; earlier versions drew shot by shot, so their histograms differ.
numpy counts in int64, so shots must be below 2**63.

Each pmf is the law that inverting its CDF samples, np.diff(np.minimum(cdf,
1.0), prepend=0.0): the first entry at or above 1 takes the rest of the
mass. The binomial and Poisson CDFs are built from the log-ratio recurrence
of their pmfs, so no p_loss**n underflows; the Poisson CDF is cut at its
1 - 1e-12 quantile, and the mass beyond the cut goes to the last entry.
numpy draws the categories in turn, each as a binomial of the shots left,
and stops once a row's shots are used up; ordering the dark counts by
decreasing probability ends that loop near the mode, not after the left
tail. The probability left is found by subtracting from 1, so a category is
drawn with an absolute error of about 1e-16 in its probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DetectorParams
from .priors import NumberPrior, _check_count

__all__ = [
    "ShotConfig",
    "EmpiricalColumn",
    "column_stream",
    "joint_stream",
    "empirical_matrix",
    "empirical_joint",
]

_POISSON_TABLE_TAIL = 1e-12
_COLUMN_NAMESPACE = 0
_JOINT_NAMESPACE = 1


@dataclass(frozen=True)
class ShotConfig:
    """Deterministic simulation run: detector, stream seed, repetition count."""

    params: DetectorParams
    seed: int
    shots: int

    def __post_init__(self) -> None:
        seed = _check_count(self.seed, "seed")
        if seed >= 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "shots", _check_count(self.shots, "shots", least=1))


@dataclass(frozen=True)
class EmpiricalColumn:
    """Histogram of measured counts for a fixed incident photon number n:
    1-d counts over m = 0..n + q, so more than n entries, summing to total."""

    n: int
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        n = _check_count(self.n, "n")
        total = _check_count(self.total, "total", least=1)
        given = np.asarray(self.counts)
        c = given.astype(np.int64)
        if np.any(c != given) or np.any(c < 0):
            raise ValueError("counts must be non-negative whole numbers")
        if c.ndim != 1 or len(c) <= n:
            raise ValueError(f"counts must be 1-d over m = 0..n + q, got shape {c.shape}")
        if c.sum() != total:
            raise ValueError(f"counts sum {c.sum()} does not match total {total}")
        c.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "counts", c)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.total


def column_stream(seed: int, n: int) -> np.random.Generator:
    """Substream feeding the conditional-column simulation for incident n."""
    return _stream(seed, _COLUMN_NAMESPACE, n)


def joint_stream(seed: int) -> np.random.Generator:
    """Substream feeding the joint prior-then-detector simulation."""
    return _stream(seed, _JOINT_NAMESPACE, 0)


def empirical_matrix(config: ShotConfig, n_max: int) -> list[EmpiricalColumn]:
    """Simulate `shots` shots for each incident n in 0..n_max.

    Column histograms estimate P(.|n). Column n reads column_stream(seed, n)
    alone.
    """
    n_max = _check_count(n_max, "n_max")
    shots = _checked_shots(config)
    q = 1.0 - config.params.p_loss
    dark = _dark_counts(config.params.lam)
    columns = []
    for n in range(n_max + 1):
        counts = np.zeros(n + dark[0], dtype=np.int64)
        _detect(column_stream(config.seed, n), shots, _pmf(_binomial_cdf(q, n)), dark, counts)
        columns.append(EmpiricalColumn(n=n, counts=counts, total=shots))
    return columns


def empirical_joint(config: ShotConfig, prior: NumberPrior) -> np.ndarray:
    """Joint histogram of (incident n, measured m) with n drawn from a prior.

    Returns an int64 array counts[n, m]. Conditioning a column of this
    histogram on its total reproduces the Bayes posterior P(n|m)
    empirically.
    """
    shots = _checked_shots(config)
    q = 1.0 - config.params.p_loss
    dark = _dark_counts(config.params.lam)
    n_top = len(prior.probs) - 1
    counts = np.zeros((n_top + 1, n_top + dark[0]), dtype=np.int64)
    stream = joint_stream(config.seed)
    incident = _multinomial(stream, shots, _pmf(_prior_cdf(prior.probs)))
    for n in np.flatnonzero(incident).tolist():
        _detect(stream, incident[n], _pmf(_binomial_cdf(q, n)), dark, counts[n])
    return counts


def _checked_shots(config: ShotConfig) -> int:
    """config.shots, refused when numpy's int64 counts cannot hold it."""
    if config.shots >= 2**63:
        raise ValueError(f"shots must be below 2**63, got {config.shots}")
    return config.shots


def _stream(seed: int, namespace: int, stream: int) -> np.random.Generator:
    counter = (namespace << 192) | (stream << 128)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _detect(
    stream: np.random.Generator,
    shots: int,
    survivor_pmf: np.ndarray,
    dark: tuple[int, np.ndarray, np.ndarray],
    out: np.ndarray,
) -> None:
    """Add to out[m] the histogram of `shots` shots whose survivor number
    follows survivor_pmf, plus a dark count from _dark_counts."""
    _, d, p = dark
    survivors = _multinomial(stream, shots, survivor_pmf)
    s = np.flatnonzero(survivors)
    # row i holds the dark counts of the shots with s[i] survivors, over d;
    # a row with few shots is mostly 0, so only its other entries are added
    rows = stream.multinomial(survivors[s], p).reshape(-1)
    at = np.flatnonzero(rows)
    i, j = np.divmod(at, len(d))
    np.add.at(out, s[i] + d[j], rows[at])


def _multinomial(stream: np.random.Generator, shots: int, pmf: np.ndarray) -> np.ndarray:
    """Counts of `shots` draws from pmf; only its positive entries reach numpy."""
    counts = np.zeros(len(pmf), dtype=np.int64)
    drawn = np.flatnonzero(pmf)
    counts[drawn] = stream.multinomial(shots, pmf[drawn])
    return counts


def _dark_counts(lam: float) -> tuple[int, np.ndarray, np.ndarray]:
    """The Poisson table's length, its dark counts of positive probability in
    decreasing probability (ties in increasing order), and their probabilities."""
    pmf = _pmf(_poisson_cdf(lam))
    d = np.flatnonzero(pmf)
    d = d[np.argsort(-pmf[d], kind="stable")]
    return len(pmf), d, pmf[d]


def _pmf(cdf: np.ndarray) -> np.ndarray:
    """The law that inverting cdf samples: its first entry at or above 1 ends it."""
    return np.diff(np.minimum(cdf, 1.0), prepend=0.0)


def _binomial_cdf(q: float, n: int) -> np.ndarray:
    """P(S <= s) for S ~ Binomial(n, q) and s = 0..n, ending in 1."""
    s = np.arange(n + 1)
    if q in (0.0, 1.0):  # every photon is lost, or every photon survives
        return np.where(s >= n * q, 1.0, 0.0)
    # log pmf(s) - log pmf(s - 1) for 1 <= s <= n; log pmf(0) = n log(1 - q)
    ratios = np.log((n - s[1:] + 1) / s[1:]) + math.log(q / (1.0 - q))
    log_pmf = n * math.log1p(-q) + np.concatenate([[0.0], np.cumsum(ratios)])
    cdf = np.cumsum(np.exp(log_pmf))
    cdf[-1] = 1.0
    return cdf


def _prior_cdf(probs: np.ndarray) -> np.ndarray:
    """P(N <= n) for n = 0..len(probs) - 1, exactly 1 from the last positive weight on."""
    cdf = np.cumsum(probs)
    cdf[np.flatnonzero(probs)[-1] :] = 1.0  # so no draw lands on a trailing zero weight
    return cdf


def _poisson_cdf(lam: float) -> np.ndarray:
    """P(D <= d) for D ~ Poisson(lam), cut at the 1 - 1e-12 quantile, ending in 1."""
    if lam == 0.0:
        return np.ones(1)
    # Beyond lam + 12 sqrt(lam) + 40 the pmf is below about e^-60.
    d = np.arange(1, math.ceil(lam + 12.0 * math.sqrt(lam) + 40.0))
    # log pmf(d) - log pmf(d - 1) = log(lam / d); log pmf(0) = -lam
    pmf = np.exp(-lam + np.concatenate([[0.0], np.cumsum(np.log(lam / d))]))
    tail = np.cumsum(pmf[:0:-1])[::-1]  # tail[d] = P(d < D < len(pmf))
    cdf = np.cumsum(pmf[: np.count_nonzero(tail > _POISSON_TABLE_TAIL) + 1])
    cdf[-1] = 1.0
    return cdf
