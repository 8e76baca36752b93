"""Seeded stochastic simulation of single detection shots.

Serves as the independent statistical oracle for the analytic pipeline: a
shot with n incident photons draws Binomial(n, 1 - p_loss) survivors plus a
Poisson(lam) number of dark counts. The sampler builds its own probability
tables and shares no code with countfix.detector, whose results it checks.

Reproducibility contract. All randomness comes from the Philox 4x64
counter-based generator (numpy's ``Philox`` bit generator, a published,
platform-independent algorithm). The 64-bit seed is used directly as the
Philox key, and disjoint substreams are carved out of the 256-bit counter
space: the conditional-column stream for incident number n starts at
counter (0 << 192) | (n << 128), the joint prior-then-detector stream at
(1 << 192). Shot i of a stream reads row i of a (shots, width) block of
uniforms, so histograms are bit-identical for a given (seed, params, shots)
no matter how shots are batched or parallelized. A column shot reads 2
uniforms: the survivor count, then the dark count. A joint shot reads 3:
the incident number from the prior, then the same two. Histogram merging is
plain summation: associative and commutative. These layouts date from
version 0.2.0; 0.1.0 read one uniform per photon, so its histograms differ.

Every draw is an inverse-CDF lookup. The binomial and Poisson tables are
built once per sampler call from the log-ratio recurrence of their pmfs, so
no p_loss**n underflows; the Poisson table is cut at its 1 - 1e-12 quantile,
and the mass beyond the cut goes to the last entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DetectorParams
from .priors import NumberPrior

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
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if int(self.shots) < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "shots", int(self.shots))


@dataclass(frozen=True)
class EmpiricalColumn:
    """Histogram of measured counts for a fixed incident photon number."""

    n: int
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        c = np.array(self.counts, dtype=np.int64)
        if c.sum() != self.total:
            raise ValueError(f"counts sum {c.sum()} does not match total {self.total}")
        c.setflags(write=False)
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


def empirical_matrix(config: ShotConfig, n_max: int, chunk_size: int = 65536) -> list[EmpiricalColumn]:
    """Simulate `shots` shots for each incident n in 0..n_max.

    Column histograms estimate P(.|n). chunk_size only bounds memory; it
    never changes the result.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    survivors = _binomial_cdfs(1.0 - config.params.p_loss, n_max)
    dark = _poisson_cdf(config.params.lam)
    columns = []
    for n in range(n_max + 1):
        counts = np.zeros(n + len(dark), dtype=np.int64)
        for _, m in _shots(column_stream(config.seed, n), config.shots, chunk_size, survivors, dark, n):
            counts += np.bincount(m, minlength=len(counts))
        columns.append(EmpiricalColumn(n=n, counts=counts, total=config.shots))
    return columns


def empirical_joint(config: ShotConfig, prior: NumberPrior, chunk_size: int = 65536) -> np.ndarray:
    """Joint histogram of (incident n, measured m) with n drawn from a prior.

    Returns an int64 array counts[n, m]. Conditioning a column of this
    histogram on its total reproduces the Bayes posterior P(n|m)
    empirically. chunk_size only bounds memory; it never changes the result.
    """
    n_top = len(prior.probs) - 1
    survivors = _binomial_cdfs(1.0 - config.params.p_loss, n_top)
    dark = _poisson_cdf(config.params.lam)
    prior_cdf = np.cumsum(prior.probs)
    prior_cdf[-1] = 1.0  # like every table here, so no draw passes n_top
    counts = np.zeros((n_top + 1, n_top + len(dark)), dtype=np.int64)
    for n, m in _shots(joint_stream(config.seed), config.shots, chunk_size, survivors, dark, prior_cdf):
        counts += np.bincount(n * counts.shape[1] + m, minlength=counts.size).reshape(counts.shape)
    return counts


def _stream(seed: int, namespace: int, stream: int) -> np.random.Generator:
    counter = (namespace << 192) | (stream << 128)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _shots(rng, shots: int, chunk_size: int, survivors: np.ndarray, dark: np.ndarray,
           incident: int | np.ndarray):
    """Yield the incident and measured counts of `shots` shots, chunk by chunk.

    `incident` is the photon number of every shot (2 uniforms a shot), or
    the prior's CDF to draw it from with a shot's first uniform (3 uniforms
    a shot). The last two uniforms of a shot draw its survivors from row n
    of `survivors` and its dark counts from `dark`.
    """
    width = 2 if np.ndim(incident) == 0 else 3
    for start in range(0, shots, chunk_size):
        u = rng.random((min(chunk_size, shots - start), width))
        n = incident if width == 2 else _inverse_cdf(incident, 0, u[:, 0])
        yield n, _inverse_cdf(survivors, n, u[:, -2]) + _inverse_cdf(dark, 0, u[:, -1])


def _inverse_cdf(cdfs: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """Per shot, the number of entries of its CDF row cdfs[rows] at or below u.

    Every row ends in 1 > u, so a draw never passes its row's last entry.
    One binary search runs for all shots at once; rows is an index into a
    2-d table (scalar or one per shot), or 0 for a 1-d table.
    """
    last = cdfs.shape[-1] - 1
    flat = cdfs.ravel()
    base = rows * cdfs.shape[-1]
    drawn = np.zeros(len(u), dtype=np.intp)
    step = (1 << last.bit_length()) >> 1  # the largest power of two <= last, or 0
    while step:
        drawn += step * (flat[base + np.minimum(drawn + step - 1, last)] <= u)
        step >>= 1
    return drawn


def _binomial_cdfs(q: float, n_max: int) -> np.ndarray:
    """cdfs[n, s] = P(S <= s) for S ~ Binomial(n, q), set to 1 from s = n on."""
    n, s = np.ogrid[: n_max + 1, : n_max + 1]
    if q in (0.0, 1.0):  # every photon is lost, or every photon survives
        return np.where(s >= n * q, 1.0, 0.0)
    # log pmf(s) - log pmf(s - 1) for 1 <= s <= n; log pmf(0) = n log(1 - q)
    ratios = np.log(np.maximum(n - s + 1, 1) / np.maximum(s, 1)) + math.log(q / (1.0 - q))
    log_pmf = n * math.log1p(-q) + np.cumsum(np.where((s >= 1) & (s <= n), ratios, 0.0), axis=1)
    return np.where(s >= n, 1.0, np.cumsum(np.exp(log_pmf), axis=1))


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
