"""Seeded stochastic simulation of single detection shots.

Serves as the independent statistical oracle for the analytic pipeline: a
shot with n incident photons draws Binomial(n, 1 - p_loss) survivors plus a
Poisson(lam) number of dark counts.

Reproducibility contract. All randomness comes from the Philox 4x64
counter-based generator (numpy's ``Philox`` bit generator, a published,
platform-independent algorithm). The 64-bit seed is used directly as the
Philox key, and disjoint substreams are carved out of the 256-bit counter
space: the conditional-column stream for incident number n starts at
counter (0 << 192) | (n << 128), the joint prior-then-detector stream at
(1 << 192). Within a stream, shot i reads a fixed slice of uniforms (shot
times draws-per-shot offset), so histograms are bit-identical for a given
(seed, params, shots) no matter how shots are batched or parallelized.
Histogram merging is plain summation: associative and commutative.

Poisson dark counts are drawn by inverse CDF from a table truncated at the
1 - 1e-12 quantile (rates up to about 1e3 are supported); binomial survival
is drawn as independent per-photon Bernoulli comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detector import DetectorParams, _poisson_pmfs, _poisson_tail_quantile
from .priors import NumberPrior

__all__ = [
    "ShotConfig",
    "EmpiricalColumn",
    "column_stream",
    "joint_stream",
    "sample_shot",
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


def sample_shot(params: DetectorParams, n: int, rng: np.random.Generator) -> int:
    """Measured count for one shot with n incident photons.

    Consumes exactly n + 1 uniforms from rng: one survival comparison per
    photon, then one inverse-CDF dark-count draw.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    u = rng.random(n + 1)
    survivors = int(np.count_nonzero(u[:n] < 1.0 - params.p_loss))
    return survivors + int(_dark_draw(u[n:], params.lam)[0])


def empirical_matrix(config: ShotConfig, n_max: int, chunk_size: int = 65536) -> list[EmpiricalColumn]:
    """Simulate `shots` shots for each incident n in 0..n_max.

    Column histograms estimate P(.|n). chunk_size only bounds memory; it
    never changes the result.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    table = _poisson_cdf(config.params.lam)
    survive = 1.0 - config.params.p_loss
    columns = []
    for n in range(n_max + 1):
        rng = column_stream(config.seed, n)
        counts = np.zeros(n + len(table), dtype=np.int64)
        remaining = config.shots
        while remaining:
            k = min(chunk_size, remaining)
            u = rng.random((k, n + 1))
            m = (u[:, :n] < survive).sum(axis=1) + _dark_draw(u[:, n], config.params.lam)
            counts += np.bincount(m, minlength=len(counts))
            remaining -= k
        columns.append(EmpiricalColumn(n=n, counts=counts, total=config.shots))
    return columns


def empirical_joint(config: ShotConfig, prior: NumberPrior, chunk_size: int = 65536) -> np.ndarray:
    """Joint histogram of (incident n, measured m) with n drawn from a prior.

    Returns an int64 array counts[n, m]. Conditioning a column of this
    histogram on its total reproduces the Bayes posterior P(n|m)
    empirically. Each shot reads a fixed-width slice of the joint
    substream (one prior draw, one survival slot per possible photon, one
    dark-count draw), so results do not depend on batching.
    """
    probs = prior.probs
    n_top = len(probs) - 1
    prior_cdf = np.cumsum(probs)
    table = _poisson_cdf(config.params.lam)
    survive = 1.0 - config.params.p_loss
    counts = np.zeros((n_top + 1, n_top + len(table)), dtype=np.int64)
    slots = np.arange(n_top)
    rng = joint_stream(config.seed)
    remaining = config.shots
    while remaining:
        k = min(chunk_size, remaining)
        u = rng.random((k, n_top + 2))
        n = np.searchsorted(prior_cdf, u[:, 0], side="right")
        np.clip(n, 0, n_top, out=n)
        survivors = ((u[:, 1 : n_top + 1] < survive) & (slots < n[:, np.newaxis])).sum(axis=1)
        m = survivors + _dark_draw(u[:, n_top + 1], config.params.lam)
        flat = np.bincount(n * counts.shape[1] + m, minlength=counts.size)
        counts += flat.reshape(counts.shape)
        remaining -= k
    return counts


def _stream(seed: int, namespace: int, stream: int) -> np.random.Generator:
    counter = (namespace << 192) | (stream << 128)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _dark_draw(u: np.ndarray, lam: float) -> np.ndarray:
    table = _poisson_cdf(lam)
    draws = np.searchsorted(table, u, side="right")
    return np.minimum(draws, len(table) - 1)


@lru_cache(maxsize=64)
def _poisson_cdf(lam: float) -> np.ndarray:
    """Cumulative Poisson(lam) table up to the 1 - 1e-12 quantile."""
    top = _poisson_tail_quantile(lam, _POISSON_TABLE_TAIL)
    table = np.cumsum(_poisson_pmfs(lam, range(top + 1)))
    table.setflags(write=False)
    return table
