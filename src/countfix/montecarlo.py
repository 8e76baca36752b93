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

empirical_matrix samples its columns on threads, one per usable CPU, and
chunk_size bounds the shots in flight across all of them. Each column reads
its own substream, so histograms do not depend on the thread count. numpy
releases the GIL while it generates and looks up the uniforms, so the
threads overlap. empirical_joint reads one stream and runs on one thread.

Every draw returns np.searchsorted(cdf, u, side="right") on a 1-d CDF: the
number of entries at or below u. There is one binomial CDF per photon
number, P(S <= s) for s = 0..n, one Poisson CDF per sampler call, and the
prior's CDF. Every CDF but the joint sampler's survivor CDFs has a guide
table (Chen & Asau's indexed search): the draw is read from the table's
bucket for u, and only a u whose bucket holds a CDF entry falls back to the
binary search, so the result is the same either way. The binomial and
Poisson CDFs are built from the log-ratio recurrence of their pmfs, so no
p_loss**n underflows; the Poisson CDF is cut at its 1 - 1e-12 quantile, and
the mass beyond the cut goes to the last entry. The joint sampler groups
each chunk's shots by incident number before drawing survivors; histograms
do not depend on the order of shots, so grouping changes no count.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
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
_GUIDE_BUCKETS = 2**12  # a power of two, so u * _GUIDE_BUCKETS is exact
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

    Column histograms estimate P(.|n). The columns are sampled concurrently,
    on the calling thread and one helper thread per further usable CPU; each
    thread draws chunk_size // threads shots at a time, so chunk_size bounds
    the shots in flight across all threads. Neither chunk_size nor the
    thread count ever changes the result.
    """
    n_max = _check_count(n_max, "n_max")
    chunk_size = _check_count(chunk_size, "chunk_size", least=1)
    workers = _workers(n_max + 1)
    chunk_size = max(1, chunk_size // workers)  # shots per draw on each thread
    dark = _guide(_poisson_cdf(config.params.lam))

    def column(n: int) -> EmpiricalColumn:
        survivors = _guide(_binomial_cdf(1.0 - config.params.p_loss, n))
        rng = column_stream(config.seed, n)
        counts = np.zeros(n + len(dark[0]), dtype=np.int64)
        for start in range(0, config.shots, chunk_size):
            u = rng.random((min(chunk_size, config.shots - start), 2))
            m = _draw(survivors, u[:, 0])
            m += _draw(dark, u[:, 1])
            counts += np.bincount(m, minlength=len(counts))
        return EmpiricalColumn(n=n, counts=counts, total=config.shots)

    return _on_threads(column, n_max + 1, workers)


def empirical_joint(config: ShotConfig, prior: NumberPrior, chunk_size: int = 65536) -> np.ndarray:
    """Joint histogram of (incident n, measured m) with n drawn from a prior.

    Returns an int64 array counts[n, m]. Conditioning a column of this
    histogram on its total reproduces the Bayes posterior P(n|m)
    empirically. chunk_size only bounds memory; it never changes the result.
    """
    chunk_size = _check_count(chunk_size, "chunk_size", least=1)
    n_top = len(prior.probs) - 1
    survivors = [_binomial_cdf(1.0 - config.params.p_loss, n) for n in range(n_top + 1)]
    dark = _guide(_poisson_cdf(config.params.lam))
    incident = _guide(_prior_cdf(prior.probs))
    counts = np.zeros((n_top + 1, n_top + len(dark[0])), dtype=np.int64)
    rng = joint_stream(config.seed)
    for start in range(0, config.shots, chunk_size):
        u = rng.random((min(chunk_size, config.shots - start), 3))
        n = _draw(incident, u[:, 0])
        sizes = np.bincount(n, minlength=n_top + 1)
        by_n = np.split(np.argsort(n), np.cumsum(sizes)[:-1])
        for k in np.flatnonzero(sizes):
            m = np.searchsorted(survivors[k], u[by_n[k], 1], side="right")
            m += _draw(dark, u[by_n[k], 2])
            counts[k] += np.bincount(m, minlength=counts.shape[1])
    return counts


def _workers(columns: int) -> int:
    """Threads that sample `columns` columns: one per usable CPU, at most one per column."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows
        cpus = os.cpu_count() or 1
    return min(columns, cpus)


def _on_threads(task: Callable[[int], object], count: int, workers: int) -> list:
    """[task(i) for i in range(count)], computed on the calling thread and
    workers - 1 helper threads that take the next i as each one finishes.

    The first exception any thread raises stops the others from taking
    further work and is re-raised here, unchanged.
    """
    results = [None] * count
    todo = list(range(count - 1, -1, -1))  # popped from the end, 0 first
    lock = threading.Lock()
    errors = []

    def run() -> None:
        while True:
            with lock:
                if not todo:
                    return
                i = todo.pop()
            results[i] = task(i)

    def helper() -> None:
        try:
            run()
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)
            with lock:
                todo.clear()

    threads = [threading.Thread(target=helper) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        run()
    finally:
        with lock:
            todo.clear()  # if the calling thread failed, the helpers stop too
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _stream(seed: int, namespace: int, stream: int) -> np.random.Generator:
    counter = (namespace << 192) | (stream << 128)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _guide(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair cdf with its guide table of _GUIDE_BUCKETS buckets, for _draw.

    table[b] is searchsorted(cdf, u, side="right") for every u in
    [b, b + 1) / _GUIDE_BUCKETS when that value is the same for all of them,
    and -1 when a CDF entry lies inside the bucket.
    """
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    low = np.searchsorted(cdf, edges[:-1], side="right")
    high = np.searchsorted(cdf, edges[1:], side="left")
    return cdf, np.where(low == high, low, -1)


def _draw(guide: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, u, side="right") for uniforms 0 <= u < 1."""
    cdf, table = guide
    # u * 2**12 is exact and the cast to intp truncates, which is floor for
    # u >= 0, so u lies in the bucket read; casting into `bucket` skips a
    # float temporary as large as u
    bucket = np.empty(len(u), dtype=np.intp)
    np.multiply(u, _GUIDE_BUCKETS, out=bucket, casting="unsafe")
    k = table[bucket]
    miss = np.flatnonzero(k < 0)
    k[miss] = np.searchsorted(cdf, u[miss], side="right")
    return k


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
