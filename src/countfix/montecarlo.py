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

Draws read the raw 64-bit Philox words, and a word w stands for the uniform
u = (w >> 11) * 2**-53, numpy's own conversion to a double, so "row i of
rng.random((shots, width))" still describes them exactly.

empirical_matrix samples its columns on threads, one per usable CPU. Each
column reads its own substream, so histograms do not depend on the thread
count. empirical_joint splits its one stream into chunks on the same threads:
a chunk's copy of the stream is advanced to its first shot, which a
counter-based generator does without drawing the words before it, and the
chunks add into one histogram under a lock. Each task, a column or a joint
chunk, allocates its own scratch for at most one chunk of _CHUNK_SHOTS //
threads shots, and a thread runs one task at a time, so _CHUNK_SHOTS still
bounds the shots in flight across all threads. numpy releases the GIL while
it generates and looks up the words, so the threads overlap.

Every draw returns np.searchsorted(cdf, u, side="right") on a 1-d CDF: the
number of entries at or below u. There is one binomial CDF per photon
number, P(S <= s) for s = 0..n, one Poisson CDF per sampler call, and the
prior's CDF. Each CDF is compared with words through its thresholds, the
first word whose u reaches each entry, and has a guide table (Chen & Asau's
indexed search) on the top bits of the word: the draw is read from the
table's bucket, and only a word whose bucket holds a threshold falls back to
the binary search, so the result is the same either way. The joint sampler
stacks the survivor tables of the numbers its prior can draw into one array
and reads every shot's survivors with one gather; only the fallbacks are
grouped by incident number. The binomial and Poisson CDFs are built from the
log-ratio recurrence of their pmfs, so no p_loss**n underflows; the Poisson
CDF is cut at its 1 - 1e-12 quantile, and the mass beyond the cut goes to
the last entry.
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
_GUIDE_BUCKETS = 2**12  # a power of two: a word's bucket is its top 12 bits
_JOINT_TABLE_ENTRIES = 2**22  # at most 8 MiB of int16 survivor guide rows
_CHUNK_SHOTS = 2**16  # shots in flight across all threads of one sampler call
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

    Column histograms estimate P(.|n). The columns are sampled concurrently,
    on the calling thread and one helper thread per further usable CPU; each
    thread draws _CHUNK_SHOTS // threads shots at a time, so _CHUNK_SHOTS
    bounds the shots in flight across all threads. Neither the chunk size
    nor the thread count ever changes the result.
    """
    n_max = _check_count(n_max, "n_max")
    workers = _workers(n_max + 1)
    chunk = max(1, _CHUNK_SHOTS // workers)  # shots per draw on each thread
    dark_cdf = _poisson_cdf(config.params.lam)
    dark = _guide(dark_cdf)

    def column(n: int) -> EmpiricalColumn:
        survivors = _guide(_binomial_cdf(1.0 - config.params.p_loss, n))
        words = column_stream(config.seed, n).bit_generator
        counts = np.zeros(n + len(dark_cdf), dtype=np.int64)
        scratch = np.empty((3, min(chunk, config.shots)), dtype=np.intp)
        for start in range(0, config.shots, chunk):
            w = words.random_raw((min(chunk, config.shots - start), 2))
            bucket, m, d = scratch[:, : len(w)]
            _draw(survivors, w[:, 0], bucket, m)
            m += _draw(dark, w[:, 1], bucket, d)
            counts += np.bincount(m, minlength=len(counts))
        return EmpiricalColumn(n=n, counts=counts, total=config.shots)

    return _on_threads(column, n_max + 1, workers)


def empirical_joint(config: ShotConfig, prior: NumberPrior) -> np.ndarray:
    """Joint histogram of (incident n, measured m) with n drawn from a prior.

    Returns an int64 array counts[n, m]. Conditioning a column of this
    histogram on its total reproduces the Bayes posterior P(n|m)
    empirically. The shots are sampled in chunks on the calling thread and
    one helper thread per further usable CPU, at most one thread per
    _CHUNK_SHOTS shots; each thread draws _CHUNK_SHOTS // threads shots at a
    time. Neither the chunk size nor the thread count ever changes the result.
    """
    n_top = len(prior.probs) - 1
    q = 1.0 - config.params.p_loss
    dark_cdf = _poisson_cdf(config.params.lam)
    dark = _guide(dark_cdf)
    incident = _guide(_prior_cdf(prior.probs))
    # One survivor guide row per number a shot can have; a wide prior gets
    # fewer buckets per row, so the table stays within _JOINT_TABLE_ENTRIES.
    drawn = np.flatnonzero(prior.probs)
    buckets = min(_GUIDE_BUCKETS, 1 << _bits(max(1, _JOINT_TABLE_ENTRIES // len(drawn))))
    table = np.empty((len(drawn), buckets), dtype=np.int16 if n_top < 2**15 else np.int32)
    thresholds = [None] * (n_top + 1)
    for row, n in enumerate(drawn):
        thresholds[n], table[row] = _guide(_binomial_cdf(q, n), buckets)
    table = table.reshape(-1)
    row_start = np.zeros(n_top + 1, dtype=np.intp)
    row_start[drawn] = np.arange(len(drawn)) * buckets
    shift = 64 - _bits(buckets)

    counts = np.zeros((n_top + 1, n_top + len(dark_cdf)), dtype=np.int64)
    flat = counts.reshape(-1)
    lock = threading.Lock()
    workers = _workers(-(-config.shots // _CHUNK_SHOTS))
    chunk = max(1, _CHUNK_SHOTS // workers)  # shots per draw on each thread

    def shots(i: int) -> None:
        start = i * chunk
        words = joint_stream(config.seed).bit_generator
        # shot `start` begins at word 3 * start, and Philox makes 4 words per counter step
        words.advance(3 * start // 4)
        words.random_raw(3 * start % 4)
        w = words.random_raw((min(chunk, config.shots - start), 3))
        bucket, n, index, m = np.empty((4, len(w)), dtype=np.intp)
        _draw(incident, w[:, 0], bucket, n)
        row_start.take(n, out=index, mode="clip")
        np.right_shift(w[:, 1], shift, out=bucket, casting="unsafe")
        index += bucket
        s = table.take(index)
        miss = np.flatnonzero(s < 0)
        if len(miss):  # group the misses by n, one binary search per group
            miss = miss[np.argsort(n[miss], kind="stable")]
            for group in np.split(miss, np.flatnonzero(np.diff(n[miss])) + 1):
                s[group] = np.searchsorted(thresholds[n[group[0]]], w[group, 1], side="right")
        _draw(dark, w[:, 2], bucket, m)
        m += s
        n *= counts.shape[1]
        m += n  # the flat index of (n, m) in counts
        with lock:
            np.add.at(flat, m, 1)

    _on_threads(shots, -(-config.shots // chunk), workers)
    return counts


def _workers(columns: int) -> int:
    """Threads that sample `columns` columns: one per usable CPU, at most one per column."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows
        cpus = os.cpu_count() or 1
    return min(columns, cpus)


def _on_threads(task: Callable[[int], object], count: int, workers: int) -> list:
    """[task(i) for i in range(count)], computed by one loop (take the next
    i, run its task) on the calling thread and on workers - 1 helper threads.

    The runner shares nothing with a task but its index: each task makes
    and frees whatever arrays it needs.

    The first exception any thread raises empties the work list, so no task
    starts after it, and is re-raised here, unchanged, once every thread has
    stopped. A helper that cannot be started does the same: the helpers
    started before it finish their current task and are joined first.
    """
    results = [None] * count
    todo = list(range(count - 1, -1, -1))  # popped from the end, 0 first
    lock = threading.Lock()
    errors = []

    def run() -> None:
        try:
            while True:
                with lock:
                    if not todo:
                        return
                    i = todo.pop()
                results[i] = task(i)
        except BaseException as exc:  # re-raised by the calling thread
            with lock:
                errors.append(exc)
                todo.clear()

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=run)
            thread.start()
            threads.append(thread)
        run()
    finally:  # empty already unless a start failed
        with lock:
            todo.clear()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _stream(seed: int, namespace: int, stream: int) -> np.random.Generator:
    counter = (namespace << 192) | (stream << 128)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _bits(x: int) -> int:
    """floor(log2(x)) for x >= 1: the log2 of a power of two."""
    return x.bit_length() - 1


def _guide(cdf: np.ndarray, buckets: int = _GUIDE_BUCKETS) -> tuple[np.ndarray, np.ndarray]:
    """Pair cdf's word thresholds with its guide table of `buckets` buckets
    (a power of two), for _draw.

    A 64-bit word w stands for the uniform u = (w >> 11) * 2**-53, and a CDF
    entry c < 1 is at or below u exactly when its threshold
    ceil(c * 2**53) << 11 is at or below w. Entries of 1 or more are
    dropped, since no u reaches them. Bucket b holds the words whose top
    bits are b; table[b] is the number of thresholds at or below each of
    them when that number is the same for all of them, and -1 when a
    threshold lies inside the bucket.
    """
    # c * 2**53 is exact and below 2**53, so the threshold fits in 64 bits
    thresholds = np.ceil(cdf[cdf < 1.0] * 2.0**53).astype(np.uint64) << 11
    shift = 64 - _bits(buckets)
    first = np.arange(buckets, dtype=np.uint64) << shift
    low = np.searchsorted(thresholds, first, side="right")
    high = np.searchsorted(thresholds, first | ((1 << shift) - 1), side="right")
    return thresholds, np.where(low == high, low, -1)


def _draw(
    guide: tuple[np.ndarray, np.ndarray], words: np.ndarray, bucket: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write searchsorted(cdf, (words >> 11) * 2**-53, side="right") for the
    cdf of guide into the intp array out, using the intp array bucket as
    scratch, and return out."""
    thresholds, table = guide
    np.right_shift(words, 64 - _bits(len(table)), out=bucket, casting="unsafe")
    # every bucket is in range; unlike "raise", "clip" writes straight into out
    table.take(bucket, out=out, mode="clip")
    miss = np.flatnonzero(out < 0)
    out[miss] = np.searchsorted(thresholds, words[miss], side="right")
    return out


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
