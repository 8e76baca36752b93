"""Seeded stochastic simulation of detection histograms.

Serves as the statistical oracle for the analytic pipeline: a shot with n
incident photons draws Binomial(n, 1 - p_loss) survivors plus a Poisson(lam)
number of dark counts. The sampler builds its own probability tables and
calls no code of countfix.detector, whose results it checks. It does share
that module's maths: both add one photon at a time to a Poisson table. So
its laws have their own check, tests/oracles.py's conv_law, which sums
mpmath binomial and Poisson terms and which they meet within 1e-12
relative.

A histogram of independent shots is itself a multinomial draw, so the
samplers draw histograms, not shots. A shot's measured count m = S + D is
its survivors S plus its dark counts D, so `shots` shots with n incident
photons split over m in one multinomial(shots, law of m). The work grows
with the support of that law, not with the number of shots.

Reproducibility contract. All randomness comes from numpy's Generator on
the Philox 4x64 counter-based generator. The 64-bit seed is used directly
as the Philox key, and disjoint substreams are carved out of the 256-bit
counter space: the conditional-column stream for incident number n starts
at counter (0 << 192) | (n << 128), the joint prior-then-detector stream at
(1 << 192). Every draw is one Generator.multinomial call by one rule: the
weights are divided by their sum, and the entries of positive probability
are handed to numpy in increasing probability (a stable sort, so ties keep
increasing index). Column n makes one such call on its stream, over the
law of m. The joint stream first makes one over the prior's weights to
draw the incident numbers, then the column's call for each drawn n in
increasing order. Only categories of positive probability reach numpy, so
a number of zero weight is never drawn.

Histograms are therefore bit-identical for a given (seed, params, shots)
and numpy's multinomial stream, which NEP 19 does not freeze across numpy
versions. The laws date from 0.8.0 and the stream layout from 0.6.0;
earlier histograms differ (README, Determinism). numpy counts in int64, so
ShotConfig holds fewer than 2**63 shots.

The law of m for n = 0 is the Poisson table of D, and each further photon
is lost with probability p_loss or kept:
law_(n+1)[m] = p_loss law_n[m] + (1 - p_loss) law_n[m - 1]. A step is an
elementwise multiply and add over n + q entries, with no BLAS call and no
fused multiply-add, so every SIMD width gives the same bits, and the laws
of n = 0..n_max take O(n_max (n_max + q)) work. Every entry is a sum of
non-negative terms, so a step adds a few roundings of relative error and
nothing cancels. The step multiplies by p_loss itself, so a loss too small
to change 1 - p_loss still reaches the law. A call builds the Poisson
table once, up to a constant factor, from its mode outward by the ratio
pmf(d) / pmf(d - 1) = lam / d, over d < lam + 12 sqrt(lam) + 40 up to its
last entry that does not underflow, and cuts it nowhere else: the mass
beyond that window is below 1e-32 for every lam (about 2e-33 as lam
grows), less than 1e-13 of a shot at 2**63 shots.

numpy draws the categories in turn, each as a binomial of the shots left
with probability p_j / (1 - p_0 - ... - p_(j-1)), stops once the shots are
used up, and gives the shots left to the last category. The divided
weights sum to 1 within about k * 2**-53 for k categories, and numpy reads
the probability left by subtracting from 1, so that denominator carries
an absolute error of that size. In increasing probability the denominator
stays near 1 until the most likely categories, which come last: every
unlikely category is drawn with a relative error of a few roundings, and
the absolute error lands where the counts are largest. (In decreasing
probability it lands on the least likely counts; at 2**62 shots that puts
hundreds of shots on counts of probability below 1e-60.) The loop then
visits every category while shots are left, k binomial draws, which cost
more than the step that builds the law.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .detector import DetectorParams
from .priors import NumberPrior, _check_count

__all__ = ["ShotConfig", "EmpiricalColumn", "empirical_matrix", "empirical_joint"]

_COLUMN_NAMESPACE = 0
_JOINT_NAMESPACE = 1


@dataclass(frozen=True)
class ShotConfig:
    """Deterministic simulation run: detector, stream seed, and a repetition
    count below 2**63, which numpy's int64 counts hold."""

    params: DetectorParams
    seed: int
    shots: int

    def __post_init__(self) -> None:
        seed = _check_count(self.seed, "seed")
        if seed >= 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        shots = _check_count(self.shots, "shots", least=1)
        if shots >= 2**63:
            raise ValueError(f"shots must be below 2**63, got {shots}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "shots", shots)


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


def empirical_matrix(config: ShotConfig, n_max: int) -> list[EmpiricalColumn]:
    """Simulate `shots` shots for each incident n in 0..n_max.

    Column histograms estimate P(.|n). Column n reads its own substream
    alone.
    """
    columns = []
    for n, law in _laws(config.params, _check_count(n_max, "n_max")):
        counts = np.zeros(len(law), dtype=np.int64)
        _draw(_stream(config.seed, _COLUMN_NAMESPACE, n), config.shots, law, counts)
        columns.append(EmpiricalColumn(n=n, counts=counts, total=config.shots))
    return columns


def empirical_joint(config: ShotConfig, prior: NumberPrior) -> np.ndarray:
    """Joint histogram of (incident n, measured m) with n drawn from a prior.

    Returns an int64 array counts[n, m]. Conditioning a column of this
    histogram on its total reproduces the Bayes posterior P(n|m)
    empirically.
    """
    n_top = len(prior.probs) - 1
    counts = np.zeros((n_top + 1, n_top + len(_poisson_pmf(config.params.lam))), dtype=np.int64)
    stream = _stream(config.seed, _JOINT_NAMESPACE, 0)
    incident = np.zeros(n_top + 1, dtype=np.int64)
    _draw(stream, config.shots, prior.probs, incident)
    for n, law in _laws(config.params, int(np.flatnonzero(incident)[-1])):
        if incident[n]:
            _draw(stream, incident[n], law, counts[n])
    return counts


def _stream(seed: int, namespace: int, n: int) -> np.random.Generator:
    """The substream of the counters in the module docstring."""
    return np.random.Generator(np.random.Philox(key=seed, counter=(namespace << 192) | (n << 128)))


def _draw(stream: np.random.Generator, shots: int, weights: np.ndarray, out: np.ndarray) -> None:
    """Write to out[i] the counts of `shots` draws of i with probability
    proportional to weights[i] >= 0: one multinomial over the weights
    divided by their sum, its positive entries in increasing probability
    (ties in increasing i)."""
    p = weights / weights.sum()
    drawn = np.argsort(p, kind="stable")[p.size - np.count_nonzero(p) :]
    out[drawn] = stream.multinomial(shots, p[drawn])


def _laws(params: DetectorParams, top: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, law of m) for n = 0..top, each law up to a constant factor
    over m = 0..n + q: the Poisson table, then one photon added per step as
    in the module docstring."""
    law = _poisson_pmf(params.lam)
    for n in range(top + 1):
        if n:
            kept = (1.0 - params.p_loss) * law
            law = np.append(params.p_loss * law, 0.0)
            law[1:] += kept
        yield n, law


def _dark_window(lam: float) -> int:
    """The number of dark counts d < lam + 12 sqrt(lam) + 40, the most the
    sampler's Poisson table holds."""
    return math.ceil(lam + 12.0 * math.sqrt(lam) + 40.0)


def _poisson_pmf(lam: float) -> np.ndarray:
    """Poisson(lam) pmf over d = 0..q, up to a constant factor, q the last
    count below _dark_window(lam) whose entry does not underflow.

    1 at the mode, each entry above it the one below times lam / d, each
    entry below it the one above times d / lam, so an entry carries a few
    roundings per step from the mode. The mass at and beyond
    lam + 12 sqrt(lam) + 40 is below 1e-32 of the whole; at lam = 0 the
    table is [1.0].
    """
    d = np.arange(1.0, _dark_window(lam))
    mode = int(lam)
    pmf = np.concatenate([np.cumprod(d[:mode][::-1] / lam)[::-1], [1.0], np.cumprod(lam / d[mode:])])
    return pmf[: np.flatnonzero(pmf)[-1] + 1]
