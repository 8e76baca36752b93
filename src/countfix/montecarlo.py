"""Seeded stochastic simulation of detection histograms.

Serves as the independent statistical oracle for the analytic pipeline: a
shot with n incident photons draws Binomial(n, 1 - p_loss) survivors plus a
Poisson(lam) number of dark counts. The sampler builds its own probability
tables and shares no code with countfix.detector, whose results it checks.

A histogram of independent shots is itself a multinomial draw, so the
samplers draw histograms, not shots. A shot's measured count m = S + D
follows the convolution of the binomial law of its survivors S with the
Poisson law of its dark counts D, so `shots` shots with n incident photons
split over m in one multinomial(shots, law of m). The work grows with the
support of that law, not with the number of shots.

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
versions. This layout dates from version 0.6.0; 0.7.0 changed no draw.
0.5.0 cut the Poisson table at its 1 - 1e-12 quantile, listed m in
decreasing probability and the prior in increasing n; 0.3.0 and 0.4.0
drew the survivors first and then one row of dark counts per survivor
number; earlier versions drew shot by shot. Their histograms differ.
numpy counts in int64, so ShotConfig holds fewer than 2**63 shots.

The law of m is np.convolve of the binomial pmf of S with the Poisson pmf
of D. Each pmf is built up to a constant factor from its mode outward by
the ratio of neighbouring entries (pmf(s) / pmf(s - 1) = (n + 1 - s)
(1 - p_loss) / (s p_loss), and pmf(d) / pmf(d - 1) = lam / d), so every
entry carries a relative error of a few roundings per step from the mode
and no p_loss**n underflows. The odds are read from p_loss itself, so a
loss too small to change 1 - p_loss still reaches the law. A call builds
the Poisson pmf once, over d < lam + 12 sqrt(lam) + 40 up to its last
entry that does not underflow, and cuts it nowhere else: the mass beyond
that window is below 1e-32 for every lam (about 2e-33 as lam grows), less
than 1e-13 of a shot at 2**63 shots.

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
visits every category while shots are left, k binomial draws, and the
convolution that builds the law already costs more.
"""

from __future__ import annotations

import math
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
    n_max = _check_count(n_max, "n_max")
    dark = _poisson_pmf(config.params.lam)
    k = np.arange(1.0, n_max + 1)
    columns = []
    for n in range(n_max + 1):
        counts = np.zeros(n + len(dark), dtype=np.int64)
        law = np.convolve(_binomial_pmf(config.params.p_loss, n, k), dark)
        _draw(_stream(config.seed, _COLUMN_NAMESPACE, n), config.shots, law, counts)
        columns.append(EmpiricalColumn(n=n, counts=counts, total=config.shots))
    return columns


def empirical_joint(config: ShotConfig, prior: NumberPrior) -> np.ndarray:
    """Joint histogram of (incident n, measured m) with n drawn from a prior.

    Returns an int64 array counts[n, m]. Conditioning a column of this
    histogram on its total reproduces the Bayes posterior P(n|m)
    empirically.
    """
    dark = _poisson_pmf(config.params.lam)
    n_top = len(prior.probs) - 1
    k = np.arange(1.0, n_top + 1)
    counts = np.zeros((n_top + 1, n_top + len(dark)), dtype=np.int64)
    stream = _stream(config.seed, _JOINT_NAMESPACE, 0)
    incident = np.zeros(n_top + 1, dtype=np.int64)
    _draw(stream, config.shots, prior.probs, incident)
    for n in np.flatnonzero(incident).tolist():
        law = np.convolve(_binomial_pmf(config.params.p_loss, n, k), dark)
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


def _binomial_pmf(p_loss: float, n: int, k: np.ndarray) -> np.ndarray:
    """Binomial(n, 1 - p_loss) pmf over s = 0..n, up to a constant factor;
    k holds 1.0, 2.0, ... up to at least n. Built by _from_mode with
    pmf(s) / pmf(s - 1) = (n + 1 - s) / s times the odds (1 - p_loss) / p_loss,
    read from p_loss itself, so no small p_loss is lost to 1 - (1 - p_loss)."""
    if p_loss in (0.0, 1.0):  # every photon survives, or every photon is lost
        pmf = np.zeros(n + 1)
        pmf[0 if p_loss else n] = 1.0
        return pmf
    odds = (1.0 - p_loss) / p_loss
    mode = min(n, int((n + 1) * (1.0 - p_loss)))
    # the ratios for s = mode + 1..n, then the inverse ratios for s = mode..1
    return _from_mode(k[: n - mode][::-1] / k[mode:n] * odds, k[:mode][::-1] / k[n - mode : n] / odds)


def _from_mode(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """A unimodal pmf up to a constant factor: 1 at its mode, each entry
    above it the one below times up[i], each entry below it the one above
    times down[i], nearest the mode first. An entry carries a few roundings
    per step from the mode, and none underflows before the entries nearer
    the mode."""
    return np.concatenate([np.cumprod(down)[::-1], [1.0], np.cumprod(up)])


def _dark_window(lam: float) -> int:
    """The number of dark counts d < lam + 12 sqrt(lam) + 40, the most the
    sampler's Poisson table holds."""
    return math.ceil(lam + 12.0 * math.sqrt(lam) + 40.0)


def _poisson_pmf(lam: float) -> np.ndarray:
    """Poisson(lam) pmf over d = 0..q, up to a constant factor, q the last
    count below _dark_window(lam) whose entry does not underflow.

    Built by _from_mode with pmf(d) / pmf(d - 1) = lam / d. The mass at and
    beyond lam + 12 sqrt(lam) + 40 is below 1e-32 of the whole; at lam = 0
    the table is [1.0].
    """
    d = np.arange(1.0, _dark_window(lam))
    mode = int(lam)
    pmf = _from_mode(lam / d[mode:], d[:mode][::-1] / lam)
    return pmf[: np.flatnonzero(pmf)[-1] + 1]
