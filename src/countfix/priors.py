"""Photon-number prior distributions.

Pure constructors for the normalized distributions P(n) the Bayes inversion
conditions on: the single-arm marginal of a parametric down-conversion
source (geometric in the photon number), a uniform window, and arbitrary
user-supplied weights. Outputs are immutable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["NumberPrior", "pdc_prior", "uniform_prior", "custom_prior"]

# Default geometric tail mass left outside a PDC prior's truncated support.
_PDC_TAIL = 1e-10

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NumberPrior:
    """Normalized photon-number distribution P(n) on 0..n_max.

    Attributes:
        probs: probs[n] = P(n); nonnegative, sums to 1 within 1e-12.
        label: short provenance tag carried into reports, e.g. "pdc(chi=0.7)".
    """

    probs: np.ndarray
    label: str

    def __post_init__(self) -> None:
        p = _frozen(self.probs, float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("probs must be finite")
        if p.min() < 0.0:
            raise ValueError("probs must be nonnegative")
        if abs(p.sum() - 1.0) > _SUM_TOL:
            raise ValueError(
                f"probs must sum to 1 within {_SUM_TOL} (got {p.sum()!r}); "
                "use custom_prior to normalize raw weights"
            )
        object.__setattr__(self, "probs", p)

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1


def pdc_prior(chi: float, n_max: int | None = None) -> NumberPrior:
    """Single-arm photon-number distribution of a PDC source.

    P(n) is proportional to (1 - chi^2) chi^(2n), renormalized over the
    truncated support 0..n_max. When n_max is omitted it is the smallest N
    whose geometric tail mass chi^(2(N+1)) is at most 1e-10.
    """
    if not (0.0 <= chi < 1.0):
        raise ValueError(f"chi must be in [0, 1), got {chi!r}")
    chi += 0.0  # -0.0 reads as 0.0
    chi2 = chi * chi
    if n_max is None:
        n_max = _default_support(chi2)
    else:
        n_max = _check_count(n_max, "n_max")
    weights = (1.0 - chi2) * chi2 ** np.arange(n_max + 1)
    return NumberPrior(probs=(weights / weights.sum()).view(_Fresh), label=f"pdc(chi={chi:g})")


def uniform_prior(lo: int, hi: int) -> NumberPrior:
    """Uniform distribution P(n) = 1/(hi-lo+1) on lo..hi, zero elsewhere."""
    lo = _check_count(lo, "lo")
    hi = _check_count(hi, "hi", least=lo)
    probs = np.zeros(hi + 1)
    probs[lo:] = 1.0 / (hi - lo + 1)
    return NumberPrior(probs=probs.view(_Fresh), label=f"uniform({lo}..{hi})")


def custom_prior(weights, label: str = "custom") -> NumberPrior:
    """Normalize raw nonnegative weights into a prior.

    Accepts unnormalized histograms; at least one weight must be positive
    and all must be finite and nonnegative.
    """
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-d vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if w.min() < 0.0:
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("at least one weight must be positive")
    w /= total
    w += 0.0  # -0.0 reads as 0.0
    return NumberPrior(probs=w.view(_Fresh), label=label)


def _check_count(value, name: str, least: int = 0) -> int:
    """`value` as an int of at least `least`; bools, fractional and non-numeric values are refused."""
    try:
        if isinstance(value, bool):  # operator.index takes True as 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


class _Fresh(np.ndarray):
    """Marks an array a countfix builder has just made, for _frozen to adopt without a copy."""


def _frozen(value, dtype) -> np.ndarray:
    """`value` read-only: a _Fresh array adopted as is, any other value copied as `dtype`, -0.0 as 0.0."""
    if type(value) is _Fresh:
        arr = value.view(np.ndarray)
    else:
        arr = np.array(value, dtype=dtype)
        if arr.dtype.kind == "f":
            arr += 0.0
    arr.setflags(write=False)
    return arr


def _default_support(chi2: float) -> int:
    """Smallest N with chi2^(N+1) <= the default tail mass."""
    if chi2 == 0.0:
        return 0
    n1 = max(1, math.ceil(math.log(_PDC_TAIL) / math.log(chi2)))
    while chi2**n1 > _PDC_TAIL:
        n1 += 1
    while n1 > 1 and chi2 ** (n1 - 1) <= _PDC_TAIL:
        n1 -= 1
    return n1 - 1
