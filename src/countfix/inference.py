"""Bayes inversion of the detector matrix and signature optimisation.

Given the detector's P(m|n) and a photon-number prior P(n), the posterior
P(n|m) = P(m|n) P(n) / sum_i P(m|i) P(i) says how to reinterpret a single
raw count m. The optimised signature is the n maximising P(n|m); comparing
the posterior mass at the raw signature with the column maximum gives the
raw and optimised measurement fidelities.

Outcomes m whose marginal P(m) is zero (impossible under this prior and
detector, e.g. counts above a loss-only detector's prior support) are not
errors: they are flagged undefined and excluded from maps and fidelity
aggregates. A single shot landing there has falsified the prior, which is
worth surfacing rather than crashing on.

All functions are pure and their outputs immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import ConditionalMatrix
from .priors import NumberPrior, _Fresh, _frozen

__all__ = ["PosteriorMatrix", "OptimisationReport", "posterior", "optimisation_map"]

# Posterior-column values within this relative distance of the column
# maximum count as tied; ties resolve toward the smaller photon number (the
# cheaper physical hypothesis). The window makes maps stable when two
# hypotheses are mathematically tied but rounded apart by one ulp.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class PosteriorMatrix:
    """P(n|m) for every outcome m, with validity flags.

    Arrays are read-only copies of the caller's; posterior's own are adopted,
    and its entries are Fortran-ordered (column m is contiguous).

    Attributes:
        entries: entries[n, m] = P(n|m); all-zero columns where undefined.
        outcome_marginal: outcome_marginal[m] = P(m) = sum_i P(m|i) P(i).
        defined: defined[m] is False where P(m) = 0 at double precision.
    """

    entries: np.ndarray
    outcome_marginal: np.ndarray
    defined: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("entries", float), ("outcome_marginal", float), ("defined", bool)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        if self.entries.ndim != 2:
            raise ValueError("entries must be a 2-d matrix")
        outcomes = (self.entries.shape[1],)
        if self.outcome_marginal.shape != outcomes or self.defined.shape != outcomes:
            raise ValueError("outcome_marginal and defined must have one entry per outcome")

    @property
    def n_max(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def m_max(self) -> int:
        return self.entries.shape[1] - 1


@dataclass(frozen=True)
class OptimisationReport:
    """Per-signature optimisation map and measurement fidelities.

    Arrays are read-only copies of the caller's; optimisation_map's own are
    adopted. P(m) and the validity flags are read from the posterior; here
    map[m] >= 0 marks a defined m.

    Attributes:
        map: map[m] = optimised signature for raw count m; -1 where m is
            undefined under the prior.
        fidelity_raw: P(n=m | m), the confidence the raw signature is
            correct; 0 where m exceeds the prior support, NaN where
            undefined.
        fidelity_opt: max_n P(n|m), the confidence of the optimised
            signature; NaN where undefined.
        avg_fidelity_raw: sum of P(m) * fidelity_raw[m] over defined m.
        avg_fidelity_opt: sum of P(m) * fidelity_opt[m] over defined m.
        tie: tie[m] is True where another photon number came within
            TIE_RTOL of the column maximum and the map chose the smallest.
    """

    map: np.ndarray
    fidelity_raw: np.ndarray
    fidelity_opt: np.ndarray
    avg_fidelity_raw: float
    avg_fidelity_opt: float
    tie: np.ndarray

    def __post_init__(self) -> None:
        for name in ("map", "fidelity_raw", "fidelity_opt", "tie"):
            object.__setattr__(self, name, _frozen(getattr(self, name), None))

    @property
    def m_max(self) -> int:
        return len(self.map) - 1


def posterior(matrix: ConditionalMatrix, prior: NumberPrior) -> PosteriorMatrix:
    """Invert P(m|n) against a prior to obtain P(n|m) per outcome.

    A prior shorter than the matrix's incident range is zero-padded. A
    longer prior is accepted only when the excess entries are exactly
    zero (then truncation is lossless); otherwise the prior genuinely
    extends beyond the matrix and a ValueError is raised.
    """
    width = matrix.n_max + 1
    p = _aligned_prior(prior, width)
    # the joint P(m, n) as [n, m], divided in place; an undefined column is all 0 already
    entries = matrix.entries.T * p[:, np.newaxis]
    marginal = entries.sum(axis=0)
    defined = marginal > 0.0
    np.divide(entries, marginal, out=entries, where=defined)
    return PosteriorMatrix(entries.view(_Fresh), marginal.view(_Fresh), defined.view(_Fresh))


def optimisation_map(post: PosteriorMatrix) -> OptimisationReport:
    """Derive the m -> m_opt map and raw/optimised fidelities.

    The optimised signature for outcome m is the smallest n attaining the
    maximum of P(.|m) (within TIE_RTOL); it is always a single photon
    number. Undefined outcomes get map -1 and NaN fidelities and are left
    out of the averages.
    """
    dfn = post.defined
    top = post.entries.max(axis=0)  # undefined columns are all zero
    tied = post.entries >= top * (1.0 - TIE_RTOL)
    raw = np.zeros(post.m_max + 1)  # P(n=m | m), 0 where m > n_max
    diagonal = np.diagonal(post.entries)
    raw[: len(diagonal)] = diagonal
    mapped = np.where(dfn, tied.argmax(axis=0), -1)
    tie = dfn & (tied.sum(axis=0) > 1)
    f_opt = np.where(dfn, top, np.nan)
    f_raw = np.where(dfn, raw, np.nan)
    weights = post.outcome_marginal[dfn]
    return OptimisationReport(
        map=mapped.view(_Fresh),
        fidelity_raw=f_raw.view(_Fresh),
        fidelity_opt=f_opt.view(_Fresh),
        avg_fidelity_raw=float(weights @ f_raw[dfn]) if dfn.any() else 0.0,
        avg_fidelity_opt=float(weights @ f_opt[dfn]) if dfn.any() else 0.0,
        tie=tie.view(_Fresh),
    )


def _aligned_prior(prior: NumberPrior, width: int) -> np.ndarray:
    p = prior.probs
    if np.any(p[width:] != 0.0):
        raise ValueError(
            f"prior extends to n={len(p) - 1} with nonzero mass beyond the "
            f"matrix's n_max={width - 1}"
        )
    return np.pad(p[:width], (0, max(0, width - len(p))))
