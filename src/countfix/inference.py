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
from .priors import NumberPrior

__all__ = ["PosteriorMatrix", "OptimisationReport", "posterior", "optimisation_map"]

# Posterior-column values within this relative distance of the column
# maximum count as tied; ties resolve toward the smaller photon number (the
# cheaper physical hypothesis). The window makes maps stable when two
# hypotheses are mathematically tied but rounded apart by one ulp.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class PosteriorMatrix:
    """P(n|m) for every outcome m, with validity flags.

    Attributes:
        entries: entries[n, m] = P(n|m); all-zero columns where undefined.
        outcome_marginal: outcome_marginal[m] = P(m) = sum_i P(m|i) P(i).
        defined: defined[m] is False where P(m) = 0 at double precision.
    """

    entries: np.ndarray
    outcome_marginal: np.ndarray
    defined: np.ndarray

    def __post_init__(self) -> None:
        e = np.array(self.entries, dtype=float)
        marg = np.array(self.outcome_marginal, dtype=float)
        dfn = np.array(self.defined, dtype=bool)
        if e.ndim != 2:
            raise ValueError("entries must be a 2-d matrix")
        if marg.shape != (e.shape[1],) or dfn.shape != (e.shape[1],):
            raise ValueError("outcome_marginal and defined must have one entry per outcome")
        for arr in (e, marg, dfn):
            arr.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "outcome_marginal", marg)
        object.__setattr__(self, "defined", dfn)

    @property
    def n_max(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def m_max(self) -> int:
        return self.entries.shape[1] - 1


@dataclass(frozen=True)
class OptimisationReport:
    """Per-signature optimisation map and measurement fidelities.

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
        outcome_marginal: P(m), copied from the posterior.
        defined: validity flags, copied from the posterior.
        tie: tie[m] is True where another photon number came within
            TIE_RTOL of the column maximum and the map chose the smallest.
    """

    map: np.ndarray
    fidelity_raw: np.ndarray
    fidelity_opt: np.ndarray
    avg_fidelity_raw: float
    avg_fidelity_opt: float
    outcome_marginal: np.ndarray
    defined: np.ndarray
    tie: np.ndarray

    def __post_init__(self) -> None:
        for name in ("map", "fidelity_raw", "fidelity_opt", "outcome_marginal", "defined", "tie"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    joint = matrix.entries * p[np.newaxis, :]
    marginal = joint.sum(axis=1)
    defined = marginal > 0.0
    entries = joint.T.copy()
    entries[:, defined] /= marginal[defined]
    entries[:, ~defined] = 0.0
    return PosteriorMatrix(entries=entries, outcome_marginal=marginal, defined=defined)


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
        map=mapped,
        fidelity_raw=f_raw,
        fidelity_opt=f_opt,
        avg_fidelity_raw=float(weights @ f_raw[dfn]) if dfn.any() else 0.0,
        avg_fidelity_opt=float(weights @ f_opt[dfn]) if dfn.any() else 0.0,
        outcome_marginal=post.outcome_marginal,
        defined=dfn,
        tie=tie,
    )


def _aligned_prior(prior: NumberPrior, width: int) -> np.ndarray:
    p = prior.probs
    if len(p) == width:
        return p
    if len(p) < width:
        return np.concatenate([p, np.zeros(width - len(p))])
    if np.any(p[width:] != 0.0):
        raise ValueError(
            f"prior extends to n={len(p) - 1} with nonzero mass beyond the "
            f"matrix's n_max={width - 1}"
        )
    return p[:width]
