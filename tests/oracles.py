"""Independent oracles used to check the library.

Nothing in this module imports countfix. The conditional probability of
measuring m counts given n incident photons is computed here by exhaustive
enumeration over (photons lost, dark counts) with plain float arithmetic,
and alternatively by convolving scipy's binomial and Poisson pmfs. Both
paths are deliberately different from the library's log-gamma evaluation.
The dark-count truncation depth is found by a search on scipy's regularized
incomplete gamma function rather than on a table of pmf values. The table
renderer formats, and for JSON parses, one cell at a time.
"""

import json
import math

import numpy as np
from scipy import special, stats

# A column argmax counts as tied when a competitor is within this relative
# distance of the maximum; ties resolve toward the smaller photon number.
TIE_RTOL = 1e-12


def enum_conditional(p_loss: float, lam: float, m: int, n: int) -> float:
    """P(m|n) by enumerating lost photons and dark counts directly."""
    total = 0.0
    for lost in range(n + 1):
        survivors = n - lost
        d = m - survivors
        if d < 0:
            continue
        w_loss = math.comb(n, lost) * p_loss**lost * (1.0 - p_loss) ** (n - lost)
        w_dark = math.exp(-lam) * lam**d / math.factorial(d) if lam > 0 else (1.0 if d == 0 else 0.0)
        total += w_loss * w_dark
    return total


def conv_column(p_loss: float, lam: float, n: int, m_max: int) -> np.ndarray:
    """P(.|n) on 0..m_max as Binomial(n, 1-p_loss) convolved with Poisson(lam)."""
    surv = stats.binom.pmf(np.arange(n + 1), n, 1.0 - p_loss)
    dark = stats.poisson.pmf(np.arange(m_max + 1), lam)
    return np.convolve(surv, dark)[: m_max + 1]


def poisson_tail_quantile(lam: float, epsilon: float) -> int:
    """Smallest q with P(D > q) <= epsilon for D ~ Poisson(lam)."""
    if lam == 0.0:
        return 0
    q = max(0, int(lam) - 1)
    while _poisson_tail(lam, q) > epsilon:
        q += 1
    while q > 0 and _poisson_tail(lam, q - 1) <= epsilon:
        q -= 1
    return q


def _poisson_tail(lam: float, q: int) -> float:
    # P(D > q) equals the lower regularized incomplete gamma P(q+1, lam),
    # which stays accurate far below float cancellation limits.
    return float(special.gammainc(q + 1, lam))


def enum_matrix(p_loss: float, lam: float, n_max: int, m_max: int) -> np.ndarray:
    """Matrix of enum_conditional values, entry [m, n] = P(m|n)."""
    out = np.empty((m_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            out[m, n] = enum_conditional(p_loss, lam, m, n)
    return out


def enum_posterior(p_loss: float, lam: float, prior: np.ndarray, m_max: int):
    """P(n|m) by direct summation over the joint {(n, lost, d)} distribution.

    Returns (posterior, marginal, defined): posterior[n, m] = P(n|m) where
    the outcome marginal P(m) is positive, 0 elsewhere.
    """
    prior = np.asarray(prior, dtype=float)
    n_top = len(prior) - 1
    joint = np.zeros((n_top + 1, m_max + 1))
    for n in range(n_top + 1):
        for m in range(m_max + 1):
            joint[n, m] = prior[n] * enum_conditional(p_loss, lam, m, n)
    marginal = joint.sum(axis=0)
    defined = marginal > 0.0
    posterior = np.zeros_like(joint)
    posterior[:, defined] = joint[:, defined] / marginal[defined]
    return posterior, marginal, defined


def argmax_smallest(column: np.ndarray) -> tuple[int, bool]:
    """Index of the column maximum, ties (within TIE_RTOL) broken downward."""
    top = column.max()
    tied = np.flatnonzero(column >= top * (1.0 - TIE_RTOL))
    return int(tied[0]), len(tied) > 1


def enum_optmap(p_loss: float, lam: float, prior: np.ndarray, m_max: int) -> list[int | None]:
    """m -> argmax_n P(n|m) from the enumeration posterior; None where P(m)=0."""
    posterior, _, defined = enum_posterior(p_loss, lam, prior, m_max)
    out: list[int | None] = []
    for m in range(m_max + 1):
        if not defined[m]:
            out.append(None)
        else:
            out.append(argmax_smallest(posterior[:, m])[0])
    return out


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance; shorter input is zero-padded."""
    k = max(len(p), len(q))
    pp = np.zeros(k)
    qq = np.zeros(k)
    pp[: len(p)] = p
    qq[: len(q)] = q
    return 0.5 * float(np.abs(pp - qq).sum())


def render_table(fmt: str, row_name: str, columns, values: np.ndarray) -> str:
    """CSV or JSON text of a table with a leading row-index column, cell by cell.

    `columns` is a prefix for index-labelled columns, or the list of column
    names. Integer arrays render exactly, floats as `%.12g` text, and NaN as
    `undefined`; a JSON cell is `json.loads` of that text, `null` if undefined.
    """
    if values.dtype.kind in "iu":
        cells = [[str(v) for v in row.tolist()] for row in values]
    else:
        cells = [["undefined" if math.isnan(v) else format(float(v), ".12g") for v in row.tolist()]
                 for row in values]
    width = len(cells[0]) if cells else 0
    indexed = isinstance(columns, str)
    header = [str(i) for i in range(width)] if indexed else list(columns)
    if fmt == "csv":
        rows = [",".join([row_name] + header)]
        rows += [",".join([str(i)] + row) for i, row in enumerate(cells)]
        return "\n".join(rows) + "\n"
    doc = {
        "row_index": row_name,
        "columns": [columns + str(i) for i in range(width)] if indexed else header,
        "values": [[None if c == "undefined" else json.loads(c) for c in row] for row in cells],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
