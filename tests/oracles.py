"""Independent oracles used to check the library.

Nothing in this module imports countfix. The conditional probability of
measuring m counts given n incident photons is computed here by exhaustive
enumeration over (photons lost, dark counts) with plain float arithmetic,
and alternatively by convolving binomial and Poisson pmfs from mpmath. Both
paths are deliberately different from the library's photon-by-photon
recurrence.
Every exact reference comes from mpmath at 50 significant digits: the
Poisson and binomial pmfs, the Poisson tail (a regularized incomplete gamma
function) and the binomial tails (a regularized incomplete beta function). The
dark-count truncation depth is found by bisection on the exact tail rather
than on a table of pmf values. The two pure channels under a pdc prior,
dark counts alone (p_loss 0) and loss alone (lam 0), also have closed
forms: their maps, their ties and their mean raw fidelities. The combined
channel under a pdc prior has a closed form for P(m) and the raw fidelity,
computed in mpmath at a precision set by its cancellation. That reference
models the pdc prior as the real geometric law (1 - chi^2) chi^(2n) cut at
n_max, not as pdc_prior's vector of doubles, whose weights underflow at
large n; the two differ where those weights are subnormal or zero. The table
renderer formats, and for JSON parses, one cell at a time.
"""

import decimal
import functools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np

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
    """P(.|n) on 0..m_max: conv_law's Binomial(n, 1-p_loss) convolved with Poisson(lam), cut at m_max."""
    return conv_law(p_loss, lam, n, m_max)[: m_max + 1]


def conv_law(p_loss: float, lam: float, n: int, q: int) -> np.ndarray:
    """The law of m = S + D on 0..n + q, with S ~ Binomial(n, 1-p_loss) and
    D ~ Poisson(lam), each pmf from mpmath with p_loss and lam read as their
    exact doubles; the mass beyond n + q is left out, and nothing is
    renormalised."""
    return np.convolve(_binomial_pmfs_exact(p_loss, n), _poisson_pmfs_exact(lam, q))


@functools.lru_cache(maxsize=None)
def _binomial_pmfs_exact(p_loss: float, n: int) -> np.ndarray:
    with mpmath.workdps(50):
        lost = mpmath.mpf(p_loss)
        pmfs = np.array([float(mpmath.binomial(n, s) * (1 - lost) ** s * lost ** (n - s)) for s in range(n + 1)])
    pmfs.setflags(write=False)
    return pmfs


@functools.lru_cache(maxsize=None)
def _poisson_pmfs_exact(lam: float, q: int) -> np.ndarray:
    pmfs = np.array([float(poisson_pmf_exact(lam, d)) for d in range(q + 1)])
    pmfs.setflags(write=False)
    return pmfs


def poisson_tail_quantile(lam: float, epsilon: float) -> int:
    """Smallest q >= 0 with P(D > q) <= epsilon for D ~ Poisson(lam), by
    bisection on the exact tail, which falls as q grows."""
    # P(D > -1) = 1 exceeds epsilon; the upper end is doubled until its tail
    # is at most epsilon, which 40 standard deviations past lam already are
    above, within = -1, math.ceil(lam + 40.0 * math.sqrt(lam) + 200.0)
    while poisson_tail_exact(lam, within) > epsilon:
        above, within = within, 2 * within
    while within - above > 1:
        mid = (above + within) // 2
        if poisson_tail_exact(lam, mid) > epsilon:
            above = mid
        else:
            within = mid
    return within


def poisson_pmf_exact(lam: float, d: int) -> mpmath.mpf:
    """Poisson(lam) pmf at d to 50 significant digits, lam read as its exact double."""
    with mpmath.workdps(50):
        x = mpmath.mpf(lam)
        if x == 0:
            return mpmath.mpf(d == 0)
        return mpmath.exp(-x + d * mpmath.log(x) - mpmath.loggamma(d + 1))


def poisson_tail_exact(lam: float, q: int) -> mpmath.mpf:
    """P(D > q) for D ~ Poisson(lam) to 50 significant digits: the lower
    regularized incomplete gamma P(q + 1, lam)."""
    with mpmath.workdps(50):
        return mpmath.gammainc(q + 1, 0, mpmath.mpf(lam), regularized=True)


def binomial_tails_exact(k: int, trials: int, p: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(P(X >= k), P(X <= k)) for X ~ Binomial(trials, p) to 50 significant
    digits, p read as its exact double: regularized incomplete beta functions,
    P(X >= k) = I_p(k, trials - k + 1) and P(X <= k) = I_(1-p)(trials - k, k + 1)."""
    with mpmath.workdps(50):
        x = mpmath.mpf(p)
        at_least = mpmath.betainc(k, trials - k + 1, 0, x, regularized=True) if k > 0 else mpmath.mpf(1)
        at_most = mpmath.betainc(trials - k, k + 1, 0, 1 - x, regularized=True) if k < trials else mpmath.mpf(1)
    return at_least, at_most


def poisson_text_errors(lam: float, counts, values) -> tuple[int, float]:
    """(wrong cells, worst relative error) of values[i] as the pmf at counts[i].

    A cell is wrong when its `%.12g` text is not the correctly rounded 12-digit
    text of the exact pmf. Only cells whose exact value is a normal double,
    at least 2^-1022, are counted.
    """
    twelve = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)
    wrong, worst = 0, 0.0
    for d, v in zip(counts, values):
        v = float(v)
        exact = poisson_pmf_exact(lam, d)
        if exact < mpmath.ldexp(1, -1022):
            continue
        text = format(float(twelve.plus(decimal.Decimal(mpmath.nstr(exact, 40)))), ".12g")
        wrong += format(v, ".12g") != text
        worst = max(worst, float(abs(v - exact) / exact))
    return wrong, worst


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


def dark_mean(lam: float, chi: float) -> Fraction:
    """mu = lam / chi^2, exactly, from the doubles lam and chi."""
    return Fraction(lam) / Fraction(chi) ** 2


def dark_optmap(lam: float, chi: float, n_max: int, m_max: int) -> tuple[list[int], list[bool]]:
    """Closed-form map and ties for m = 0..m_max at p_loss 0 under pdc:chi.

    With no loss, m = n + d for d ~ Poisson(lam), so P(n|m) is proportional
    to lam^(m-n) / (m-n)! chi^(2n) over n = 0..min(m, n_max), and
    P(n+1|m) / P(n|m) = (m - n) / mu with mu = dark_mean(lam, chi). The
    posterior rises while m - n > mu, so it peaks at m - min(m, floor(mu)),
    capped at n_max. It ties with the next n exactly when that ratio is 1
    there and the next n is a candidate: mu whole, m >= mu and m - mu < n_max.
    """
    mu = dark_mean(lam, chi)
    maps, ties = [], []
    for m in range(m_max + 1):
        n = min(n_max, m - min(m, math.floor(mu)))
        maps.append(n)
        ties.append(m - n == mu and n < min(m, n_max))
    return maps, ties


def dark_avg_fidelity_raw(lam: float) -> float:
    """Mean raw fidelity at p_loss 0 under any prior: the signature is right
    exactly when no dark count fires, P(d = 0) = e^-lam."""
    return math.exp(-lam)


def loss_odds(p_loss: float, chi: float) -> Fraction:
    """x = p_loss chi^2, exactly, from the doubles p_loss and chi."""
    return Fraction(p_loss) * Fraction(chi) ** 2


def loss_optmap(p_loss: float, chi: float, n_max: int) -> tuple[list[int], list[bool]]:
    """Closed-form map and ties for m = 0..n_max at lam 0 under pdc:chi.

    With no dark count, m is the n - k photons that survive, so P(n|m) is
    proportional to C(n, m) p_loss^(n-m) chi^(2n) over n = m..n_max, and
    P(n+1|m) / P(n|m) = x (n + 1) / (n + 1 - m) with x = loss_odds(p_loss,
    chi). At n = m + k that ratio falls as k grows and exceeds 1 exactly
    when k < t = ((m + 1) x - 1) / (1 - x), so the posterior peaks at
    m + k*: k* = 0 when (m + 1) x <= 1, and otherwise floor(t) + 1, capped
    at n_max. A whole t >= 0 ties m + t with m + t + 1, and the map takes
    the smaller; it is a tie when m + t + 1 is a candidate, m + t < n_max.
    """
    x = loss_odds(p_loss, chi)
    maps, ties = [], []
    for m in range(n_max + 1):
        t = ((m + 1) * x - 1) / (1 - x)
        k = max(0, math.ceil(t))
        maps.append(min(n_max, m + k))
        ties.append(t == k and m + k < n_max)
    return maps, ties


def loss_avg_fidelity_raw(p_loss: float, chi: float, n_max: int) -> float:
    """Mean raw fidelity at lam 0 under pdc:chi cut at n_max: the signature
    is right exactly when no photon is lost, so it is the sum of
    chi^(2n) (1 - p_loss)^n over the sum of chi^(2n), n = 0..n_max, to 50
    significant digits. Untruncated it is (1 - chi^2) / (1 - (1 - p_loss) chi^2)."""
    with mpmath.workdps(50):
        chi2, kept = mpmath.mpf(chi) ** 2, 1 - mpmath.mpf(p_loss)
        return float(
            mpmath.fsum((chi2 * kept) ** n for n in range(n_max + 1)) / mpmath.fsum(chi2**n for n in range(n_max + 1))
        )


@functools.lru_cache(maxsize=1)
def pdc_marginal_exact(p_loss: float, lam: float, chi: float, n_max: int, m_max: int) -> tuple[mpmath.mpf, ...]:
    """P(m) for m = 0..m_max under pdc:chi cut at N = n_max, with both loss
    and dark counts, by the closed form of the combined channel.

    With x = chi^2 and eta = 1 - p_loss, the untruncated prior (1 - x) x^n
    thins to survivors that are geometric with ratio y = eta x / (1 - p_loss x),
    so the untruncated marginal is G(m) = y G(m-1) + (1 - y) Pois(m), with
    G(-1) = 0. The prior cut at N is the untruncated one less x^(N+1) times
    itself shifted by N + 1 photons, whose survivors add Binomial(N+1, eta):

        P(m) = [G(m) - x^(N+1) sum_i Bin(N+1, eta)(i) G(m-i)] / (1 - x^(N+1)).

    The subtraction cancels for m > N, so the precision is 30 + (N+1)
    log10(1/x) + m_max log10(1/y) digits; at p_loss 1, y = 0 and nothing
    beyond the first two terms is needed. At lam 0 every m > N is impossible
    and gets exactly 0, where rounding would leave a residue. p_loss, lam and
    chi are read as their exact doubles.
    """
    x_double = chi * chi
    y_double = (1.0 - p_loss) * x_double / (1.0 - p_loss * x_double)
    digits = 30 + (n_max + 1) * math.log10(1.0 / x_double)
    if y_double > 0.0:
        digits += m_max * math.log10(1.0 / y_double)
    with mpmath.workdps(math.ceil(digits)):
        x, lost, rate = mpmath.mpf(chi) ** 2, mpmath.mpf(p_loss), mpmath.mpf(lam)
        eta = 1 - lost
        y = eta * x / (1 - lost * x)
        pois = [mpmath.exp(-rate)]
        for m in range(1, m_max + 1):
            pois.append(pois[-1] * rate / m)
        g = [(1 - y) * pois[0]]
        for m in range(1, m_max + 1):
            g.append(y * g[-1] + (1 - y) * pois[m])
        shift = [mpmath.binomial(n_max + 1, i) * eta**i * lost ** (n_max + 1 - i) for i in range(min(m_max, n_max + 1) + 1)]
        cut = x ** (n_max + 1)
        marginal = [(g[m] - cut * mpmath.fsum(shift[i] * g[m - i] for i in range(min(m, n_max + 1) + 1))) / (1 - cut)
                    for m in range(m_max + 1)]
    if lam == 0.0:
        marginal[n_max + 1 :] = [mpmath.mpf(0)] * max(0, m_max - n_max)
    return tuple(marginal)


def pdc_raw_fidelity_exact(p_loss: float, lam: float, chi: float, n_max: int, m_max: int) -> list[mpmath.mpf]:
    """F_raw(m) = P(n = m | m) for m = 0..m_max under pdc_marginal_exact's
    model: P_N(n = m) P(m|m) / P(m), where P(m|m) sums over the k of the m
    photons lost and replaced by k dark counts. It is 0 for m > n_max and
    NaN where P(m) is exactly 0."""
    marginal = pdc_marginal_exact(p_loss, lam, chi, n_max, m_max)
    with mpmath.workdps(30):
        x, lost, rate = mpmath.mpf(chi) ** 2, mpmath.mpf(p_loss), mpmath.mpf(lam)
        fidelity = []
        for m, p_m in enumerate(marginal):
            if p_m == 0:
                fidelity.append(mpmath.nan)
            elif m > n_max:
                fidelity.append(mpmath.mpf(0))
            else:
                prior = (1 - x) * x**m / (1 - x ** (n_max + 1))
                pmm = mpmath.fsum(mpmath.binomial(m, k) * lost**k * (1 - lost) ** (m - k) * rate**k / mpmath.factorial(k)
                                  for k in range(m + 1)) * mpmath.exp(-rate)
                fidelity.append(prior * pmm / p_m)
    return fidelity


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
