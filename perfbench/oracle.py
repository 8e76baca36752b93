"""Output checks, against a reference model that does not import countfix.

P(m|n) is rebuilt here as Binomial(n, 1 - p_loss) convolved with
Poisson(lam). Both pmfs come from running sums of log ratios (the
multiplicative recurrences), not from the library's per-term log-gamma
and fsum, so agreement is evidence rather than an echo. Each check returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Within this relative distance of a column maximum, posterior values tie;
# ties resolve toward the smaller photon number, as in countfix.inference.
TIE_RTOL = 1e-12
# Largest allowed |P(m|n) - oracle|; rendering to 12 significant digits
# alone moves a value <= 1 by up to 5e-13.
PMN_ATOL = 1e-12


def poisson_pmf(lam: float, top: int) -> np.ndarray:
    if lam == 0.0:
        return np.eye(1, top + 1)[0]
    d = np.arange(1, top + 1)
    log = -lam + np.concatenate([[0.0], np.cumsum(math.log(lam) - np.log(d))])
    return np.exp(log)


def binomial_pmf(n: int, q: float) -> np.ndarray:
    """Binomial(n, q) on 0..n with the 0**0 = 1 convention."""
    if q == 0.0 or q == 1.0:
        return np.eye(1, n + 1, 0 if q == 0.0 else n)[0]
    k = np.arange(n)
    steps = np.log((n - k) / (k + 1)) + math.log(q) - math.log1p(-q)
    return np.exp(n * math.log1p(-q) + np.concatenate([[0.0], np.cumsum(steps)]))


def response(p_loss: float, lam: float, n_max: int, m_max: int) -> np.ndarray:
    """Oracle P(m|n) on 0..m_max x 0..n_max."""
    dark = poisson_pmf(lam, m_max)
    out = np.zeros((m_max + 1, n_max + 1))
    for n in range(n_max + 1):
        out[:, n] = np.convolve(binomial_pmf(n, 1.0 - p_loss), dark)[: m_max + 1]
    return out


def prior(spec: str, n_max: int) -> np.ndarray:
    kind, *values = spec.split(":")
    if kind == "pdc":
        chi2 = float(values[0]) ** 2
        w = chi2 ** np.arange(n_max + 1)
    elif kind == "uniform":
        lo, hi = int(values[0]), int(values[1])
        w = np.zeros(n_max + 1)
        w[lo: hi + 1] = 1.0
    else:
        raise ValueError(f"no oracle prior for {spec!r}")
    return w / w.sum()


def read_table(path: Path) -> list[list[str | None]]:
    """Cells of a countfix CSV or JSON table, without the index column;
    undefined cells come back as None."""
    if path.suffix == ".json":
        values = json.loads(path.read_text())["values"]
        return [[None if v is None else repr(v) for v in row] for row in values]
    rows = path.read_text().splitlines()[1:]
    return [[None if c == "undefined" else c for c in row.split(",")[1:]] for row in rows]


def check_analytic(out: Path, run) -> str | None:
    """pmn matches the oracle, columns keep 1 - tail_eps of their mass, and
    the map is the oracle posterior's smallest tied argmax wherever both
    sides define the outcome."""
    pmn = np.array(read_table(out / f"pmn.{run.format}"), dtype=float)
    m_max = pmn.shape[0] - 1
    if pmn.shape[1] != run.n_max + 1:
        return f"pmn has {pmn.shape[1]} columns, expected {run.n_max + 1}"
    ref = response(run.p_loss, run.lam, run.n_max, m_max)
    err = float(np.abs(pmn - ref).max())
    if err > PMN_ATOL:
        return f"pmn differs from the oracle by {err:.3g} > {PMN_ATOL}"
    low = float(pmn.sum(axis=0).min())
    if low < 1.0 - run.tail_eps - PMN_ATOL:
        return f"a pmn column keeps only {low!r} of its mass"
    joint = ref * prior(run.prior, run.n_max)[np.newaxis, :]
    marginal = joint.sum(axis=1)
    mapped = [row[0] for row in read_table(out / f"optmap.{run.format}")]
    if len(mapped) != m_max + 1:
        return f"optmap has {len(mapped)} rows, expected {m_max + 1}"
    for m, got in enumerate(mapped):
        if got is None or marginal[m] == 0.0:
            continue
        col = joint[m]
        top = col.max()
        want = int(np.flatnonzero(col >= top * (1.0 - TIE_RTOL))[0])
        got = int(got)
        # a near-tie the two sides round apart is not a wrong answer
        if got != want and abs(col[got] - col[want]) > 1e-9 * top:
            return f"optmap[{m}] = {got}, oracle says {want}"
    return None


def tv(p: np.ndarray, q: np.ndarray) -> float:
    k = max(len(p), len(q))
    return 0.5 * float(np.abs(np.pad(p, (0, k - len(p))) - np.pad(q, (0, k - len(q)))).sum())


def worst_column_tv(counts: np.ndarray, p_loss: float, lam: float) -> float:
    """Largest total-variation distance between a simulated column and the
    oracle; counts[m, n] holds the histogram of column n."""
    ref = response(p_loss, lam, counts.shape[1] - 1, counts.shape[0] - 1)
    return max(tv(counts[:, n] / counts[:, n].sum(), ref[:, n]) for n in range(counts.shape[1]))


def check_empirical_matrix(counts: np.ndarray, size) -> str | None:
    """Columns sum to `shots` and sit within a sqrt(k/shots) TV bound,
    k being the number of bins."""
    sums = counts.sum(axis=0)
    if np.any(sums != size.shots):
        return f"column sums {sums.tolist()} != shots {size.shots}"
    worst = worst_column_tv(counts, size.p_loss, size.lam)
    bound = math.sqrt(counts.shape[0] / size.shots)
    return None if worst <= bound else f"worst column TV {worst:.4g} > bound {bound:.4g}"


def check_empirical_joint(counts: np.ndarray, size) -> str | None:
    """Sums to `shots` and matches prior x P(m|n) within sqrt(cells/shots)."""
    if int(counts.sum()) != size.shots:
        return f"joint histogram sums to {int(counts.sum())}, not {size.shots}"
    n_top, m_top = counts.shape[0] - 1, counts.shape[1] - 1
    ref = response(size.p_loss, size.lam, n_top, m_top).T * prior(f"pdc:{size.chi}", n_top)[:, np.newaxis]
    dist = tv(counts.ravel() / size.shots, ref.ravel())
    bound = math.sqrt(counts.size / size.shots)
    return None if dist <= bound else f"joint TV {dist:.4g} > bound {bound:.4g}"


def same_tree(got: Path, want: Path) -> str | None:
    """Byte-for-byte comparison of two directory trees."""
    def files(root):
        return {p.relative_to(root): p for p in sorted(root.rglob("*")) if p.is_file()}

    a, b = files(got), files(want)
    if a.keys() != b.keys():
        return f"files {sorted(map(str, a))} != expected {sorted(map(str, b))}"
    for rel, path in a.items():
        if path.read_bytes() != b[rel].read_bytes():
            return f"{rel} differs from {want / rel}"
    return None
