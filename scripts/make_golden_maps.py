#!/usr/bin/env python3
"""Regenerate tests/golden/optmap_*.csv from the enumeration oracle.

The golden optimisation maps come exclusively from tests/oracles.py, which
enumerates the joint (photons lost, dark counts) distribution with plain
float arithmetic. The library under test never touches these files, so the
suite ends up comparing two independently coded evaluations of the same
model. Row format matches the CLI's optmap.csv exactly, which lets tests
diff emitted files against golden files byte for byte.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import enum_optmap, poisson_tail_quantile  # noqa: E402

TAIL_EPS = 1e-10
N_MAX = 19


def uniform_prior(lo: int, hi: int, length: int) -> np.ndarray:
    p = np.zeros(length)
    p[lo : hi + 1] = 1.0 / (hi - lo + 1)
    return p


def pdc_prior(chi: float, length: int) -> np.ndarray:
    w = (1.0 - chi**2) * (chi**2) ** np.arange(length, dtype=float)
    return w / w.sum()


# (p_loss, lam, prior over 0..N_MAX); the three qualitative-direction cases:
# loss compensated by incrementing, dark counts by decrementing, and the
# keep-guessing-zero regime of an overwhelming dark-count rate.
CONFIGS = {
    "lossy_uniform": (0.5, 0.0, uniform_prior(0, 9, N_MAX + 1)),
    "darkcounty_uniform": (0.0, 5.0, uniform_prior(0, 9, N_MAX + 1)),
    "darkcounty_pdc": (0.0, 10.0, pdc_prior(0.7, N_MAX + 1)),
}


def main() -> None:
    out_dir = ROOT / "tests" / "golden"
    out_dir.mkdir(exist_ok=True)
    for name, (p_loss, lam, prior) in CONFIGS.items():
        m_max = N_MAX + poisson_tail_quantile(lam, TAIL_EPS)
        opt = enum_optmap(p_loss, lam, prior, m_max)
        lines = ["m,m_opt"]
        lines += [f"{m},{'undefined' if v is None else v}" for m, v in enumerate(opt)]
        path = out_dir / f"optmap_{name}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(opt)} rows)")


if __name__ == "__main__":
    main()
