"""Workload definitions shared by the worker (which runs them) and the
harness (which checks their outputs).

Every workload is closed-loop, single-process and single-client: one pass
runs its operations one after another, and the next pass starts when the
previous one has finished. An operation is one call into countfix's entry
point: a cold `python -m countfix` process (cli-figures), one in-process
`countfix.cli.main` call (analytic-large), or one sampler call
(montecarlo).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("cli-figures", "analytic-large", "montecarlo")

# Typical wall time of one pass on the calibration machine (2 cores, see
# context.json; it drifted by +-20% over the day). --seconds is turned into
# a fixed pass count with it, so every run of every commit times the same
# operations and its percentiles keep their ranks. At 30 s, cli-figures gets
# 4 passes: its 12 simulate calls then fill the ten samples beyond the tail
# percentile, so the tail is a simulate call, not the slowest `run` call.
NOMINAL_PASS_S = {"cli-figures": 8.5, "analytic-large": 7.7, "montecarlo": 3.9}
MIN_PASSES = 2
# A run stops starting passes once it has measured this many times --seconds.
OVERRUN = 1.5

# The 16 invocations of scripts/reproduce_figures.py, as (output subdirectory,
# argv without --out). Their outputs must match the committed results/ byte
# for byte.
_REGIMES = {"ideal": ("0", "0"), "lossy": ("0.5", "0"), "darkcounty": ("0", "1"), "swamped": ("0", "10")}
_PRIORS = {"pdc": "pdc:0.7", "uniform": "uniform:0:9"}


def cli_figures(smoke: bool = False) -> list[tuple[str, list[str]]]:
    ops = [("pn", ["run", "--prior", "pdc:0.7", "--emit", "pn"])]
    for regime, (p_loss, lam) in _REGIMES.items():
        ops.append((f"pmn_{regime}", ["run", "--p-loss", p_loss, "--lambda", lam,
                                      "--prior", "pdc:0.7", "--emit", "pmn"]))
        for prior_name, prior in _PRIORS.items():
            ops.append((f"{prior_name}_{regime}", ["run", "--p-loss", p_loss, "--lambda", lam,
                                                   "--prior", prior, "--emit", "pnm,optmap,fidelity"]))
    for regime in ("ideal", "lossy", "darkcounty"):
        p_loss, lam = _REGIMES[regime]
        ops.append((f"simulate_{regime}", ["simulate", "--p-loss", p_loss, "--lambda", lam,
                                           "--seed", "0", "--shots", "200000", "--n-max", "9"]))
    if smoke:
        return [op for op in ops if op[0] in ("pn", "uniform_lossy", "simulate_darkcounty")]
    return ops


@dataclass(frozen=True)
class AnalyticRun:
    """One `countfix run` of analytic-large."""

    name: str
    n_max: int
    p_loss: float
    lam: float
    prior: str
    format: str
    tail_eps: float = 1e-10

    def argv(self) -> list[str]:
        return ["run", "--n-max", str(self.n_max), "--p-loss", repr(self.p_loss),
                "--lambda", repr(self.lam), "--prior", self.prior, "--format", self.format]


def analytic_large(seed: int, smoke: bool = False) -> list[AnalyticRun]:
    """Large grids where the pure-Python detector loops dominate.

    The seed draws the pdc chi values; n_max is fixed so the cost does not
    depend on the seed.
    """
    rng = random.Random(seed)
    chi_a, chi_b = (round(rng.uniform(0.3, 0.9), 6) for _ in range(2))
    n = (12, 8, 6) if smoke else (300, 100, 60)
    return [
        AnalyticRun("wide_pdc", n[0], 0.5, 5.0, f"pdc:{chi_a}", "csv"),
        AnalyticRun("lossy_uniform", n[1], 0.99, 100.0, f"uniform:0:{n[1]}", "json"),
        AnalyticRun("swamped_pdc", n[2], 0.99, 800.0, f"pdc:{chi_b}", "csv"),
    ]


@dataclass(frozen=True)
class MonteCarlo:
    """Sizes of the montecarlo workload; the seed is the Philox key."""

    shots: int
    n_max: int
    p_loss: float = 0.5
    lam: float = 1.0
    chi: float = 0.7


def montecarlo(smoke: bool = False) -> MonteCarlo:
    return MonteCarlo(shots=20_000, n_max=5) if smoke else MonteCarlo(shots=1_000_000, n_max=19)


def passes(workload: str, seconds: float, smoke: bool) -> int:
    if smoke:
        return MIN_PASSES
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
