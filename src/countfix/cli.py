"""Command-line front end.

    countfix run      --p-loss 0.5 --lambda 1 --prior pdc:0.7 --emit pnm,optmap --out results
    countfix simulate --p-loss 0.5 --lambda 1 --seed 7 --shots 100000 --out results

`run` evaluates the analytic pipeline and writes the selected artifacts
(pmn, pn, pnm, optmap, fidelity, simulate) plus summary.json; `simulate`
only runs the seeded Monte Carlo and writes the empirical count matrix.
Flags override values from an optional --config JSON file. The tables are
written by `countfix._tables`, which owns their byte-stable text format.

This module only converts text to the types the library takes; the library
constructors check the ranges. A run checks every value and computes before
it creates --out, so a refused run creates nothing. Exit codes: 0 success,
2 usage or validation error (the message names the flag), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._tables import _fmt, _write_table, _write_text
from .detector import ConditionalMatrix, DetectorParams, _m_max, _tail_table, build_matrix
from .inference import OptimisationReport, PosteriorMatrix, optimisation_map, posterior
from .montecarlo import EmpiricalColumn, ShotConfig, _dark_window, empirical_matrix
from .priors import NumberPrior, _check_count, custom_prior, pdc_prior, uniform_prior

__all__ = ["RunConfig", "UsageError", "parse_config", "run", "main"]

EMIT_CHOICES = ("pmn", "pn", "pnm", "optmap", "fidelity", "simulate")

# config key -> (flag, type, default, help). The table drives argparse, the
# keys a --config file may set, and the defaults; `prior` and `emit` are
# flags of `run` only.
_FLAGS = {
    "p_loss": ("--p-loss", float, 0.0, "per-photon loss probability in [0, 1]"),
    "lambda": ("--lambda", float, 0.0, "mean dark counts per shot, >= 0"),
    "tail_eps": ("--tail-eps", float, 1e-10, "truncation tail bound in (0, 1)"),
    "n_max": ("--n-max", int, 19, "largest incident photon number"),
    "prior": ("--prior", str, None, "photon-number prior: pdc:<chi> | uniform:<lo>:<hi> | custom:<path>"),
    "emit": ("--emit", str, "pmn,pn,pnm,optmap,fidelity",
             f"comma-separated artifacts from {{{','.join(EMIT_CHOICES)}}}"),
    "format": ("--format", str, "csv", "output file format: csv or json"),
    "out": ("--out", str, ".", "output directory"),
    "seed": ("--seed", int, 0, "64-bit Monte Carlo stream seed"),
    "shots": ("--shots", int, 10**6, "Monte Carlo repetitions"),
}

_RUN_ONLY = ("prior", "emit")

# Largest array a run may allocate, in bytes: the P(m|n) matrix of
# (n_max + 1) * (m_max + 1) float64 entries, the int64 histogram of a run
# that simulates, or a uniform prior. The largest configuration in use
# (n_max 300, lambda 5) needs 0.79 MB.
MAX_ARRAY_BYTES = 2**25


class UsageError(ValueError):
    """Bad flag or config value; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one invocation."""

    shot_config: ShotConfig
    prior: NumberPrior | None
    prior_spec: str | None
    n_max: int
    outputs: tuple[str, ...]
    out_dir: Path
    format: str


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Parse argv (and an optional --config JSON file) into a RunConfig.

    Explicit flags override config-file values, which override defaults.
    Raises UsageError on invalid values; argparse itself raises SystemExit(2)
    on unknown flags.
    """
    args = _build_parser().parse_args(argv)
    values = {key: default for key, (_, _, default, _) in _FLAGS.items()}
    if args.config is not None:
        values.update(_load_config_file(args.config))
    for key, (flag, kind, _, _) in _FLAGS.items():
        text = getattr(args, key, None)
        if text is not None:
            values[key] = _coerce(text, kind, flag)
    if args.command == "simulate":
        values["emit"] = "simulate"
        values["prior"] = None
    elif values["prior"] is None:
        raise UsageError("--prior is required for `run` (pdc:<chi> | uniform:<lo>:<hi> | custom:<path>)")
    if values["format"] not in ("csv", "json"):
        raise UsageError(f"--format: expected csv or json, got {values['format']!r}")
    outputs = _parse_emit(values["emit"])
    detector = _checked("--p-loss, --lambda, --tail-eps", DetectorParams, p_loss=values["p_loss"],
                        lam=values["lambda"], tail_epsilon=values["tail_eps"])
    shot_config = _checked("--seed, --shots", ShotConfig, params=detector, seed=values["seed"],
                           shots=values["shots"])
    n_max = _checked("--n-max", _check_count, values["n_max"], "n_max")
    rows = n_max + 1
    # m_max is never below n_max plus the tail search table's lower edge, so checking
    # that edge first refuses a huge lambda before the search and no run the exact check admits
    _check_size("--n-max, --lambda", rows * (rows + _tail_table(detector.lam)[0]) * 8)
    _check_size("--n-max, --lambda, --tail-eps", rows * (_m_max(detector, n_max) + 1) * 8)
    if "simulate" in outputs:  # column n of the histogram holds n + the sampler's Poisson table
        _check_size("--n-max, --lambda", rows * (n_max + _dark_window(detector.lam)) * 8)
    prior = None if values["prior"] is None else _parse_prior(values["prior"], n_max)
    return RunConfig(
        shot_config=shot_config,
        prior=prior,
        prior_spec=values["prior"],
        n_max=n_max,
        outputs=outputs,
        out_dir=Path(values["out"]),
        format=values["format"],
    )


def run(config: RunConfig) -> int:
    """Compute the stages the selected artifacts read, then create --out and write them.

    Prints one line per emitted file; undefined-outcome warnings go to
    standard error.
    """
    try:
        result = _compute(config)
    except ValueError as exc:
        print(f"countfix: error: {exc}", file=sys.stderr)
        return 2
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"countfix: cannot create output directory: {exc}", file=sys.stderr)
        return 3
    if result.post is not None and not result.post.defined.all():
        missing = np.flatnonzero(~result.post.defined).tolist()
        print(
            f"countfix: warning: outcomes {missing} have zero probability "
            "under this prior and detector; emitted as undefined",
            file=sys.stderr,
        )
    try:
        for line in _emit(config, result):
            print(line)
    except OSError as exc:
        print(f"countfix: write failed: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"countfix: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse: its own usage errors, --help, --version
        return exc.code
    return run(config)


# --- configuration plumbing ---


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countfix",
        description="Bayesian post-processing of number-resolving detector signatures.",
    )
    parser.add_argument("--version", action="version", version=f"countfix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate the analytic pipeline and emit artifacts")
    sim_p = sub.add_parser("simulate", help="run the seeded Monte Carlo and emit counts")
    for p in (run_p, sim_p):
        p.add_argument("--config", type=Path, help="JSON file providing defaults for any flag")
    for key, (flag, _, default, text) in _FLAGS.items():
        if default is not None:
            text = f"{text} (default {default})"
        for p in (run_p,) if key in _RUN_ONLY else (run_p, sim_p):
            p.add_argument(flag, dest=key, help=text)
    return parser


def _load_config_file(path: Path) -> dict:
    raw = _read_json(path, "--config")
    if not isinstance(raw, dict):
        raise UsageError(f"--config: {path} must contain a JSON object")
    unknown = sorted(set(raw) - set(_FLAGS))
    if unknown:
        raise UsageError(f"--config: unknown keys {unknown}; allowed: {sorted(_FLAGS)}")
    return {key: _coerce(value, _FLAGS[key][1], _FLAGS[key][0]) for key, value in raw.items()}


def _read_json(path: Path, flag: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(f"{flag}: file not found: {path}") from None
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise UsageError(f"{flag}: cannot read JSON from {path}: {exc}") from None


def _coerce(value, kind: type, flag: str):
    """Convert a flag or config value to `kind`: float, int or str.

    Refuses bools, null, lists, dicts and fractional ints; ranges are the
    library's to check.
    """
    accepted = (str,) if kind is str else (int, float, str)
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    try:
        if isinstance(value, bool) or not isinstance(value, accepted) or fractional:
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{flag}: expected {kind.__name__}, got {value!r}") from None


def _checked(flags: str, constructor, *args, **kwargs):
    """Call a library function, reporting its ValueError against `flags`."""
    try:
        return constructor(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{flags}: {exc}") from None


def _check_size(flags: str, nbytes: int) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise UsageError(f"{flags}: the run would allocate more than {MAX_ARRAY_BYTES} bytes")


def _parse_emit(text: str) -> tuple[str, ...]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names or any(t not in EMIT_CHOICES for t in names):
        raise UsageError(f"--emit: expected one or more of {list(EMIT_CHOICES)} (got {text!r})")
    return tuple(kind for kind in EMIT_CHOICES if kind in names)


def _parse_prior(text: str, n_max: int) -> NumberPrior:
    """Build the prior of a --prior spec: pdc:<chi> | uniform:<lo>:<hi> | custom:<path>."""
    kind, sep, rest = text.partition(":")
    args = rest.split(":") if sep else []
    if kind == "pdc" and len(args) == 1:
        chi = _coerce(args[0], float, "--prior")
        return _checked("--prior, --n-max", pdc_prior, chi, n_max=n_max)
    if kind == "uniform" and len(args) == 2:
        lo, hi = (_coerce(arg, int, "--prior") for arg in args)
        _check_size("--prior", (hi + 1) * 8)
        return _checked("--prior", uniform_prior, lo, hi)
    if kind == "custom" and sep:  # a path may itself contain ":"
        path = Path(rest)
        raw = _read_json(path, "--prior")
        if not isinstance(raw, list):
            raise UsageError(f"--prior: {path} must hold a JSON array of nonnegative numbers")
        weights = [_coerce(w, float, "--prior") for w in raw]
        return _checked("--prior", custom_prior, weights, label=f"custom({path.name})")
    raise UsageError(
        f"--prior: cannot parse {text!r}; expected pdc:<chi>, uniform:<lo>:<hi> or custom:<path>"
    )


# --- pipeline ---


@dataclass(frozen=True)
class _Result:
    matrix: ConditionalMatrix | None
    post: PosteriorMatrix | None
    report: OptimisationReport | None
    empirical: list[EmpiricalColumn] | None


def _compute(config: RunConfig) -> _Result:
    matrix = post = report = empirical = None
    if config.prior is not None:  # only `run` has a prior; `simulate` reads the Monte Carlo alone
        matrix = build_matrix(config.shot_config.params, config.n_max)
        post = _checked("--prior, --n-max", posterior, matrix, config.prior)
        report = optimisation_map(post)
    if "simulate" in config.outputs:
        empirical = empirical_matrix(config.shot_config, config.n_max)
    return _Result(matrix=matrix, post=post, report=report, empirical=empirical)


# --- output ---


def _counts(columns: list[EmpiricalColumn]) -> np.ndarray:
    """Histogram columns zero-padded to a common depth: rows m, columns n."""
    counts = np.zeros((max(len(c.counts) for c in columns), len(columns)), dtype=np.int64)
    for c in columns:
        counts[: len(c.counts), c.n] = c.counts
    return counts


# artifact -> (file stem, row name, columns, description, values). `columns`
# names index-labelled columns, or is the list of value names; the description
# is formatted with the table's shape, the config and the result; `values` maps
# them to a 2-d array holding NaN where an outcome is undefined, or to
# (array, defined) where the boolean `defined` marks the columns to print.
_ARTIFACTS = {
    "pmn": ("pmn", "m", "n", "P(m|n), {rows} x {cols}", lambda c, r: r.matrix.entries),
    "pn": ("pn", "n", ["P(n)"], "{config.prior.label}, {rows} entries",
           lambda c, r: c.prior.probs[:, np.newaxis]),
    "pnm": ("pnm", "n", "m", "P(n|m), {rows} x {cols}", lambda c, r: (r.post.entries, r.post.defined)),
    "optmap": ("optmap", "m", ["m_opt"], "optimisation map, {rows} signatures",
               lambda c, r: np.where(r.post.defined, r.report.map, np.nan)[:, np.newaxis]),
    # the fidelities are NaN exactly where an outcome is undefined, and P(m) is 0
    "fidelity": ("fidelity", "m", ["P(m)", "F_raw", "F_opt"], "fidelities, {rows} signatures",
                 lambda c, r: np.column_stack([r.post.outcome_marginal, r.report.fidelity_raw,
                                               r.report.fidelity_opt])),
    "simulate": ("empirical_pmn", "m", "n",
                 "empirical counts, seed={config.shot_config.seed}, shots={config.shot_config.shots}",
                 lambda c, r: _counts(r.empirical)),
}


def _emit(config: RunConfig, result: _Result) -> list[str]:
    lines = []
    for kind in config.outputs:
        stem, row_name, columns, description, values_of = _ARTIFACTS[kind]
        values = values_of(config, result)
        values, defined = values if isinstance(values, tuple) else (values, None)
        path = config.out_dir / f"{stem}.{config.format}"
        _write_table(path, config.format, row_name, columns, values, defined)
        rows, cols = values.shape
        text = description.format(rows=rows, cols=cols, config=config, result=result)
        lines.append(f"wrote {path} ({text})")
    if config.prior is not None:
        path = config.out_dir / "summary.json"
        _write_text(path, [_summary_text(config, result).encode()])
        lines.append(f"wrote {path}")
    return lines


def _summary_text(config: RunConfig, result: _Result) -> str:
    report = result.report
    doc = {
        "tool": "countfix",
        "version": __version__,
        "p_loss": float(config.shot_config.params.p_loss),
        "lambda": float(config.shot_config.params.lam),
        "tail_epsilon": float(config.shot_config.params.tail_epsilon),
        "n_max": config.n_max,
        "m_max": result.matrix.m_max,
        "prior": config.prior.label,
        "prior_spec": config.prior_spec,
        "seed": config.shot_config.seed,
        "shots": config.shot_config.shots,
        "avg_fidelity_raw": float(_fmt(report.avg_fidelity_raw)),
        "avg_fidelity_opt": float(_fmt(report.avg_fidelity_opt)),
        "undefined_outcomes": np.flatnonzero(~result.post.defined).tolist(),
        "tied_outcomes": np.flatnonzero(report.tie).tolist(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.exit(main())
