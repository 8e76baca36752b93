"""Command-line front end.

    countfix run      --p-loss 0.5 --lambda 1 --prior pdc:0.7 --emit pnm,optmap --out results
    countfix simulate --p-loss 0.5 --lambda 1 --seed 7 --shots 100000 --out results

`run` evaluates the analytic pipeline and writes the selected artifacts
(pmn, pn, pnm, optmap, fidelity, simulate) plus summary.json; `simulate`
only runs the seeded Monte Carlo and writes the empirical count matrix.
Flags override values from an optional --config JSON file. All outputs are
plain rectangular data rendered at 12 significant digits and are
byte-deterministic for a fixed configuration: float tables hold the exact
`%.12g` text of each cell, formatted by numpy a block of cells at a time.
Each file is written whole or not at all: a failed write leaves the
previous file in place.

This module only converts text to the types the library takes; the library
constructors check the ranges. A run checks every value and computes before
it creates --out, so a refused run creates nothing. Exit codes: 0 success,
2 usage or validation error (the message names the flag), 3 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .detector import (
    ConditionalMatrix,
    DetectorParams,
    _poisson_tail_quantile,
    _tail_table,
    build_matrix,
)
from .inference import OptimisationReport, PosteriorMatrix, optimisation_map, posterior
from .montecarlo import EmpiricalColumn, ShotConfig, empirical_matrix
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
# (n_max + 1) * (n_max + q + 1) float64 entries, q being build_matrix's Poisson
# tail quantile, or a uniform prior. The largest configuration in use
# (n_max 300, lambda 5) needs 0.79 MB.
MAX_ARRAY_BYTES = 2**25

# Most shots a simulating run may take over all its columns, shots * (n_max + 1):
# about 850 times the default run (10**6 shots, n_max 19).
MAX_SHOTS = 2**34

UNDEFINED = "undefined"


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
    # q is never below its search table's lower edge, so checking that edge first
    # refuses a huge lambda before the search and no run the exact check admits
    _check_size("--n-max, --lambda", rows * (rows + _tail_table(detector.lam)[0]) * 8)
    tail = _poisson_tail_quantile(detector.lam, detector.tail_epsilon)
    _check_size("--n-max, --lambda, --tail-eps", rows * (rows + tail) * 8)
    if "simulate" in outputs and shot_config.shots * rows > MAX_SHOTS:
        raise UsageError(f"--shots, --n-max: shots * (n_max + 1) must be at most {MAX_SHOTS}")
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
    prior: NumberPrior | None
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
    return _Result(matrix=matrix, prior=config.prior, post=post, report=report, empirical=empirical)


# --- rendering ---
#
# Float tables are formatted by numpy a block of cells at a time, into records
# of NUL-padded text that bytes.translate compacts; Python formats only the
# cells numpy cannot round safely. Other tables keep a `%` template per row.


_NORMAL_MIN = 2.0**-1022
# %.12g writes 999999999999.5 and every larger magnitude in exponent form, 1e+12 and up
_EXPONENT_MIN = 999999999999.5
_CHUNK = 4096  # cells per block


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _counts(columns: list[EmpiricalColumn]) -> np.ndarray:
    """Histogram columns zero-padded to a common depth: rows m, columns n."""
    depth = max(len(c.counts) for c in columns)
    return np.column_stack([np.pad(c.counts, (0, depth - len(c.counts))) for c in columns])


# artifact -> (file stem, row name, columns, description, values). `columns`
# names index-labelled columns, or is the list of value names; the description
# is formatted with the table's shape, the config and the result; `values` maps
# the result to a 2-d array holding NaN where an outcome is undefined, or to
# (array, defined) where the boolean `defined` marks the columns to print.
_ARTIFACTS = {
    "pmn": ("pmn", "m", "n", "P(m|n), {rows} x {cols}", lambda r: r.matrix.entries),
    "pn": ("pn", "n", ["P(n)"], "{result.prior.label}, {rows} entries",
           lambda r: r.prior.probs[:, np.newaxis]),
    "pnm": ("pnm", "n", "m", "P(n|m), {rows} x {cols}", lambda r: (r.post.entries, r.post.defined)),
    "optmap": ("optmap", "m", ["m_opt"], "optimisation map, {rows} signatures",
               lambda r: np.where(r.report.defined, r.report.map, np.nan)[:, np.newaxis]),
    # the fidelities are NaN exactly where an outcome is undefined, and P(m) is 0
    "fidelity": ("fidelity", "m", ["P(m)", "F_raw", "F_opt"], "fidelities, {rows} signatures",
                 lambda r: np.column_stack([r.report.outcome_marginal, r.report.fidelity_raw,
                                            r.report.fidelity_opt])),
    "simulate": ("empirical_pmn", "m", "n",
                 "empirical counts, seed={config.shot_config.seed}, shots={config.shot_config.shots}",
                 lambda r: _counts(r.empirical)),
}


def _emit(config: RunConfig, result: _Result) -> list[str]:
    lines = []
    for kind in config.outputs:
        stem, row_name, columns, description, values_of = _ARTIFACTS[kind]
        values = values_of(result)
        values, defined = values if isinstance(values, tuple) else (values, None)
        path = config.out_dir / f"{stem}.{config.format}"
        _write_table(path, config.format, row_name, columns, values, defined)
        rows, cols = values.shape
        text = description.format(rows=rows, cols=cols, config=config, result=result)
        lines.append(f"wrote {path} ({text})")
    if config.prior is not None:
        path = config.out_dir / "summary.json"
        _write_text(path, [_summary_text(config, result)])
        lines.append(f"wrote {path}")
    return lines


def _write_table(path, fmt, row_name, columns, values, defined=None):
    """Rectangular data with a leading row-index column; JSON writes `undefined` as null.

    A CSV cell is the `%.12g` text of its value (integer arrays render
    exactly), `undefined` for NaN and, in a float table, for every cell of a
    column that `defined` marks False. A JSON cell is the JSON reading of that
    text, so `3` and not `3.0`. For an integer, for +0 and for
    2**-1022 <= |x| < 999999999999.5 that is the CSV text itself. Otherwise it
    is the shortest `repr` of the double the text reads as, or `0` for -0.0:
    5e-324 gives `5e-324` (CSV `4.94065645841e-324`) and 999999999999.7 gives
    `1000000000000.0` (CSV `1e+12`). The text streams to the file.
    """
    width = values.shape[1]
    indexed = isinstance(columns, str)
    header = [str(i) for i in range(width)] if indexed else list(columns)
    if fmt == "csv":
        head, tail = ",".join([row_name] + header) + "\n", ""
    else:
        doc = {
            "row_index": row_name,
            "columns": [columns + str(i) for i in range(width)] if indexed else header,
            "values": None,
        }
        # json.dumps encodes in Python when given an indent, so only the head is
        # indented that way; the rows are written in the same layout (rows 4
        # spaces deep, cells 6), spliced in for "values", the last key
        head = json.dumps(doc, indent=2, sort_keys=True).removesuffix("null\n}") + "[\n"
        tail = "\n  ]\n}\n"
    if values.dtype.kind == "f":
        body = _float_rows(values, defined, fmt)
    else:
        body = _template_rows(values, fmt)
    _write_text(path, itertools.chain([head], body, [tail]))


# the text between cells and at the end of a row
_LAYOUT = {"csv": (",", "\n"), "json": (",\n      ", "\n    ]")}


def _row_start(fmt: str, i: int) -> str:
    if fmt == "csv":
        return f"{i},"
    return ",\n    [\n      " if i else "    [\n      "


def _template_rows(values, fmt):
    """Rows formatted by one `%d` (integers) or `%.12g` template each."""
    sep, end = _LAYOUT[fmt]
    template = ",".join(["%d" if values.dtype.kind in "iu" else "%.12g"] * values.shape[1])
    token = UNDEFINED if fmt == "csv" else "null"
    for i, row in enumerate(values):
        # the %.12g text of a finite float never contains "nan"
        text = (template % tuple(row.tolist())).replace("nan", token).replace(",", sep)
        yield _row_start(fmt, i) + text + end


def _float_rows(values, defined, fmt):
    """The rows of a float table as text, _CHUNK cells at a time.

    A cell is six NUL-padded little-endian uint64 words: sign and `0.000`
    lead, 12 digits one per 16-bit lane (the high byte holds the point),
    exponent, separator. A row starts with two words of prefix.
    """
    nrows, width = values.shape
    step = max(1, _CHUNK // width)
    for r0 in range(0, nrows, step):
        r1 = min(r0 + step, nrows)
        starts = np.array([_row_start(fmt, i).encode() for i in range(r0, r1)], "S16")
        for c0 in range(0, width, _CHUNK):  # a row wider than a block spans several
            c1 = min(c0 + _CHUNK, width)
            block = np.asarray(values[r0:r1, c0:c1], dtype=np.float64)
            if defined is None or defined[c0:c1].all():
                words = _cell_words(block.ravel(), fmt).reshape(r1 - r0, c1 - c0, 6)
            else:  # undefined columns get the token and skip the arithmetic
                cols = np.flatnonzero(defined[c0:c1])
                words = np.empty((r1 - r0, c1 - c0, 6), _WORD)
                words[:] = _TOKEN[fmt]
                words[:, cols] = _cell_words(block[:, cols].ravel(), fmt).reshape(r1 - r0, len(cols), 6)
            if c1 == width:
                words[:, -1, 5] = _SEPARATOR[fmt][1]
            words = words.reshape(r1 - r0, -1)
            if c0 == 0:
                words = np.hstack([starts.view(_WORD).reshape(r1 - r0, 2), words])
            yield words.tobytes().translate(None, b"\0").decode("ascii")


def _cell_words(x, fmt):
    """(n, 6) words of the n cells `x`: the text of each, then the separator."""
    words = np.empty((len(x), 6), _WORD)
    a = np.abs(x)
    lo, hi = _PLAIN[fmt]
    rest = np.flatnonzero(~((a >= lo) & (a < hi)))  # NaN, +-0, and cells for _cell_text
    a[rest] = 1.0  # formatted, then overwritten
    unsafe = _digit_words(a, x < 0, words)
    words[:, 5] = _SEPARATOR[fmt][0]
    others = x[rest]
    nan, zero = np.isnan(others), others == 0
    words[rest[nan]] = _TOKEN[fmt]
    words[rest[zero], :5] = _ZERO[fmt][np.signbit(others[zero]).astype(np.intp)]
    slow = np.concatenate([np.flatnonzero(unsafe), rest[~nan & ~zero]])
    words[slow, :5] = _text_words(*(_cell_text(v, fmt) for v in x[slow].tolist()))
    return words


def _cell_text(x: float, fmt: str) -> str:
    """`%.12g` in Python, and for JSON once more through the codec where that text differs."""
    text = _fmt(x)
    if fmt == "json" and not _NORMAL_MIN <= abs(x) < _EXPONENT_MIN:
        text = json.dumps(json.loads(text))
    return text


def _digit_words(a, negative, words):
    """Write words 0-4 of the %.12g text of each positive finite `a`; return where they may be wrong.

    With e = floor(log10 a) and c = 10**(11 - e) correctly rounded, y = a * c
    is within 2.3e-4 of exact (below 1e-280, a * (c / 2**128) * 2**128). e
    moves by one where y lies outside [99999999999.95, 999999999999.5), where
    the 12 digits are D = rint(y) with exponent e. D is exact unless y is
    within 2**-10 of a tie or of the range's ends: those cells go to `_cell_text`.
    """
    j = np.floor(np.log10(a)).astype(np.intp) + _E0
    y = a * _POW10[j] * _SCALE[j]
    over, under = y >= _Y_HI, y < _Y_LO
    if over.any() or under.any():
        j += over
        j -= under
        y = a * _POW10[j] * _SCALE[j]
    digits = np.rint(y)
    unsafe = (np.abs(y - digits) > 0.5 - _TOLERANCE) | (y < _Y_LO + _TOLERANCE) | (y > _Y_HI - _TOLERANCE)
    digits = digits.astype(np.int64)
    high = digits // 10**8
    low = digits - high * 10**8
    mid = low // 10**4
    low -= mid * 10**4
    # trailing zeros of the 12 digits, from those of each 4-digit group
    zeros = _ZEROS4[low] + (low == 0) * (_ZEROS4[mid] + (mid == 0) * _ZEROS4[high])
    form = _FORM[j] - zeros
    words[:, 0] = _LEAD[j] | negative * np.uint64(ord("-"))
    for word, group, keep in zip((1, 2, 3), (high, mid, low), _KEEP):
        np.bitwise_and(_DIGITS4[group], keep[form], out=words[:, word])
    words[:, 4] = _EXPONENT[j]
    return unsafe


def _text_words(*texts):
    return np.frombuffer(b"".join(t.encode().ljust(40, b"\0") for t in texts), _WORD).reshape(-1, 5)


def _render_tables():
    """Lookup tables of `_digit_words`, indexed by exponent + _E0, 4-digit group or form."""
    exps = np.arange(-_E0, 310)  # every decimal exponent of a positive double, and one either side
    k = 11 - exps
    # 10**k = 5**k * 2**k, where int -> float and int / int round 5**+-p correctly
    fives = [1]
    for _ in range(k.max()):
        fives.append(5 * fives[-1])
    five = np.where(k >= 0, np.take([float(f) for f in fives], abs(k)), np.take([1 / f for f in fives], abs(k)))
    scaled = k >= 291  # 10**k overflows
    pow10 = np.ldexp(five, k - 128 * scaled)
    scale = np.where(scaled, 2.0**128, 1.0)
    # form c: 0..11 fixed with the point after digit c, 12 fixed after a `0.000`
    # lead, and exponent form prints as c = 0; _FORM - trailing zeros = 13 c + digits
    fixed = (exps >= -4) & (exps <= 11)
    form = np.where(fixed & (exps < 0), 12, np.where(fixed, exps, 0)) * 13 + 12
    lead = np.zeros(len(exps), np.uint64)  # byte 0 is left for the sign
    lead[_E0 - 4:_E0] = [int.from_bytes(b"\0" + b"0." + b"0" * (-e - 1), "little") for e in range(-4, 0)]
    mag = np.abs(exps)  # a NUL hundreds digit is dropped with the padding
    chars = [np.full(len(exps), ord("e")), np.where(exps < 0, ord("-"), ord("+")),
             np.where(mag >= 100, 48 + mag // 100, 0), 48 + mag // 10 % 10, 48 + mag % 10]
    exponent = sum(c.astype(np.uint64) << np.uint64(8 * i) for i, c in enumerate(chars)) * ~fixed
    digit = np.indices((10,) * 4, np.uint64).reshape(4, -1)  # the digits of 0..9999
    digits4 = sum((d + ord("0") + (ord(".") << 8)) << np.uint64(16 * i) for i, d in enumerate(digit))
    d0, d1, d2, d3 = digit == 0
    zeros4 = (d3 * (1 + d2 * (1 + d1 * (1 + d0)))).astype(np.intp)
    # per form and number of digits: the lanes printed and the point if any
    c, s, lane = np.ogrid[:13, :13, :12]
    kept = lane < np.where(c == 12, s, np.maximum(s, c + 1))
    point = (c < 12) & (s > c + 1) & (lane == c)
    mask = (kept * 0xFF + point * 0xFF00).astype(np.uint64) << (16 * (lane % 4)).astype(np.uint64)
    keep = mask.reshape(169, 3, 4).sum(axis=2, dtype=np.uint64).T.copy()
    return pow10, scale, form, lead, exponent, digits4, zeros4, keep


_WORD = np.dtype("<u8")
_E0 = 325  # index of exponent 0 in the exponent tables
_Y_LO, _Y_HI, _TOLERANCE = 99999999999.95, 999999999999.5, 2.0**-10
_POW10, _SCALE, _FORM, _LEAD, _EXPONENT, _DIGITS4, _ZEROS4, _KEEP = _render_tables()
# magnitudes numpy formats; others are NaN, +-0 or formatted by _cell_text
_PLAIN = {"csv": (5e-324, np.inf), "json": (_NORMAL_MIN, _EXPONENT_MIN)}
_ZERO = {"csv": _text_words("0", "-0"), "json": _text_words("0", "0")}
# (separator, end of row) as one word each
_SEPARATOR = {fmt: np.frombuffer(f"{sep:\0<8}{end:\0<8}".encode(), _WORD).tolist()
              for fmt, (sep, end) in _LAYOUT.items()}
# an undefined cell and its separator
_TOKEN = {fmt: np.frombuffer(f"{token:\0<40}{_LAYOUT[fmt][0]:\0<8}".encode(), _WORD)
          for fmt, token in (("csv", UNDEFINED), ("json", "null"))}


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
        "undefined_outcomes": np.flatnonzero(~report.defined).tolist(),
        "tied_outcomes": np.flatnonzero(report.tie).tolist(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_text(path: Path, chunks) -> None:
    """Write `chunks` (strings) to a temp file beside `path` and rename it onto `path`; remove it on failure."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


if __name__ == "__main__":
    sys.exit(main())
