"""The text format of countfix's tables, and writes that keep files whole.

A table is rectangular data with a leading row-index column, as CSV or as a
JSON document of `row_index`, `columns` and `values`. A float cell is the
`%.12g` text of its value; NaN, and every cell of a column the caller marks
undefined, is `undefined` (JSON `null`). Integer arrays render exactly. A
JSON cell is the JSON reading of that text, so `3` and not `3.0`: for an
integer, for +0 and for 2**-1022 <= |x| < 999999999999.5 the text itself,
otherwise the shortest `repr` of the double the text reads as, or `0` for
-0.0 (5e-324 gives `5e-324`, CSV `4.94065645841e-324`; 999999999999.7 gives
`1000000000000.0`, CSV `1e+12`). Each file is written as bytes to a temp
file beside its path and renamed onto it: whole, or not at all.

numpy formats float tables a block of cells at a time; Python formats only
the cells numpy cannot round safely. Integer tables keep a `%d` template
per row.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

UNDEFINED = "undefined"
_NULL = {"csv": UNDEFINED, "json": "null"}  # the text of an undefined cell

_NORMAL_MIN = 2.0**-1022
# %.12g writes 999999999999.5 and every larger magnitude in exponent form, 1e+12 and up
_EXPONENT_MIN = 999999999999.5
_CHUNK = 4096  # cells per block


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_table(path, fmt, row_name, columns, values, defined=None):
    """Stream `values` to `path`; `columns` is the list of names or an index prefix such as "n"."""
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
    _write_text(path, itertools.chain([head.encode()], body, [tail.encode()]))


def _write_text(path: Path, chunks) -> None:
    """Write `chunks` (bytes) to a temp file beside `path` and rename it onto `path`; remove it on failure."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# the text between cells and at the end of a row
_LAYOUT = {"csv": (",", "\n"), "json": (",\n      ", "\n    ]")}


def _row_start(fmt: str, i: int) -> str:
    if fmt == "csv":
        return f"{i},"
    return ",\n    [\n      " if i else "    [\n      "


def _template_rows(values, fmt):
    """The rows of an integer table, formatted by one `%d` template each."""
    sep, end = _LAYOUT[fmt]
    template = ",".join(["%d"] * values.shape[1])
    for i, row in enumerate(values):
        text = (template % tuple(row.tolist())).replace(",", sep)
        yield (_row_start(fmt, i) + text + end).encode()


def _float_rows(values, defined, fmt):
    """The rows of a float table as bytes, _CHUNK cells at a time.

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
            yield words.tobytes().translate(None, b"\0")


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
          for fmt, token in _NULL.items()}
