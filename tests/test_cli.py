"""End-to-end CLI tests, run through a real subprocess or in-process `cli.main`."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import render_table

from countfix import __version__, cli, detector, montecarlo
from countfix import _tables as table_format
from countfix.detector import DetectorParams, _poisson_tail_quantile, build_matrix
from countfix.montecarlo import ShotConfig, empirical_matrix
from countfix.priors import custom_prior

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "json"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "countfix", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


@dataclass(frozen=True)
class JsonFile:
    """An argv item standing for `prefix` plus the path of a file holding `doc` as JSON."""

    doc: object
    prefix: str = ""

    def write(self, path):
        path.write_text(json.dumps(self.doc), encoding="utf-8")
        return self.prefix + str(path)


def read_csv(path):
    header, *rows = path.read_text(encoding="utf-8").strip().split("\n")
    return header.split(","), [r.split(",") for r in rows]


def test_run_writes_selected_artifacts(tmp_path):
    out = tmp_path / "out"
    res = run_cli(
        "run", "--p-loss", "0.5", "--lambda", "1", "--prior", "pdc:0.7",
        "--out", str(out),
    )
    assert res.returncode == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "pmn.csv", "pn.csv", "pnm.csv", "optmap.csv", "fidelity.csv", "summary.json",
    }
    wrote = [line for line in res.stdout.splitlines() if line.startswith("wrote ")]
    assert len(wrote) == 6


def test_emit_subset(tmp_path):
    out = tmp_path / "out"
    res = run_cli(
        "run", "--prior", "uniform:0:9", "--emit", "pnm,optmap", "--out", str(out),
    )
    assert res.returncode == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"pnm.csv", "optmap.csv", "summary.json"}


def test_ideal_detector_map_is_identity(tmp_path):
    out = tmp_path / "out"
    res = run_cli(
        "run", "--prior", "pdc:0.7", "--emit", "optmap", "--out", str(out),
    )
    assert res.returncode == 0
    header, rows = read_csv(out / "optmap.csv")
    assert header == ["m", "m_opt"]
    assert all(r[1] == r[0] for r in rows)


def test_dark_dominated_map_matches_golden_bytes(tmp_path):
    out = tmp_path / "out"
    res = run_cli(
        "run", "--p-loss", "0", "--lambda", "10", "--prior", "pdc:0.7",
        "--emit", "optmap", "--out", str(out),
    )
    assert res.returncode == 0
    emitted = (out / "optmap.csv").read_bytes()
    assert emitted == (GOLDEN / "optmap_darkcounty_pdc.csv").read_bytes()
    _, rows = read_csv(out / "optmap.csv")
    assert all(r[1] == "0" for r in rows if int(r[0]) <= 20)


def test_pmn_round_trips_at_rendered_precision(tmp_path):
    out = tmp_path / "out"
    run_cli(
        "run", "--p-loss", "0.3", "--lambda", "0.7", "--n-max", "6",
        "--prior", "pdc:0.5", "--emit", "pmn", "--out", str(out),
    )
    mat = build_matrix(DetectorParams(p_loss=0.3, lam=0.7), 6)
    header, rows = read_csv(out / "pmn.csv")
    assert header == ["m"] + [str(n) for n in range(7)]
    assert len(rows) == mat.m_max + 1
    for m, row in enumerate(rows):
        assert row[0] == str(m)
        for n, cell in enumerate(row[1:]):
            assert float(cell) == float(format(mat.entries[m, n], ".12g"))


def test_pn_matches_prior(tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--prior", "uniform:0:9", "--emit", "pn", "--out", str(out))
    header, rows = read_csv(out / "pn.csv")
    assert header == ["n", "P(n)"]
    assert [r[1] for r in rows] == ["0.1"] * 10


def test_custom_prior_file(tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text("[1, 1, 2]", encoding="utf-8")
    out = tmp_path / "out"
    res = run_cli(
        "run", "--prior", f"custom:{weights}", "--n-max", "4",
        "--emit", "pn", "--out", str(out),
    )
    assert res.returncode == 0
    _, rows = read_csv(out / "pn.csv")
    assert [r[1] for r in rows] == ["0.25", "0.25", "0.5"]


def test_custom_prior_path_may_contain_colon(tmp_path):
    weights = [1, 3, 0.5, 2]
    path = tmp_path / "w:x.json"
    path.write_text(json.dumps(weights), encoding="utf-8")
    out = tmp_path / "out"
    res = run_cli("run", "--prior", f"custom:{path}", "--n-max", "4", "--emit", "pn", "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, rows = read_csv(out / "pn.csv")
    assert [r[1] for r in rows] == [format(x, ".12g") for x in custom_prior(weights).probs]


def test_undefined_outcomes_warn_and_mark(tmp_path):
    out = tmp_path / "out"
    res = run_cli(
        "run", "--prior", "uniform:0:3", "--n-max", "6",
        "--emit", "pnm,optmap,fidelity", "--out", str(out),
    )
    assert res.returncode == 0
    assert "undefined" in res.stderr
    assert "[4, 5, 6]" in res.stderr
    _, pnm_rows = read_csv(out / "pnm.csv")
    assert all(row[5] == "undefined" for row in pnm_rows)
    _, opt_rows = read_csv(out / "optmap.csv")
    assert [r[1] for r in opt_rows[4:]] == ["undefined"] * 3
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["undefined_outcomes"] == [4, 5, 6]


def test_summary_contents(tmp_path):
    out = tmp_path / "out"
    run_cli(
        "run", "--p-loss", "0.5", "--lambda", "1", "--prior", "pdc:0.7",
        "--emit", "fidelity", "--out", str(out),
    )
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["tool"] == "countfix"
    assert summary["p_loss"] == 0.5
    assert summary["lambda"] == 1.0
    assert summary["n_max"] == 19
    assert summary["prior_spec"] == "pdc:0.7"
    assert 0.0 < summary["avg_fidelity_raw"] <= summary["avg_fidelity_opt"] <= 1.0
    _, rows = read_csv(out / "fidelity.csv")
    f_raw = [float(r[2]) for r in rows]
    f_opt = [float(r[3]) for r in rows]
    assert all(o >= r for r, o in zip(f_raw, f_opt))


def test_json_format(tmp_path):
    out = tmp_path / "out"
    res = run_cli(
        "run", "--prior", "uniform:0:3", "--n-max", "5", "--format", "json",
        "--emit", "optmap,pnm", "--out", str(out),
    )
    assert res.returncode == 0
    optmap = json.loads((out / "optmap.json").read_text(encoding="utf-8"))
    values = [row[0] for row in optmap["values"]]
    assert values == [0, 1, 2, 3, None, None]
    pnm = json.loads((out / "pnm.json").read_text(encoding="utf-8"))
    assert pnm["values"][0][4] is None


@pytest.mark.parametrize("command, args", [
    ("run", ["--p-loss", "0.5", "--lambda", "0", "--prior", "uniform:0:9",
             "--emit", "pmn,pn,pnm,optmap,fidelity"]),
    ("simulate", ["--p-loss", "0.5", "--lambda", "1", "--shots", "1000", "--n-max", "5"]),
])
def test_json_output_matches_fixture_bytes(command, args, tmp_path):
    # the tables were written by the cell-by-cell renderer of countfix 0.2.0,
    # the simulated counts, one draw per column in increasing probability over
    # an uncut Poisson table, by 0.6.0, and summary.json by 0.7.0
    res = run_cli(command, *args, "--format", "json", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    expected = FIXTURES / command
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in expected.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


# NaN, +-0.0, subnormals, 1e-300, and magnitudes in [1e12, 1e16), where the
# %.12g text and repr of a float differ
_FLOAT_CELLS = (
    st.floats(allow_infinity=False)
    | st.sampled_from([float("nan"), 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 3.0])
    | st.floats(1e12, 1e16, exclude_max=True)
    | st.floats(-1e16, -1e12, exclude_min=True)
)
# the edges of the spliced range, one to a row among in-range cells
_EDGE_ROWS = np.array([
    [0.5, 999999999999.4, 3.0], [0.5, 999999999999.5, 3.0], [0.5, np.nextafter(1e12, 0), 3.0],
    [0.5, -999999999999.7, 3.0], [0.5, 2.0**-1022, 3.0], [0.5, np.nextafter(2.0**-1022, 0), 3.0],
    [0.5, -0.0, 3.0], [0.5, 0.0, 3.0],
])
_TABLE_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)
_NAMES = st.text(st.characters(codec="utf-8"), max_size=6)


@st.composite
def _tables(draw):
    if draw(st.booleans()):
        values = draw(hnp.arrays(np.float64, _TABLE_SHAPES, elements=_FLOAT_CELLS))
    else:
        values = draw(hnp.arrays(np.int64, _TABLE_SHAPES))
    width = values.shape[1]
    columns = draw(st.sampled_from(["m", "n"]) | st.lists(_NAMES, min_size=width, max_size=width))
    return draw(st.sampled_from(["m", "n"]) | _NAMES), columns, values


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables(), fmt=st.sampled_from(["csv", "json"]))
@example(table=("m", "n", np.array([[np.nan]])), fmt="json")
@example(table=("m", ["P(m)", "F_raw"], np.array([[-0.0, 1e15], [5e-324, 3.0]])), fmt="csv")
@example(table=("n", ["P(n)"], np.array([[-(2**63)], [2**63 - 1]])), fmt="json")
@example(table=("m", "n", _EDGE_ROWS), fmt="json")
@example(table=("m", "n", _EDGE_ROWS), fmt="csv")
def test_table_bytes_match_cell_by_cell_renderer(table, fmt, tmp_path):
    row_name, columns, values = table
    path = tmp_path / f"table.{fmt}"
    table_format._write_table(path, fmt, row_name, columns, values)
    assert path.read_bytes() == render_table(fmt, row_name, columns, values).encode("utf-8")


# cells whose %.12g text is their JSON text, and cells whose text is not
_SPLICED_MAX = np.nextafter(999999999999.5, 0)
_SPLICED_CELLS = (
    st.floats(2.0**-1022, _SPLICED_MAX) | st.floats(-_SPLICED_MAX, -(2.0**-1022))
    | st.sampled_from([0.0, float("nan")])
)
_RECODED_CELLS = (
    st.floats(5e-324, np.nextafter(2.0**-1022, 0)) | st.floats(-np.nextafter(2.0**-1022, 0), -5e-324)
    | st.floats(999999999999.5, allow_infinity=False)
    | st.floats(max_value=-999999999999.5, allow_infinity=False)
    | st.just(-0.0)
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_json_rows_splice_or_recode_like_the_cell_by_cell_renderer(data, tmp_path):
    # wide rows of spliced cells; some rows hold one recoded cell at a random column
    shape = (data.draw(st.integers(1, 8)), data.draw(st.integers(1, 50)))
    values = data.draw(hnp.arrays(np.float64, shape, elements=_SPLICED_CELLS))
    for i in range(shape[0]):
        if data.draw(st.booleans()):
            values[i, data.draw(st.integers(0, shape[1] - 1))] = data.draw(_RECODED_CELLS)
    path = tmp_path / "table.json"
    table_format._write_table(path, "json", "m", "n", values)
    assert path.read_bytes() == render_table("json", "m", "n", values).encode("utf-8")


def test_json_rows_skip_the_codec_unless_a_cell_needs_it(tmp_path, monkeypatch):
    loads = json.loads
    calls = []

    def counted(text, *args, **kwargs):
        calls.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(table_format.json, "loads", counted)
    # the lossy_uniform run of the analytic-large benchmark holds no subnormal
    assert cli.main(["run", "--n-max", "100", "--p-loss", "0.99", "--lambda", "100", "--prior",
                     "uniform:0:100", "--format", "json", "--out", str(tmp_path)]) == 0
    assert calls == []
    values = build_matrix(DetectorParams(p_loss=0.99, lam=100.0), 100).entries.copy()
    values[7, 3] = 5e-324
    table_format._write_table(tmp_path / "table.json", "json", "m", "n", values)
    assert len(calls) == 1


def _sweep_cells():
    """Float cells that probe the numpy %.12g path: random doubles, ties, powers of ten, edges."""
    rng = np.random.default_rng(19)
    patterns = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    patterns = patterns[~np.isinf(patterns)]  # NaN payloads stay, of either sign
    ties = [math.comb(n, m) / 2**n for n in range(60) for m in range(n + 1)]
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    edges = [5e-324, 2.0**-1022, 0.0, -0.0, 1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
             99999999999.5, 999999999999.5, np.finfo(float).max, np.nan]
    structured = np.concatenate([ties, powers, edges])
    return patterns, np.concatenate([structured, -structured])


def _as_table(cells, width):
    return np.append(cells, np.full(-len(cells) % width, 0.5)).reshape(-1, width)


def test_float_tables_match_the_cell_by_cell_renderer_on_a_sweep(tmp_path):
    patterns, structured = _sweep_cells()
    # CSV rows are wider than one numpy block; the JSON table, whose cell-by-cell
    # reference encodes in Python, holds a tenth of the random patterns
    for fmt, cells, width in (("csv", np.concatenate([structured, patterns]), 5000),
                              ("json", np.concatenate([structured, patterns[:10**5]]), 1000)):
        values = _as_table(cells, width)
        path = tmp_path / f"sweep.{fmt}"
        table_format._write_table(path, fmt, "m", "n", values)
        assert path.read_bytes() == render_table(fmt, "m", "n", values).encode("utf-8"), fmt


@pytest.mark.parametrize("shift", [1, -1])
def test_cells_print_right_when_the_exponent_estimate_is_one_off(monkeypatch, shift):
    # numpy's log10 puts y = a * 10**(11 - e) near _Y_LO or _Y_HI too rarely for
    # a test to reach; a log10 shifted a whole unit sends every cell through the
    # exponent correction. After a +1 shift 9.99999999997e k and 9.999999999994e k
    # land just below _Y_LO, where moving _Y_LO to 99999999999.5 misprints them.
    # Neither rounds up into the next decade: a cell that does, such as
    # 9.999999999996e-05, needs a second correction under a -1 shift, and a real
    # log10 is never a whole unit low, so the renderer makes only one.
    cells = np.array([float(f"{m}e{k}") for k in range(-30, 30) for m in ("9.99999999997", "9.999999999994")])
    log10 = np.log10
    monkeypatch.setattr(table_format.np, "log10", lambda a: log10(a) + shift)
    text = table_format._cell_words(cells, "csv").tobytes().translate(None, b"\0").decode()
    assert text.split(",")[:-1] == [format(x, ".12g") for x in cells]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
                         elements=_FLOAT_CELLS),
       chunk=st.integers(1, 30), fmt=st.sampled_from(["csv", "json"]), data=st.data())
def test_blocks_and_undefined_columns_match_the_cell_by_cell_renderer(values, chunk, fmt, data, tmp_path,
                                                                      monkeypatch):
    # small blocks split rows, or hold several; a column `defined` marks False prints as NaN
    monkeypatch.setattr(table_format, "_CHUNK", chunk)
    defined = data.draw(hnp.arrays(bool, values.shape[1]))
    path = tmp_path / f"table.{fmt}"
    table_format._write_table(path, fmt, "n", "m", values, defined)
    expected = render_table(fmt, "n", "m", np.where(defined, values, np.nan))
    assert path.read_bytes() == expected.encode("utf-8")


# the runs of the analytic-large benchmark at seed 5
_ANALYTIC_LARGE = [
    ["--n-max", "300", "--p-loss", "0.5", "--lambda", "5.0", "--prior", "pdc:0.673741", "--format", "csv"],
    ["--n-max", "100", "--p-loss", "0.99", "--lambda", "100.0", "--prior", "uniform:0:100", "--format", "json"],
    ["--n-max", "60", "--p-loss", "0.99", "--lambda", "800.0", "--prior", "pdc:0.745072", "--format", "csv"],
]
# n_max 1000 at lambda 0: 619,619 of the 1,002,001 P(n|m) cells are undefined
_MOSTLY_UNDEFINED = ["--n-max", "1000", "--lambda", "0", "--p-loss", "0.5", "--prior", "pdc:0.5"]


def test_few_cells_are_formatted_one_at_a_time(tmp_path, monkeypatch):
    formatted, blocks = [], []
    cell_text, cell_words = table_format._cell_text, table_format._cell_words
    monkeypatch.setattr(table_format, "_cell_text", lambda x, fmt: formatted.append(x) or cell_text(x, fmt))
    monkeypatch.setattr(table_format, "_cell_words", lambda x, fmt: blocks.append(x.size) or cell_words(x, fmt))
    cells = 0
    for args in _ANALYTIC_LARGE:
        config = cli.parse_config(["run", *args, "--out", str(tmp_path)])
        result = cli._compute(config)
        for kind in config.outputs:
            values = cli._ARTIFACTS[kind][4](config, result)
            cells += (values[0] if isinstance(values, tuple) else values).size
        cli._emit(config, result)
    assert 0 < len(formatted) <= 0.01 * cells
    for fmt in ("csv", "json"):
        formatted.clear()
        blocks.clear()
        config = cli.parse_config(["run", *_MOSTLY_UNDEFINED, "--emit", "pnm", "--format", fmt,
                                   "--out", str(tmp_path)])
        result = cli._compute(config)
        cli._emit(config, result)
        # undefined cells skip the arithmetic and never reach Python one at a time
        assert sum(blocks) == result.post.defined.sum() * result.post.entries.shape[0]
        assert len(formatted) <= 0.01 * sum(blocks)
        assert not np.isnan(formatted).any()


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"p_loss": 0.25, "prior": "uniform:0:4", "n_max": 4}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    res = run_cli(
        "run", "--config", str(cfg), "--p-loss", "0.5",
        "--emit", "optmap", "--out", str(out),
    )
    assert res.returncode == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["p_loss"] == 0.5
    assert summary["prior_spec"] == "uniform:0:4"


def test_simulate_emits_counts(tmp_path):
    out = tmp_path / "out"
    res = run_cli(
        "simulate", "--p-loss", "0.5", "--lambda", "1", "--seed", "7",
        "--shots", "20000", "--n-max", "3", "--out", str(out),
    )
    assert res.returncode == 0
    assert [p.name for p in out.iterdir()] == ["empirical_pmn.csv"]
    header, rows = read_csv(out / "empirical_pmn.csv")
    assert header == ["m", "0", "1", "2", "3"]
    counts = np.array([[int(c) for c in row[1:]] for row in rows])
    np.testing.assert_array_equal(counts.sum(axis=0), [20000] * 4)
    # the subprocess and an in-process run share the seeded streams bitwise
    params = DetectorParams(p_loss=0.5, lam=1.0)
    columns = empirical_matrix(ShotConfig(params=params, seed=7, shots=20000), 3)
    for col in columns:
        np.testing.assert_array_equal(counts[: len(col.counts), col.n], col.counts)
        assert np.all(counts[len(col.counts):, col.n] == 0)


def test_simulate_builds_no_response_matrix(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate evaluated P(m|n)")

    monkeypatch.setattr(cli, "build_matrix", refuse)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--p-loss", "0.5", "--seed", "0", "--shots", "200000",
                     "--n-max", "9", "--out", str(out)])
    assert code == 0
    expected = ROOT / "results" / "simulate_lossy" / "empirical_pmn.csv"
    assert (out / "empirical_pmn.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_simulate_bytes_do_not_depend_on_thread_count(tmp_path, workers):
    # simulate keeps no state between runs, so runs on several threads at
    # once each write the bytes of a lone run
    expected = (ROOT / "results" / "simulate_lossy" / "empirical_pmn.csv").read_bytes()
    codes = [None] * workers
    barrier = threading.Barrier(workers)

    def run(i):
        barrier.wait(timeout=30)
        codes[i] = cli.main(["simulate", "--p-loss", "0.5", "--seed", "0", "--shots", "200000",
                             "--n-max", "9", "--out", str(tmp_path / f"out{i}")])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert codes == [0] * workers
    for i in range(workers):
        assert (tmp_path / f"out{i}" / "empirical_pmn.csv").read_bytes() == expected


def test_run_can_emit_simulation_alongside_analytics(tmp_path):
    out = tmp_path / "out"
    res = run_cli(
        "run", "--p-loss", "0.3", "--lambda", "0.5", "--prior", "pdc:0.6",
        "--emit", "optmap,simulate", "--shots", "5000", "--seed", "3",
        "--n-max", "5", "--out", str(out),
    )
    assert res.returncode == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"optmap.csv", "empirical_pmn.csv", "summary.json"}
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["seed"] == 3
    assert summary["shots"] == 5000


def test_repeat_runs_are_byte_identical(tmp_path):
    args = ["run", "--p-loss", "0.4", "--lambda", "0.9", "--prior", "pdc:0.6"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out_a)).returncode == 0
    assert run_cli(*args, "--out", str(out_b)).returncode == 0
    for file_a in sorted(out_a.iterdir()):
        assert file_a.read_bytes() == (out_b / file_a.name).read_bytes()


def test_concurrent_simulations_are_byte_identical(tmp_path):
    args = [
        sys.executable, "-m", "countfix", "simulate", "--p-loss", "0.5",
        "--lambda", "1", "--seed", "5", "--shots", "50000",
    ]
    procs = [
        subprocess.Popen(
            args + ["--out", str(tmp_path / name)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for name in ("a", "b", "c")
    ]
    assert all(p.wait() == 0 for p in procs)
    reference = (tmp_path / "a" / "empirical_pmn.csv").read_bytes()
    assert (tmp_path / "b" / "empirical_pmn.csv").read_bytes() == reference
    assert (tmp_path / "c" / "empirical_pmn.csv").read_bytes() == reference


@pytest.mark.parametrize(
    "args, fragment",
    [
        (["run", "--p-loss", "1.5", "--prior", "pdc:0.5"], "--p-loss"),
        (["run", "--lambda", "-1", "--prior", "pdc:0.5"], "--lambda"),
        (["run", "--prior", "pdc:1.2"], "chi"),
        (["run", "--prior", "nonsense"], "--prior"),
        (["run", "--prior", "custom:/does/not/exist.json"], "not found"),
        (["run"], "--prior"),
        (["run", "--prior", "pdc:0.5", "--emit", "bogus"], "--emit"),
        (["run", "--prior", "pdc:0.5", "--shots", "0"], "--shots"),
        (["run", "--prior", "pdc:0.5", "--seed", "-3"], "--seed"),
        (["simulate", "--shots", "-5"], "--shots"),
        (["run", "--lambda", "inf", "--prior", "pdc:0.5"], "--lambda"),
        (["run", "--config", JsonFile({"lambda": "inf", "prior": "pdc:0.5"})], "--lambda"),
        (["run", "--config", JsonFile({"out": None, "prior": "pdc:0.5"})], "--out"),
        (["run", "--config", JsonFile({"out": 5, "prior": "pdc:0.5"})], "--out"),
        (["run", "--config", JsonFile({"n_max": True, "prior": "pdc:0.5"})], "--n-max"),
        (["run", "--prior", JsonFile([True, 1], prefix="custom:")], "--prior"),
        (["run", "--n-max", "100000", "--prior", "pdc:0.5"], "--n-max"),
        (["run", "--n-max", "-3000", "--prior", "pdc:0.5"], "--n-max: n_max must be >= 0"),
        (["run", "--lambda", "1e300", "--prior", "pdc:0.5"], "--lambda"),
        (["simulate", "--shots", str(2**63)], "--seed, --shots"),
        (["run", "--prior", "pdc:0.5", "--emit", "pmn", "--shots", str(10**39)], "--seed, --shots"),
        (["simulate", "--n-max", "-1"], "--n-max: n_max must be >= 0"),
        (["run", "--prior", "uniform:0:30"], "--prior, --n-max"),
        (["run", "--n-max", "1400", "--lambda", "1400", "--prior", "pdc:0.5"],
         "--n-max, --lambda, --tail-eps"),
        # P(m|n) fits at 33,065,032 bytes, the 1001 x 4919 int64 histogram does not
        (["simulate", "--n-max", "1000", "--lambda", "3200", "--tail-eps", "0.9", "--shots", "1000"],
         "--n-max, --lambda:"),
    ],
)
def test_usage_errors_exit_2(args, fragment, tmp_path):
    # JsonFile items, such as config files, are written out before the run
    args = [
        a.write(tmp_path / f"arg{i}.json") if isinstance(a, JsonFile) else a
        for i, a in enumerate(args)
    ]
    res = run_cli(*args, "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert fragment in res.stderr
    assert not (tmp_path / "out").exists()  # a refused run creates nothing


def test_int64_shot_bound_holds_whether_or_not_a_run_simulates(tmp_path):
    # a histogram's cost is bounded by its support, not its shots: int64 is the only shot bound
    most = 2**63 - 1
    code = cli.main(["simulate", "--n-max", "19", "--shots", str(most), "--out", str(tmp_path / "sim")])
    assert code == 0
    header, rows = read_csv(tmp_path / "sim" / "empirical_pmn.csv")
    assert len(header) == 21
    assert all(sum(int(row[i]) for row in rows) == most for i in range(1, 21))
    # a run that does not simulate still holds its shots in a ShotConfig
    code = cli.main(["run", "--prior", "pdc:0.5", "--emit", "pmn", "--shots", str(10**39),
                     "--out", str(tmp_path / "run")])
    assert code == 2
    assert not (tmp_path / "run").exists()


def _negative_zeros(doc):
    """The float -0.0 values anywhere in a JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [z for item in doc for z in _negative_zeros(item)]
    return [doc] if isinstance(doc, float) and doc == 0.0 and math.copysign(1.0, doc) < 0 else []


_ZEROS = st.sampled_from([-0.0, 0.0])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    p_loss=_ZEROS | st.floats(0.01, 1.0),
    lam=_ZEROS | st.floats(0.01, 5.0),
    chi=_ZEROS | st.floats(0.01, 0.9),
    weights=st.lists(_ZEROS | st.floats(0.01, 2.0), min_size=1, max_size=4).filter(lambda w: max(w) > 0),
    custom=st.booleans(),
    fmt=st.sampled_from(["csv", "json"]),
)
@example(p_loss=-0.0, lam=-0.0, chi=-0.0, weights=[1.0], custom=False, fmt="csv")
@example(p_loss=0.5, lam=1.0, chi=0.5, weights=[-0.0, 1.0, 1.0], custom=True, fmt="csv")
def test_no_emitted_file_holds_a_negative_zero(p_loss, lam, chi, weights, custom, fmt, tmp_path, capsys):
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(json.dumps(weights), encoding="utf-8")
    prior = f"custom:{weights_path}" if custom else f"pdc:{chi!r}"
    out = tmp_path / "out"
    code = cli.main(["run", "--p-loss", repr(p_loss), "--lambda", repr(lam), "--prior", prior,
                     "--n-max", "3", "--emit", "pmn,pn,pnm,optmap,fidelity,simulate", "--shots", "100",
                     "--format", fmt, "--out", str(out)])
    assert code == 0
    assert "chi=-0" not in capsys.readouterr().out
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        assert "chi=-0" not in text, path.name
        if path.suffix == ".csv":
            assert "-0" not in [cell for line in text.splitlines() for cell in line.split(",")], path.name
        else:
            assert _negative_zeros(json.loads(text)) == [], path.name


@settings(max_examples=100, deadline=None)
@given(
    n_max=st.integers(0, 2100),
    lam=st.floats(0.0, 3000.0) | st.floats(0.0, 5e6),
    tail_eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(1400, 1400.0, 1e-10)  # lambda's 1400 rows stand in for the tail quantile's 1645
def test_admitted_runs_fit_their_matrix_in_the_size_limit(n_max, lam, tail_eps):
    argv = ["run", "--n-max", str(n_max), "--lambda", repr(lam), "--tail-eps", repr(tail_eps),
            "--prior", "pdc:0.5"]
    try:
        cli.parse_config(argv)
    except cli.UsageError:
        return
    m_max = detector._m_max(DetectorParams(p_loss=0.0, lam=lam, tail_epsilon=tail_eps), n_max)
    assert (m_max + 1) * (n_max + 1) * 8 <= cli.MAX_ARRAY_BYTES


@settings(max_examples=100, deadline=None)
@given(
    n_max=st.integers(0, 2100),
    lam=st.floats(0.0, 3000.0) | st.floats(0.0, 5e6),
    tail_eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    command=st.sampled_from([["simulate"], ["run", "--prior", "pdc:0.5", "--emit", "pmn,simulate"]]),
)
@example(1000, 3200.0, 0.9, ["simulate"])  # the tail quantile, 3128, is shallower than the sampler's table
@example(999, 2500.0, 1e-10, ["simulate"])  # the widest case CI runs, 33,112,000 bytes
def test_admitted_simulations_fit_their_histogram_in_the_size_limit(n_max, lam, tail_eps, command):
    argv = [*command, "--n-max", str(n_max), "--lambda", repr(lam), "--tail-eps", repr(tail_eps)]
    try:
        cli.parse_config(argv)
    except cli.UsageError:
        assert (n_max, lam, tail_eps) != (999, 2500.0, 1e-10), "CI's widest case is refused"
        return
    # cli._counts stacks columns 0..n_max, the last n_max + len(table) deep, as int64
    depth = n_max + len(montecarlo._poisson_pmf(lam))
    assert (n_max + 1) * depth * 8 <= cli.MAX_ARRAY_BYTES


def test_huge_lambda_is_refused_before_the_tail_search(monkeypatch):
    def search(lam, epsilon):
        raise AssertionError(f"tail quantile searched for lambda {lam}")

    monkeypatch.setattr(detector, "_poisson_tail_quantile", search)
    with pytest.raises(cli.UsageError, match="--n-max, --lambda:"):
        cli.parse_config(["run", "--lambda", "1e300", "--prior", "pdc:0.5"])


def test_lambda_above_the_tail_quantile_does_not_refuse_a_run_that_fits():
    # --tail-eps 0.9 puts q below lambda: P(m|n) is 1001 x 4129, 33,065,032 bytes
    assert _poisson_tail_quantile(3200.0, 0.9) == 3128
    config = cli.parse_config(["run", "--n-max", "1000", "--lambda", "3200", "--tail-eps", "0.9",
                               "--prior", "pdc:0.5"])
    assert config.n_max == 1000


def test_a_run_builds_its_poisson_table_once(tmp_path):
    # parse_config's size checks and build_matrix read one held table
    detector._poisson_table.cache_clear()
    code = cli.main(["run", "--n-max", "5", "--lambda", "2500", "--prior", "pdc:0.7",
                     "--emit", "pmn", "--out", str(tmp_path)])
    assert code == 0
    assert detector._poisson_table.cache_info().misses == 1


def test_unknown_flag_exits_2():
    res = run_cli("run", "--prior", "pdc:0.5", "--frobnicate")
    assert res.returncode == 2


def test_unwritable_output_exits_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    res = run_cli("run", "--prior", "pdc:0.5", "--out", str(blocker))
    assert res.returncode == 3
    assert "output directory" in res.stderr


def test_failed_rewrite_keeps_the_old_artifact(tmp_path):
    resource = pytest.importorskip("resource")
    out = tmp_path / "out"
    args = ["run", "--p-loss", "0.3", "--lambda", "0.7", "--prior", "pdc:0.5",
            "--emit", "pmn", "--out", str(out)]
    assert run_cli(*args).returncode == 0
    good = (out / "pmn.csv").read_bytes()
    # the rerun may write at most half of pmn.csv to any file, so it fails mid-file
    limit = len(good) // 2
    res = subprocess.run(
        [sys.executable, "-m", "countfix", *args],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )
    assert res.returncode == 3
    assert "write failed" in res.stderr
    assert (out / "pmn.csv").read_bytes() == good
    assert sorted(p.name for p in out.iterdir()) == ["pmn.csv", "summary.json"]


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_streams_its_rows(tmp_path, fmt, lam):
    # rows are written as they are formatted, never joined into one text
    values = build_matrix(DetectorParams(p_loss=0.5, lam=lam), 500).entries
    path = tmp_path / f"pmn.{fmt}"
    tracemalloc.start()
    try:
        table_format._write_table(path, fmt, "m", "n", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * path.stat().st_size


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pnm_table_holds_no_copy_of_the_posterior(tmp_path, fmt):
    # undefined columns are written as such block by block, not masked in a copy
    config = cli.parse_config(["run", *_MOSTLY_UNDEFINED, "--emit", "pnm", "--format", fmt,
                               "--out", str(tmp_path)])
    result = cli._compute(config)
    tracemalloc.start()
    try:
        cli._emit(config, result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * result.post.entries.nbytes


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_table_stream_keeps_the_old_file(tmp_path, fmt):
    path = tmp_path / f"table.{fmt}"
    table_format._write_table(path, fmt, "m", ["a", "b"], np.ones((4, 2)))
    good = path.read_bytes()
    values = np.ones((4, 2), dtype=object)
    values[2, 1] = "not a number"  # rows 0 and 1 are written before %d refuses it
    with pytest.raises(TypeError):
        table_format._write_table(path, fmt, "m", ["a", "b"], values)
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_largest_run_peaks_within_two_and_a_half_matrices_of_a_default_run(tmp_path):
    if sys.platform != "linux":
        pytest.skip("ru_maxrss is in KiB on Linux, in bytes on macOS")
    # each run is the only child of a fresh interpreter, which reports its
    # children's peak RSS, so no other test's subprocess counts
    def maxrss(*args):
        code = ("import resource, subprocess, sys; "
                f"subprocess.run([sys.executable, '-m', 'countfix', *{list(args)!r}], check=True, "
                "stdout=subprocess.DEVNULL); "
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        return int(run_python(code)) * 1024  # ru_maxrss is in KiB on Linux

    baseline = maxrss("run", "--prior", "pdc:0.7", "--out", str(tmp_path / "base"))
    largest = maxrss("run", "--n-max", "1000", "--lambda", "0", "--prior", "pdc:0.5",
                     "--emit", "pnm,optmap", "--out", str(tmp_path / "large"))
    assert largest <= baseline + 2.5 * 1001 * 1001 * 8


def run_python(code, openblas_threads=None):
    """Run `code` in a fresh interpreter that finds countfix in src/.

    OPENBLAS_NUM_THREADS is set to `openblas_threads` in the child, or removed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_import_loads_no_scipy():
    code = "import countfix, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_python(code) == "[]"


@pytest.mark.parametrize(
    "imports, preset, expected",
    [
        ("import countfix", None, "1"),
        ("import countfix", "3", "3"),  # the user's value wins
        ("import numpy; import countfix", None, "None"),  # too late for OpenBLAS to read it
    ],
)
def test_import_pins_openblas_to_one_thread_before_numpy_loads(imports, preset, expected):
    code = f"{imports}; import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_python(code, openblas_threads=preset) == expected


def test_import_loads_no_executor_or_logging():
    # concurrent.futures would pull in logging and lengthen every cold start
    code = (
        "import countfix, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))"
    )
    assert run_python(code) == "[]"


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "countfix" in res.stdout


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["version"] == __version__


def test_reproduce_figures_rewrites_results_byte_for_byte(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "RESULTS", tmp_path)
    script.main_script()
    committed = sorted(p.relative_to(ROOT / "results") for p in (ROOT / "results").rglob("*"))
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == committed
    assert len([p for p in committed if len(p.parts) == 1]) == 16
    for rel in committed:
        if (tmp_path / rel).is_file():
            assert (tmp_path / rel).read_bytes() == (ROOT / "results" / rel).read_bytes(), rel


# The argv fuzz test starts from a small valid run and overrides some flags.
# Each override is usually well-formed, keeping accepted runs small (n_max <=
# 30, shots <= 1000, lambda <= 20); otherwise it is malformed or out of range,
# down to sizes that must be refused before any work.
_BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "1e300", "10" * 20, "abc", "", "0x10", "1.5"]
_BAD_SHOTS = ["0", "-1", "abc", "1.5", "nan", str(10**39), str(2**70)]


def _flag_value(good, *bad, numbers=_BAD_NUMBERS):
    return st.one_of(good, good, good, st.sampled_from(numbers + list(bad)))


_FUZZ_FLAGS = {
    "--p-loss": _flag_value(st.floats(0, 1).map(repr), "1.01"),
    "--lambda": _flag_value(st.floats(0, 20).map(repr)),
    "--tail-eps": _flag_value(st.sampled_from(["1e-10", "0.5", "1e-300"]), "0", "1"),
    "--n-max": _flag_value(st.integers(0, 30).map(str), "100000", "-3", "-3000"),
    "--seed": _flag_value(st.integers(0, 2**64 - 1).map(str), str(2**64)),
    "--shots": _flag_value(st.integers(1, 1000).map(str), numbers=_BAD_SHOTS),
    "--format": _flag_value(st.sampled_from(["csv", "json"]), "xml"),
    "--emit": _flag_value(st.sampled_from(["pmn", "pn,pnm,optmap", "fidelity,simulate"]), ",", "bogus"),
    "--prior": _flag_value(
        st.sampled_from(["pdc:0.5", "pdc:0", "uniform:0:9", "uniform:2:30"]),
        "pdc:1.2", "pdc:", "uniform:5:2", "uniform:-1:3", "uniform:0:40", "uniform:0:" + "9" * 30,
        "custom:/does/not/exist.json", "bogus",
    ),
}
_BAD_JSON = [0, 5, -1, 1.5, float("nan"), float("inf"), "abc", "inf", "1e300", [], [1], {}, {"a": 1}]
_JSON_VALUES = st.none() | st.booleans() | st.sampled_from(_BAD_JSON + [10**39, 2**70])
_CONFIG_VALUES = {
    "p_loss": st.floats(0, 1),
    "lambda": st.floats(0, 20),
    "tail_eps": st.sampled_from([1e-10, 0.5, "1e-10"]),
    "n_max": st.integers(0, 30),
    "prior": st.sampled_from(["pdc:0.7", "uniform:0:9"]),
    "emit": st.sampled_from(["pmn,optmap", "simulate"]),
    "format": st.sampled_from(["csv", "json"]),
    "out": st.just("ignored"),
    "seed": st.integers(0, 2**64 - 1),
    "shots": st.integers(1, 1000),
}
_WEIGHTS = st.lists(st.floats(0, 10) | _JSON_VALUES, max_size=4) | _JSON_VALUES


@st.composite
def _argv(draw, tmp_dir):
    command = draw(st.sampled_from(["run", "simulate"]))
    argv = [command, "--n-max", "8", "--shots", "200"]
    if command == "run":
        argv += ["--prior", "pdc:0.5"]
    for flag in draw(st.lists(st.sampled_from(sorted(_FUZZ_FLAGS)), unique=True, max_size=4)):
        if command == "run" or flag not in ("--prior", "--emit"):
            argv += [flag, draw(_FUZZ_FLAGS[flag])]
    if command == "run" and draw(st.integers(0, 4)) == 0:
        weights = tmp_dir / "weights.json"
        weights.write_text(json.dumps(draw(_WEIGHTS)), encoding="utf-8")
        argv += ["--prior", f"custom:{weights}"]
    if draw(st.integers(0, 2)) == 0:
        keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES) + ["bogus"]), unique=True, max_size=3))
        doc = {}
        for key in keys:
            doc[key] = draw(_CONFIG_VALUES.get(key, _JSON_VALUES) | _JSON_VALUES)
        config = tmp_dir / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--config", str(config)]
    return argv


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_exits_0_2_or_3(data, tmp_path, capsys):
    argv = data.draw(_argv(tmp_path))
    code = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert code in (0, 2, 3), argv
    err = capsys.readouterr().err
    if code == 2 and "usage:" not in err:
        assert "--" in err, err
