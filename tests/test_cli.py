"""End-to-end CLI tests, run through a real subprocess or in-process `cli.main`."""

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import render_table

from countfix import __version__, cli
from countfix.detector import DetectorParams, build_matrix
from countfix.montecarlo import ShotConfig, empirical_matrix

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
    # the fixtures were written by the cell-by-cell renderer of countfix 0.2.0
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
def test_table_bytes_match_cell_by_cell_renderer(table, fmt, tmp_path):
    row_name, columns, values = table
    path = tmp_path / f"table.{fmt}"
    cli._write_table(path, fmt, row_name, columns, values)
    assert path.read_bytes() == render_table(fmt, row_name, columns, values).encode("utf-8")


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
        (["simulate", "--shots", str(2**33 + 1), "--n-max", "1"], "--shots, --n-max"),
        (["run", "--prior", "pdc:0.5", "--emit", "simulate", "--shots", str(10**39)], "--shots, --n-max"),
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


def test_shot_bound_applies_only_when_simulating(tmp_path):
    # the bound itself is allowed
    config = cli.parse_config(["simulate", "--shots", str(2**33), "--n-max", "1"])
    assert config.shot_config.shots * (config.n_max + 1) == cli.MAX_SHOTS
    res = run_cli("run", "--prior", "pdc:0.5", "--emit", "pmn", "--shots", str(10**39),
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr


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


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import countfix, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


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
