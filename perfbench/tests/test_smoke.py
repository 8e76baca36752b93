"""Keeps the benchmark harness from rotting. Timings are not checked.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_smoke_runs_and_checks_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.NAMES)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "montecarlo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_analytic_check_catches_a_wrong_entry(tmp_path):
    wl = workloads.analytic_large(seed=1, smoke=True)[0]
    pmn = oracle.response(wl.p_loss, wl.lam, wl.n_max, wl.n_max + 40)
    post = pmn * oracle.prior(wl.prior, wl.n_max)[np.newaxis, :]

    def write(matrix, optmap):
        rows = ["m," + ",".join(map(str, range(matrix.shape[1])))]
        rows += [f"{m}," + ",".join(format(v, ".12g") for v in row) for m, row in enumerate(matrix)]
        (tmp_path / "pmn.csv").write_text("\n".join(rows) + "\n")
        lines = ["m,m_opt"] + [f"{m},{k}" for m, k in enumerate(optmap)]
        (tmp_path / "optmap.csv").write_text("\n".join(lines) + "\n")

    optmap = post.argmax(axis=1)
    write(pmn, optmap)
    assert oracle.check_analytic(tmp_path, wl) is None
    bad = pmn.copy()
    bad[3, 2] += 1e-9
    write(bad, optmap)
    assert "differs from the oracle" in oracle.check_analytic(tmp_path, wl)
    write(pmn, np.where(np.arange(len(optmap)) == 5, optmap + 1, optmap))
    assert "optmap[5]" in oracle.check_analytic(tmp_path, wl)
    write(pmn[: wl.n_max + 20], optmap[: wl.n_max + 20])
    assert "of its mass" in oracle.check_analytic(tmp_path, wl)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(32)]) == (21.0, 100.0 * 22 / 32)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0)


def test_importtime_parse_keeps_only_the_countfix_subtree():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       200 |        200 |     numpy.core",
        "import time:       300 |        500 |   numpy",
        "import time:        50 |         50 |   scipy.special",
        "import time:        10 |        560 | countfix",
    ])
    assert run.parse_importtime(report) == pytest.approx(
        {"numpy": 500e-6, "scipy": 50e-6, "countfix": 10e-6, "count": 4})


def test_sampler_check_catches_a_biased_column():
    size = workloads.montecarlo(smoke=True)
    ref = oracle.response(size.p_loss, size.lam, size.n_max, size.n_max + 15)
    counts = np.round(ref * size.shots).astype(np.int64)
    counts[0] += size.shots - counts.sum(axis=0)  # exact column totals
    assert oracle.check_empirical_matrix(counts, size) is None
    biased = counts.copy()
    biased[[0, 5], 2] += [-1000, 1000]
    assert "TV" in oracle.check_empirical_matrix(biased, size)
    biased[5, 3] += 1
    assert "column sums" in oracle.check_empirical_matrix(biased, size)
