"""Run the timed passes of one workload in a process of its own.

The harness (run.py) starts this script with PYTHONPATH pointing at the
checkout's src/, so the process that does the work holds nothing but
countfix and the loop that times it; its peak RSS is the workload's. Each
pass writes the program's outputs under <work>/pass<i>/ for the harness to
check after this process has exited. In a traced run every second pass is
traced, and its spans are written out after the pass has been timed.

    python perfbench/worker.py --workload montecarlo --seed 1 --passes 5 --seconds 20 --trace 0 --work DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
CLI_TIMEOUT_S = 60


def cpu_s() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_op(name: str, call) -> dict:
    """One operation; an escaping exception fails it instead of the pass."""
    start = time.perf_counter()
    try:
        ok, error = call()
    except Exception:
        ok, error = False, traceback.format_exc()
    return {"name": name, "wall_s": time.perf_counter() - start, "ok": ok, "error": error}


def cli_figures(args):
    ops = workloads.cli_figures(args.smoke)

    def run_pass(out: Path, rec):
        results = []
        for name, argv in ops:
            tail = [*argv, "--out", str(out / name)]

            def call():
                if rec is None:
                    cmd = [sys.executable, "-m", "countfix", *tail]
                else:  # the spawn time lets the child time its interpreter start
                    cmd = [sys.executable, str(LAUNCHER), str(out / f"{name}.spans.json"),
                           rec.run, repr(time.perf_counter()), *tail]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
                ok = proc.returncode == 0 and "Traceback" not in proc.stderr
                return ok, None if ok else f"exit {proc.returncode}: {proc.stderr[-2000:]}"

            results.append(timed_op(name, call))
        return results

    return run_pass


def analytic_large(args):
    import countfix.cli as cli

    runs = workloads.analytic_large(args.seed, args.smoke)

    def run_pass(out: Path, rec):
        originals = rec.install(cli) if rec else {}
        try:
            results = []
            for r in runs:
                argv = r.argv() + ["--out", str(out / r.name)]

                def call():
                    code = cli.main(argv)
                    return code == 0, None if code == 0 else f"exit {code}"

                results.append(timed_op(r.name, call))
            return results
        finally:
            spans.Recorder.uninstall(cli, originals)

    return run_pass


def montecarlo(args):
    import numpy as np

    import countfix

    size = workloads.montecarlo(args.smoke)
    config = countfix.ShotConfig(
        params=countfix.DetectorParams(p_loss=size.p_loss, lam=size.lam),
        seed=args.seed, shots=size.shots)
    # the harness's own lookup of the public functions, wrapped when traced
    api = SimpleNamespace(empirical_matrix=countfix.empirical_matrix,
                          empirical_joint=countfix.empirical_joint,
                          pdc_prior=countfix.pdc_prior)

    def run_pass(out: Path, rec):
        originals = rec.install(api) if rec else {}
        held = {}

        def matrix():
            held["empirical_matrix"] = api.empirical_matrix(config, size.n_max)
            return True, None

        def joint():
            prior = api.pdc_prior(size.chi, n_max=size.n_max)
            held["empirical_joint"] = api.empirical_joint(config, prior)
            return True, None

        try:
            results = [timed_op("empirical_matrix", matrix), timed_op("empirical_joint", joint)]
        finally:
            spans.Recorder.uninstall(api, originals)
        # saved for the harness's checks; a few kB, so it costs the pass < 1 ms
        if "empirical_matrix" in held:
            columns = held["empirical_matrix"]
            counts = np.zeros((max(len(c.counts) for c in columns), len(columns)), dtype=np.int64)
            for c in columns:
                counts[: len(c.counts), c.n] = c.counts
            np.save(out / "empirical_matrix.npy", counts)
        if "empirical_joint" in held:
            np.save(out / "empirical_joint.npy", held["empirical_joint"])
        return results

    return run_pass


RUNNERS = {"cli-figures": cli_figures, "analytic-large": analytic_large, "montecarlo": montecarlo}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    run_pass = RUNNERS[args.workload](args)
    passes = []
    start = time.perf_counter()
    for i in range(args.passes):
        # on a machine much slower than the calibration one, stop early
        # rather than overrun the run's time budget
        if i >= workloads.MIN_PASSES and time.perf_counter() - start > workloads.OVERRUN * args.seconds:
            break
        out = args.work / f"pass{i}"
        out.mkdir(parents=True)
        rec = spans.Recorder(run=f"pass{i}") if args.trace and i % 2 else None
        cpu0, wall0 = cpu_s(), time.perf_counter()
        ops = run_pass(out, rec)
        wall, cpu = time.perf_counter() - wall0, cpu_s() - cpu0
        passes.append({"traced": rec is not None, "wall_s": wall, "cpu_s": cpu, "ops": ops})
        if rec is not None:
            rec.dump(out / "spans.json")
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    (args.work / "worker.json").write_text(json.dumps({"passes": passes, "peak_rss_mb": peak_kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
