#!/usr/bin/env python3
"""countfix benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload analytic-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload in turn
    python3 perfbench/run.py --smoke

Run it from anywhere inside a checkout that has src/countfix and results/.
With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 a separate, traced run prints the per-layer metrics (every
second pass is traced, the others give the untraced baseline for
trace.overhead_s). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --smoke runs every
workload once at a tiny size, traced and untraced, and only checks its
outputs; it exits 1 if any check fails.

The timed work runs in worker.py, a process of its own, so that its CPU
time and peak RSS are the workload's; this process only sets up, checks
and reports. Scratch files go to .perfbench/ in the checkout and are
removed at the end, except the spans of the last traced run of each
workload, kept as .perfbench/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable
# Fresh `import countfix` processes per run, half before and half after the
# timed passes so that they sample the machine across the run; setup_s is
# their median.
SETUP_REPEATS = 8
IMPORT_REPEATS = 3  # -X importtime processes per traced run
RUN_LIMIT_S = 170  # a run must end within 180 s


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def wall_of(cmd: list[str], env: dict) -> float:
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise HarnessError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall


def setup_times(env: dict, repeats: int) -> list[float]:
    """Wall times of fresh `python -c "import countfix"` processes."""
    return [wall_of([PY, "-c", "import countfix"], env) for _ in range(repeats)]


def parse_importtime(text: str) -> dict:
    """Self time per top-level package, and the module count, of the
    `import countfix` subtree of a `python -X importtime` report."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, field = line[len("import time:"):].split("|")
        name = field[1:]
        rows.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(self_us)))
    top = max(i for i, (level, name, _) in enumerate(rows) if level == 0 and name == "countfix")
    first = top
    while first > 0 and rows[first - 1][0] > 0:
        first -= 1
    subtree = rows[first: top + 1]
    by_package = defaultdict(float)
    for _, name, self_us in subtree:
        by_package[name.split(".")[0]] += self_us / 1e6
    return {"numpy": by_package["numpy"], "scipy": by_package["scipy"],
            "countfix": by_package["countfix"], "count": len(subtree)}


def import_layers(env: dict) -> dict:
    interpreter = statistics.median(wall_of([PY, "-c", "pass"], env) for _ in range(5))
    reports = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([PY, "-X", "importtime", "-c", "import countfix"], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise HarnessError(f"python -X importtime exited {proc.returncode}: {proc.stderr[-2000:]}")
        reports.append(parse_importtime(proc.stderr))
    counts = {r["count"] for r in reports}
    if len(counts) != 1:
        raise HarnessError(f"import countfix loaded {sorted(counts)} modules in different runs")
    return {
        "import.interpreter_s": interpreter,
        "import.numpy_s": statistics.median(r["numpy"] for r in reports),
        "import.scipy_s": statistics.median(r["scipy"] for r in reports),
        "import.countfix_self_s": statistics.median(r["countfix"] for r in reports),
        "import.module_count": counts.pop(),
    }


def run_worker(args, work: Path, env: dict, passes: int, deadline: float) -> dict:
    cmd = [PY, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--passes", str(passes), "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    with open(work / "worker.out", "w") as out, open(work / "worker.err", "w") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{args.workload} did not finish within {RUN_LIMIT_S} s") from None
        finally:
            if proc.poll() is None:  # also reached on KeyboardInterrupt
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code != 0:
        raise HarnessError(f"worker exited {code}: {(work / 'worker.err').read_text()[-2000:]}")
    return json.loads((work / "worker.json").read_text())


def guarded(check) -> str | None:
    """A check that cannot even read the output fails the operation."""
    try:
        return check()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


def check_outputs(args, work: Path, result: dict) -> tuple[list[list[str | None]], float]:
    """Failure reason (or None) for every operation of every pass, and the
    worst simulated-column TV of the first montecarlo pass (0 elsewhere)."""
    passes = result["passes"]
    reasons = [[None if op["ok"] else op["error"] or "failed" for op in p["ops"]] for p in passes]
    worst_tv = 0.0
    first = work / "pass0"
    if args.workload == "cli-figures":
        for i, p in enumerate(passes):
            for j, op in enumerate(p["ops"]):
                reasons[i][j] = reasons[i][j] or guarded(
                    lambda: oracle.same_tree(work / f"pass{i}" / op["name"], ROOT / "results" / op["name"]))
    elif args.workload == "analytic-large":
        for j, run in enumerate(workloads.analytic_large(args.seed, args.smoke)):
            verdict = reasons[0][j] or guarded(lambda: oracle.check_analytic(first / run.name, run))
            reasons[0][j] = verdict
            for i in range(1, len(passes)):
                reasons[i][j] = reasons[i][j] or verdict or guarded(
                    lambda: oracle.same_tree(work / f"pass{i}" / run.name, first / run.name))
    else:
        size = workloads.montecarlo(args.smoke)
        checks = {"empirical_matrix": oracle.check_empirical_matrix,
                  "empirical_joint": oracle.check_empirical_joint}
        for i in range(len(passes)):
            for j, (name, check) in enumerate(checks.items()):
                def verdict():
                    counts = np.load(work / f"pass{i}" / f"{name}.npy")
                    if i > 0 and not np.array_equal(counts, np.load(first / f"{name}.npy")):
                        return f"seed {args.seed} gave a different {name} histogram than in pass 0"
                    return check(counts, size)

                reasons[i][j] = reasons[i][j] or guarded(verdict)
        if reasons[0][0] is None:
            worst_tv = oracle.worst_column_tv(np.load(first / "empirical_matrix.npy"), size.p_loss, size.lam)
    return reasons, worst_tv


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile. Below 21 samples that percentile would not lie above the
    median, so the maximum (p100) stands in for it."""
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def layer_metrics(workload: str, work: Path, passes: list[dict], worst_tv: float) -> dict:
    """Per-layer metrics from the spans of the traced passes (median over
    them) and the untraced passes (for the overhead)."""
    per_pass = []
    for i, p in enumerate(passes):
        if not p["traced"]:
            continue
        recorded = spans.load(sorted((work / f"pass{i}").glob("*spans.json")))
        busy, covered = defaultdict(float), defaultdict(float)
        totals = defaultdict(int)
        calls = 0
        for s in recorded:
            d = s["end"] - s["start"]
            busy[s["name"]] += d
            if s["parent"] is not None:
                covered[s["parent"]] += d
            for key in ("entries", "outcomes", "undefined", "shots", "uniforms", "bytes", "files"):
                totals[key] += s.get(key, 0)
            calls += s["name"] == "detector.build_matrix"
        wall = p["wall_s"]
        sampler = busy["montecarlo.empirical_matrix"] + busy["montecarlo.empirical_joint"]
        per_pass.append({
            "import.wall_share": (busy["import.interpreter"] + busy["import.countfix"]) / wall,
            "detector.build_matrix.calls": calls,
            "detector.build_matrix.busy_s": busy["detector.build_matrix"],
            "detector.entries": totals["entries"],
            "detector.entries_per_s": totals["entries"] / busy["detector.build_matrix"] if calls else 0.0,
            "detector.matrix_bytes": totals["entries"] * 8,
            "detector.wall_share": busy["detector.build_matrix"] / wall,
            "priors.busy_s": sum(v for k, v in busy.items() if k.startswith("priors.")),
            "inference.posterior.busy_s": busy["inference.posterior"],
            "inference.optimisation_map.busy_s": busy["inference.optimisation_map"],
            "inference.outcomes": totals["outcomes"],
            "inference.undefined_outcomes": totals["undefined"],
            "montecarlo.empirical_matrix.busy_s": busy["montecarlo.empirical_matrix"],
            "montecarlo.empirical_joint.busy_s": busy["montecarlo.empirical_joint"],
            "montecarlo.shots": totals["shots"],
            "montecarlo.shots_per_s": totals["shots"] / sampler if sampler else 0.0,
            "montecarlo.uniforms_drawn": totals["uniforms"],
            "montecarlo.wall_share": sampler / wall,
            "cli.parse_config.busy_s": busy["cli.parse_config"],
            "cli.self_s": sum(s["end"] - s["start"] - covered[s["id"]]
                              for s in recorded if s["name"] == "cli.main"),
            "cli.bytes_written": totals["bytes"],
            "cli.files_written": totals["files"],
        })
        (ROOT / ".perfbench" / f"spans-{workload}.json").write_text(json.dumps(recorded))
    # counts stay whole numbers: median_low picks one of the measured values
    metrics = {k: (statistics.median_low if isinstance(v, int) else statistics.median)(p[k] for p in per_pass)
               for k, v in per_pass[0].items()}
    metrics["montecarlo.max_column_tv"] = worst_tv
    traced = [p["wall_s"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def end_to_end(result: dict, setup: list[float]) -> dict:
    timed = [p for p in result["passes"] if not p["traced"]]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "cpu_s": statistics.median(p["cpu_s"] for p in timed),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def invocation_lines(result: dict) -> list[str]:
    """Median and tail of single cold CLI processes (cli-figures only)."""
    ops = [op["wall_s"] for p in result["passes"] if not p["traced"] for op in p["ops"]]
    tail_s, pct = tail(ops)
    return [f"  {'invocation_p50_s':<20} {statistics.median(ops):12.6g} s",
            f"  {'invocation_tail_s':<20} {tail_s:12.6g} s  (p{pct:.1f} of {len(ops)} invocations)"]


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": importlib.metadata.version("scipy")}


def declared_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def measure(args) -> dict:
    """One run of one workload; returns the result object to print."""
    units = declared_units()
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env()
    passes = workloads.passes(args.workload, args.seconds, args.smoke)
    work = ROOT / ".perfbench" / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times(env, 1)  # untimed: fills the bytecode cache
        half = 1 if args.smoke else SETUP_REPEATS // 2
        setup = setup_times(env, half)
        layers = import_layers(env) if args.trace else {}
        result = run_worker(args, work, env, passes, deadline)
        setup += setup_times(env, half)
        reasons, worst_tv = check_outputs(args, work, result)
        e2e = end_to_end(result, setup)
        if args.trace:
            layers.update(layer_metrics(args.workload, work, result["passes"], worst_tv))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    flat = [(i, op["name"], why) for i, rs in enumerate(reasons)
            for op, why in zip(result["passes"][i]["ops"], rs)]
    failed = [f for f in flat if f[2] is not None]
    for i, name, why in failed:
        print(f"FAILED pass {i} {name}: {why}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  trace {args.trace}")
    print("machine " + json.dumps(machine()))
    for name, value in e2e.items():
        print(f"  {name:<20} {value:12.6g} {units[name]}")
    if args.workload == "cli-figures":
        print("\n".join(invocation_lines(result)))
    print(f"  {'error_rate':<20} {len(failed) / len(flat):12.6g}"
          f" ({len(failed)} of {len(flat)} operations failed)")
    for name, value in layers.items():
        print(f"  {name:<36} {value:14.6g} {units[name]}")
    chosen = layers if args.trace else e2e
    return {
        "correct": not failed,
        "attempted": len(flat),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }




def main() -> int:
    parser = argparse.ArgumentParser(description="countfix benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload (or --workload) once at a tiny size and check it")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer (it keys the Philox streams)")
    if not (ROOT / "src" / "countfix" / "__init__.py").is_file():
        print(f"countfix benchmark: no src/countfix under {ROOT}; run it inside a checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.NAMES)
    args.trace = 1 if args.smoke else args.trace
    ok = True
    for name in names:
        args.workload = name
        try:
            result = measure(args)
        except HarnessError as exc:
            print(f"countfix benchmark: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
