"""In-memory span recorder and the wrappers that feed it.

A span is one call into a countfix layer: name, start, end, the span that
caused it, and a run id shared by every span of one pass. Wrappers are
installed where `countfix.cli` and the harness look the public functions
up, so the library itself is never edited. Spans stay in memory and are
written out once, when the process ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from pathlib import Path


def _out_dir_stats(bound: dict, result) -> dict:
    """Files and bytes under the --out directory of a finished cli.main call."""
    argv = list(bound["argv"] or [])
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else Path(".")
    files = [p for p in out.rglob("*") if p.is_file()]
    return {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}


def _matrix_counts(bound: dict, result) -> dict:
    config, n_max = bound["config"], bound["n_max"]
    columns = n_max + 1
    return {
        "shots": config.shots * columns,
        "uniforms": config.shots * columns * (columns + 1) // 2,
    }


def _joint_counts(bound: dict, result) -> dict:
    config, prior = bound["config"], bound["prior"]
    return {"shots": config.shots, "uniforms": config.shots * (len(prior.probs) + 1)}


# Public countfix functions the traced run wraps: span name and, where the
# layer has countable work, a function of the call's bound arguments (and
# result) that counts it. Counting runs after the span has ended.
TRACED = {
    "build_matrix": ("detector.build_matrix", lambda b, r: {"entries": int(r.entries.size)}),
    "pdc_prior": ("priors.pdc_prior", None),
    "uniform_prior": ("priors.uniform_prior", None),
    "custom_prior": ("priors.custom_prior", None),
    "posterior": (
        "inference.posterior",
        lambda b, r: {"outcomes": int(r.defined.size), "undefined": int((~r.defined).sum())},
    ),
    "optimisation_map": ("inference.optimisation_map", None),
    "empirical_matrix": ("montecarlo.empirical_matrix", _matrix_counts),
    "empirical_joint": ("montecarlo.empirical_joint", _joint_counts),
    "parse_config": ("cli.parse_config", None),
    "main": ("cli.main", _out_dir_stats),
}


class Recorder:
    """Collects spans of one process; `run` tags the spans of one pass."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[str] = []

    def _open(self, name: str) -> dict:
        # ids carry the pid so spans from several processes can be merged
        span = {"id": f"{os.getpid()}.{len(self.spans)}", "name": name,
                "parent": self._stack[-1] if self._stack else None, "run": self.run}
        self.spans.append(span)
        return span

    def add(self, name: str, start: float, end: float) -> None:
        self._open(name).update(start=start, end=end)

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(count(bound.arguments, result))
            return result

        return traced

    def install(self, namespace) -> dict:
        """Replace the traced functions that `namespace` (a module or any
        object) holds; returns the originals for `uninstall`."""
        originals = {}
        for attr, (name, count) in TRACED.items():
            fn = getattr(namespace, attr, None)
            if fn is not None:
                originals[attr] = fn
                setattr(namespace, attr, self.wrap(name, fn, count))
        return originals

    @staticmethod
    def uninstall(namespace, originals: dict) -> None:
        for attr, fn in originals.items():
            setattr(namespace, attr, fn)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def load(paths) -> list[dict]:
    spans = []
    for path in paths:
        spans.extend(json.loads(Path(path).read_text()))
    return spans
