"""Traced stand-in for `python -m countfix`, used in traced cli-figures passes.

    python perfbench/launcher.py SPANS_FILE RUN_ID SPAWN_TIME countfix-args...

SPAWN_TIME is the parent's time.perf_counter() just before it started
this process; on Linux that clock is system-wide, so the gap up to this
script's first statement is the interpreter start. The launcher then times
`import countfix.cli`, wraps the public functions where countfix.cli looks
them up, calls countfix.cli.main, and writes its spans to SPANS_FILE.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    spans_file, run, spawned, *argv = sys.argv[1:]
    import countfix.cli

    imported = time.perf_counter()

    from pathlib import Path

    import spans

    rec = spans.Recorder(run)
    rec.add("import.interpreter", float(spawned), _STARTED)
    rec.add("import.countfix", _STARTED, imported)
    rec.install(countfix.cli)
    code = countfix.cli.main(argv)
    rec.dump(Path(spans_file))
    return code


if __name__ == "__main__":
    sys.exit(main())
