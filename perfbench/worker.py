"""Runs one workload in its own process: a warm-up pass, timed passes and,
with ``--trace 1``, one traced pass plus memory probes.

Started by ``run.py`` with a scrubbed environment.  It drives the public
CLI entry point ``ratecraft.cli.main(argv)`` in-process, one operation
after another (a single-client closed loop), and writes what it measured
to ``--result`` as JSON.  Checking the outputs is the parent's job, so
this process's peak RSS belongs to the program alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(cli_main, ops, out_dir: Path, save_stdout: bool = False) -> dict:
    """Every operation once, in order, from inside ``out_dir``.

    Only the ``cli_main`` call is timed; capturing stdout and hashing the
    outputs happen after the clock stops.  ``out_dir`` must be new: on
    some file systems truncating or deleting a file costs tens of
    milliseconds, which would then be timed as the program's work.
    """
    out_dir.mkdir(parents=True)
    here = Path.cwd()
    os.chdir(out_dir)
    records = []
    try:
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(list(op.argv))
            except Exception as exc:  # a crash counts as a failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if save_stdout:
                Path(f"{op.name.replace(':', '_')}.stdout").write_text(out.getvalue())
            digests = {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}
            for name in op.outputs:
                digests[name] = _digest(Path(name)) if Path(name).exists() else None
            records.append(
                {
                    "name": op.name,
                    "seconds": seconds,
                    "code": code,
                    "error": error or err.getvalue().strip() or None,
                    "digests": digests,
                }
            )
    finally:
        os.chdir(here)
    return {"wall_s": sum(r["seconds"] for r in records), "ops": records}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--work", required=True, help="run directory")
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--result", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    import ratecraft

    src = Path(args.src).resolve()
    if src not in Path(ratecraft.__file__).resolve().parents:
        print(f"error: ratecraft imported from {ratecraft.__file__}, not {src}",
              file=sys.stderr)
        return 1
    from ratecraft.cli import main as cli_main

    work = Path(args.work).resolve()
    ops = workloads.operations(args.workload, work / "inputs", args.seed, args.smoke)

    warmup = run_pass(cli_main, ops, work / "ref", save_stdout=True)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(cli_main, ops, work / f"pass{len(passes) + 1}"))
    result = {
        "warmup": warmup,
        "passes": passes,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        import tracing

        result["trace"] = tracing.traced_run(ops, work / "traced")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
