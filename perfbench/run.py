"""ratecraft benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 1 --seconds 10 --trace 0

It writes the workload's inputs from ``--seed``, times fresh-interpreter
imports of ``ratecraft.cli`` (``setup_s``), runs the workload in a child
process with a scrubbed environment (see ``worker.py``), checks every
output against the oracles in ``checks.py``, prints each metric with its
unit, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a traced pass, whose spans are also written to
``.bench_run/trace-<workload>-<seed>.json``.  ``--smoke`` shrinks every
size so all checks run in seconds.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170


# glibc moves its mmap and trim thresholds as blocks are freed, so the cost
# of the same n x n temporaries depends on allocation history (which the
# seed changes) and run times split into two modes.  Pinning the thresholds
# at the values that scheme settles at (32 MiB and twice that) removes the
# history dependence.
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def child_env(src: Path) -> dict:
    """The parent's environment without ``RATECRAFT_SEED`` (which would
    override ``--seed``), with one BLAS/OpenMP thread, pinned malloc
    thresholds and ``src`` first on the import path."""
    env = {k: v for k, v in os.environ.items() if k != "RATECRAFT_SEED"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env.update(MALLOC_VARS)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def time_imports(env: dict, root: Path, samples: int, flags=()) -> list:
    """Seconds a fresh interpreter takes to import the CLI (and its
    stderr), one interpreter per sample.  One untimed import first, so
    bytecode is cached as it is for a user."""
    code = ("import time; t = time.perf_counter(); import ratecraft.cli; "
            "print(time.perf_counter() - t)")
    cmd = [sys.executable, *flags, "-c", code]
    run = lambda: subprocess.run(  # noqa: E731
        cmd, env=env, cwd=root, capture_output=True, text=True, check=True, timeout=60
    )
    run()
    return [(float(proc.stdout), proc.stderr) for proc in (run() for _ in range(samples))]


def environment() -> dict:
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "l3_cache": l3.read_text().strip() if l3.exists() else "unknown",
    }


def end_to_end(result: dict, setup: list, spreads: list) -> dict:
    passes = result["passes"]
    optimize_max = [
        max(op["seconds"] for op in p["ops"] if op["name"].startswith("optimize-beta"))
        for p in passes
    ]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "optimize_max_s": (statistics.median(optimize_max), "s"),
        "peak_rss_mb": (result["maxrss_mb"], "MB"),
        "rel_spread_max": (max(spreads), "ratio"),
    }


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def audit(ops, result: dict, work: Path, seed: int):
    """Failures per operation run: a nonzero exit, an exception, a failed
    oracle on the warm-up outputs, or a timed pass whose stdout or files
    differ from the warm-up pass of the same seed."""
    import checks

    problems, spreads = checks.check_pass(ops, work / "ref", seed)
    failures = []
    attempted = 0
    runs = [("warm-up", result["warmup"])] + [
        (f"pass {i + 1}", p) for i, p in enumerate(result["passes"])
    ]
    ref = {r["name"]: r["digests"] for r in result["warmup"]["ops"]}
    for label, pass_ in runs:
        for rec in pass_["ops"]:
            attempted += 1
            if rec["code"] != 0:
                failures.append(f"{label} {rec['name']}: exit {rec['code']}: {rec['error']}")
            elif label == "warm-up" and problems.get(rec["name"]):
                failures.append(f"{label} {rec['name']}: " + "; ".join(problems[rec["name"]]))
            elif rec["digests"] != ref[rec["name"]]:
                failures.append(f"{label} {rec['name']}: output differs from the warm-up pass")
    if "trace" in result:
        # the traced replay must reproduce the CLI's series
        for op in ops:
            if op.command == "simulate":
                attempted += 1
                out = op.params["out"]
                if not checks.same_series(work / "traced" / out, work / "ref" / out):
                    failures.append(f"traced {op.name}: series differs from the CLI's")
    return attempted, failures, spreads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one ratecraft benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True,
                        choices=("design", "levels", "market-churn", "market-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ratecraft" / "__init__.py").is_file():
        print("error: no ratecraft sources in ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("RATECRAFT_SEED", None)
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    runs_dir = root / ".bench_run"
    work = runs_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workloads.make_inputs(args.workload, work / "inputs", args.seed, args.smoke)
        ops = workloads.operations(args.workload, work / "inputs", args.seed, args.smoke)
        env = child_env(src)
        samples = 1 if args.smoke else SETUP_SAMPLES
        if not args.trace:
            setup = [s for s, _ in time_imports(env, root, samples)]
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work), "--src", str(src), "--result", str(work / "worker.json"),
        ]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"error: workload process exited {proc.returncode}\n{proc.stderr[-4000:]}",
                  file=sys.stderr)
            return 1
        result = json.loads((work / "worker.json").read_text(encoding="utf-8"))
        attempted, failures, spreads = audit(ops, result, work, args.seed)
        env_info = environment()
        if args.trace:
            imports = tracing.median_imports([
                tracing.parse_importtime(err)
                for _, err in time_imports(env, root, samples, ("-X", "importtime"))
            ])
            untraced = statistics.median(p["wall_s"] for p in result["passes"])
            metrics = tracing.layer_metrics(result["trace"], untraced, imports)
            summary = {
                "workload": args.workload, "seed": args.seed, "environment": env_info,
                "untraced_wall_s": untraced, "traced_wall_s": result["trace"]["wall_s"],
                "metrics": as_json(metrics),
                "spans": tracing.span_summary(result["trace"]["spans"]),
            }
            stem = runs_dir / f"trace-{args.workload}-{args.seed}"
            stem.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1) + "\n")
            stem.with_suffix(".json").write_text(json.dumps({
                "span_fields": ["name", "start", "end", "parent", "op"],
                "ops": result["trace"]["ops"],
                "spans": result["trace"]["spans"],
                "counts": result["trace"]["counts"],
            }))
        else:
            metrics = end_to_end(result, setup, spreads)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"environment {json.dumps(env_info)}")
    print(f"workload {args.workload} seed {args.seed}: {len(result['passes'])} timed passes, "
          f"{attempted} operations, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.3g})")
    for line in failures[:20]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
