"""The benchmark's own tests, at smoke size.  From the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ratecraft.cli import main as cli_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work(request):
    """A fresh directory inside the checkout, removed afterwards."""
    name = request.node.name.translate(str.maketrans("[]", "--"))
    path = ROOT / ".bench_run" / "selftest" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_is_correct(workload):
    out = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", "0", "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_smoke_trace_reports_every_layer_metric():
    out = _result(_bench("--workload", "market-churn", "--seed", "3", "--seconds", "0.1",
                         "--trace", "1", "--smoke"))
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _units("per_layer")
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert values["simulator.steps"] > 0 and values["heuristic.mixture_eval_us"] > 0
    summary = json.loads((ROOT / ".bench_run" / "trace-market-churn-3.summary.json").read_text())
    assert summary["spans"]["simulator.step"]["count"] == values["simulator.steps"]


def _reference_pass(workload: str, work: Path) -> tuple[list, dict]:
    workloads.make_inputs(workload, work / "inputs", 3, smoke=True)
    ops = workloads.operations(workload, work / "inputs", 3, smoke=True)
    return ops, worker.run_pass(cli_main, ops, work / "ref", save_stdout=True)


def _perturb_level(path: Path) -> None:
    payload = json.loads(path.read_text())
    payload["t"][5] *= 1.0 + 1e-6
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _perturb_final_objective(path: Path) -> None:
    lines = path.read_text().splitlines()
    rep, k, metric, value = lines[-1].split(",")
    lines[-1] = ",".join([rep, k, metric, repr(float(value) + 1e-6)])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "workload, output, corrupt",
    [
        ("levels", "big.json", _perturb_level),
        ("market-churn", "sim_mix.csv", _perturb_final_objective),
    ],
)
def test_corrupted_output_counts_as_failure(work, workload, output, corrupt):
    ops, ref = _reference_pass(workload, work)
    result = {"warmup": ref, "passes": []}
    attempted, failures, _ = run.audit(ops, result, work, 3)
    assert attempted == len(ops) and failures == []
    corrupt(work / "ref" / output)
    attempted, failures, _ = run.audit(ops, result, work, 3)
    assert attempted == len(ops) and failures
    assert any(output in line for line in failures)


def test_dense_objective_matches_brute_force():
    rng = np.random.default_rng(0)
    theta, pos = rng.random(40), rng.integers(0, 4, 40)
    tot = pos + rng.integers(0, 3, 40)
    scores = [float(p / t) if t else 0.0 for p, t in zip(pos, tot)]
    num = den = 0.0
    for i in range(40):
        for j in range(40):
            if theta[i] > theta[j]:
                w = (1 - theta[i]) * (1 - theta[j]) * (theta[i] - theta[j])
                num += w * ((scores[i] > scores[j]) - (scores[i] < scores[j]))
                den += w
    got = checks.dense_objective(theta, pos, tot, "bottom", block=7)
    assert got == pytest.approx(num / den, abs=1e-12)


def test_seed_alone_fixes_the_inputs(work):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.make_inputs("design", work / name, seed, smoke=True)
    ratings = {n: (work / n / "ratings.csv").read_bytes() for n in "abc"}
    assert ratings["a"] == ratings["b"] != ratings["c"]


def test_child_environment_is_scrubbed(monkeypatch):
    monkeypatch.setenv("RATECRAFT_SEED", "99")
    env = run.child_env(ROOT / "src")
    assert "RATECRAFT_SEED" not in env
    assert all(int(env[v]) <= os.cpu_count() for v in run.THREAD_VARS)


def test_importtime_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.linalg",
        "import time:        50 |        150 |     scipy.linalg",
        "import time:        20 |        170 |   scipy.optimize",
        "import time:        30 |        200 | ratecraft.heuristic",
        "import time:        70 |         70 | ratecraft",
    ])
    assert tracing.parse_importtime(stderr) == {"scipy_s": 170e-6, "ratecraft_self_s": 100e-6}


def test_fails_without_the_program(work):
    shutil.copy(ROOT / "BENCHMARK.json", work)
    shutil.copytree(HERE, work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = _bench("--workload", "design", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=work)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
