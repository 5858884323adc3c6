"""The benchmark's workloads: seeded inputs and the CLI operations of one pass.

Each workload is a fixed list of ``ratecraft`` subcommands.  Output files
are bare names, written into the current directory of the pass, so every
pass of one seed prints and writes byte-identical results.  Inputs are
absolute paths into the run's input directory; the program sees only
those files and ``--seed``.

Why these four (sizes at full scale):

- ``design``: five M=200 designs, one per named weight.  The partition
  dynamic program is ~90% of the time, so partition changes show here.
  It also estimates a response table from ~2e5 generated ratings, then
  fits a question mix to, and rates, every design.
- ``levels``: kendall designs at M=1e4 and M=4000 plus a triple level
  doubling from M=1000.  The partition takes its equispaced shortcut, so
  the level solver and the pair-exponent kernel do nearly all the work;
  at M=1e4 the relative-accuracy defect of the level solve is visible.
- ``market-churn``: 500 items with churn and the default 190-record
  schedule, under a step design and under a fitted question mix.  Churn
  forces a dense n x n rebuild at every record, so the pair objective
  dominates, and births evaluate the mixture curve.
- ``market-large``: 5000 items, 2000 steps, two records.  ``step_market``
  dominates and the dense objective's memory sets the peak.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("design", "levels", "market-churn", "market-large")

# (weight, matching) pairs of the design workload
DESIGN_PAIRS = (
    ("kendall", "uniform"),
    ("spearman", "linear"),
    ("top", "uniform"),
    ("bottom", "linear"),
    ("extremes", "uniform"),
)

# full size, then smoke size (tiny, for the benchmark's own tests)
_SIZES = {
    "design": (
        {"M": 200, "grid": 1000, "items": 500, "repeats": 44},
        {"M": 20, "grid": 100, "items": 25, "repeats": 4},
    ),
    "levels": (
        {"M_big": 10000, "M_linear": 4000, "M_double": 1000, "times": 3},
        {"M_big": 300, "M_linear": 120, "M_double": 30, "times": 3},
    ),
    "market-churn": (
        {"M": 200, "items": 500, "buyers": 100, "steps": 1000, "replicates": 5},
        {"M": 20, "items": 60, "buyers": 20, "steps": 120, "replicates": 2},
    ),
    "market-large": (
        {"M": 200, "items": 5000, "buyers": 1000, "steps": 2000, "replicates": 2},
        {"M": 20, "items": 300, "buyers": 60, "steps": 200, "replicates": 2},
    ),
}

CHURN_DEATH = 0.02
CHURN_METRICS = ("kendall", "bottom")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its label, argv, files it writes, and the
    parameters the oracle checks need."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]


def sizes(workload: str, smoke: bool) -> dict:
    return dict(_SIZES[workload][1 if smoke else 0])


def _optimize(M: int, w: str, g: str, out: str, grid: int | None = None) -> Op:
    argv = ["optimize-beta", "--M", str(M), "--w", w, "--g", g, "--out", out]
    if grid is not None:
        argv[1:1] = ["--grid", str(grid)]
    return Op(
        f"optimize-beta:{out}",
        tuple(argv),
        (out,),
        {"M": M, "w": w, "g": g, "grid": grid or 1000, "out": out},
    )


def _rate(design: str) -> Op:
    return Op(f"rate:{design}", ("rate", "--design", design), (), {"design": design})


def _fit(beta: str, psi: str, out: str) -> Op:
    return Op(
        f"fit-h:{out}",
        ("fit-h", "--beta", beta, "--psi", psi, "--out", out),
        (out,),
        {"beta": beta, "psi": psi, "out": out},
    )


def _simulate(design: str, out: str, seed: int, size: dict, psi: str | None = None,
              death: float = 0.0, metrics=("kendall",), record_at=None) -> Op:
    argv = [
        "simulate", "--design", design,
        "--items", str(size["items"]), "--buyers", str(size["buyers"]),
        "--steps", str(size["steps"]), "--death", repr(death),
        "--metrics", *metrics,
        "--seed", str(seed), "--replicates", str(size["replicates"]),
        "--jobs", "1", "--out", out,
    ]
    if psi is not None:
        argv[3:3] = ["--psi", psi]
    if record_at is not None:
        argv[-2:-2] = ["--record-at", *(str(k) for k in record_at)]
    params = {
        "design": design, "psi": psi, "out": out, "seed": seed,
        "items": size["items"], "buyers": size["buyers"], "steps": size["steps"],
        "death": death, "metrics": tuple(metrics),
        "replicates": size["replicates"],
        "record_at": tuple(record_at) if record_at is not None else None,
    }
    return Op(f"simulate:{out}", tuple(argv), (out,), params)


def operations(workload: str, inputs: Path, seed: int, smoke: bool = False) -> list[Op]:
    """The CLI operations of one pass, in order."""
    size = sizes(workload, smoke)
    if workload == "design":
        ops = [
            _optimize(size["M"], w, g, f"d_{w}.json", size["grid"])
            for w, g in DESIGN_PAIRS
        ]
        ops.append(
            Op(
                "estimate-psi:bank.csv",
                ("estimate-psi", "--mode", "known",
                 "--ratings", str(inputs / "ratings.csv"),
                 "--qualities", str(inputs / "qualities.csv"),
                 "--out", "bank.csv"),
                ("bank.csv",),
                {
                    "ratings": str(inputs / "ratings.csv"),
                    "qualities": str(inputs / "qualities.csv"),
                    "out": "bank.csv",
                },
            )
        )
        ops += [_fit(f"d_{w}.json", "bank.csv", f"h_{w}.json") for w, _ in DESIGN_PAIRS]
        ops += [_rate(f"d_{w}.json") for w, _ in DESIGN_PAIRS]
        return ops
    if workload == "levels":
        return [
            _optimize(size["M_big"], "kendall", "uniform", "big.json"),
            _optimize(size["M_linear"], "kendall", "linear", "linear.json"),
            _rate("big.json"),
            _rate("linear.json"),
            _optimize(size["M_double"], "kendall", "uniform", "base.json"),
            Op(
                "double:doubled.json",
                ("double", "--design", "base.json",
                 "--times", str(size["times"]), "--out", "doubled.json"),
                ("doubled.json",),
                {"design": "base.json", "times": size["times"], "out": "doubled.json"},
            ),
        ]
    psi = str(inputs / "psi.csv")
    if workload == "market-churn":
        common = dict(death=CHURN_DEATH, metrics=CHURN_METRICS)
        return [
            _optimize(size["M"], "kendall", "uniform", "step.json"),
            _fit("step.json", psi, "mix.json"),
            _simulate("step.json", "sim_step.csv", seed, size, **common),
            _simulate("mix.json", "sim_mix.csv", seed, size, psi=psi, **common),
        ]
    if workload == "market-large":
        steps = size["steps"]
        return [
            _optimize(size["M"], "kendall", "uniform", "step.json"),
            _simulate("step.json", "sim.csv", seed, size,
                      record_at=(steps // 2, steps)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def make_inputs(workload: str, inputs: Path, seed: int, smoke: bool = False) -> None:
    """Write the workload's input files, a function of ``seed`` alone."""
    from ratecraft.fixtures import fixture_bank

    inputs.mkdir(parents=True, exist_ok=True)
    bank = fixture_bank()
    if workload == "market-churn":
        bank.to_csv(inputs / "psi.csv")
    if workload != "design":
        return
    size = sizes(workload, smoke)
    rng = np.random.default_rng(seed)
    n_items, repeats = size["items"], size["repeats"]
    # every anchor quality gets items, in a seeded order
    anchor = rng.permutation(np.arange(n_items) % bank.n_thetas)
    items = [f"item{i:05d}" for i in range(n_items)]
    with open(inputs / "qualities.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item_id", "theta"])
        for item, a in zip(items, anchor):
            writer.writerow([item, repr(bank.thetas[a])])
    # each item answers every question `repeats` times, Bernoulli(psi)
    item_idx = np.repeat(np.arange(n_items), bank.n_questions * repeats)
    question_idx = np.tile(np.repeat(np.arange(bank.n_questions), repeats), n_items)
    p = bank.psi[anchor[item_idx], question_idx]
    response = (rng.random(p.size) < p).astype(int)
    order = rng.permutation(p.size)
    with open(inputs / "ratings.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item_id", "question", "response"])
        writer.writerows(
            (items[item_idx[k]], bank.questions[question_idx[k]], response[k])
            for k in order
        )
