"""Oracle checks on a pass's outputs.

Every check recomputes its expectation independently of the output under
test and compares with a tolerance; none compares against stored output
of some earlier version.  ``check_pass`` returns, per operation, the list
of problems found (empty when the operation is correct), plus the
relative spread of adjacent exponents of every design the pass wrote.
"""

from __future__ import annotations

import csv
import math
import zlib
from pathlib import Path

import numpy as np

from ratecraft.core import (
    QuestionBank,
    QuestionDistribution,
    load_design,
    normalize_weight,
    save_design,
)
from ratecraft.heuristic import induced_beta, l1_gap
from ratecraft.partition import asymptotic_value, equispaced_partition
from ratecraft.rates import adjacent_rates, numeric_pairwise_rate
from ratecraft.simulator import SimConfig, init_market, step_market

PAIR_RTOL = 1e-6  # closed-form exponent against direct minimization
OBJECTIVE_ATOL = 1e-9  # recorded objective against the dense pair sum
SAMPLED_PAIRS = 6

# raw pair weights w(a, b) on {a > b}; normalization cancels in the ratio
_RAW_WEIGHT = {
    "kendall": lambda a, b: np.ones(np.broadcast(a, b).shape),
    "spearman": lambda a, b: a - b,
    "top": lambda a, b: a * b * (a - b),
    "bottom": lambda a, b: (1.0 - a) * (1.0 - b) * (a - b),
    "extremes": lambda a, b: (0.5 - a) ** 2 * (0.5 - b) ** 2 * (a - b),
}


def _close(x: float, y: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(x - y) <= atol + rtol * max(abs(x), abs(y))


def dense_objective(theta, positives, totals, kind: str, block: int = 512) -> float:
    """Weighted rank agreement: sum over theta_i > theta_j of
    w * sign(score_i - score_j), divided by the sum of w.  Row blocks keep
    the memory to ``block`` x n."""
    scores = np.where(totals > 0, positives / np.maximum(totals, 1), 0.0)
    raw = _RAW_WEIGHT[kind]
    num = den = 0.0
    for i in range(0, theta.size, block):
        a = theta[i:i + block, None]
        w = np.where(a > theta[None, :], raw(a, theta[None, :]), 0.0)
        num += float((w * np.sign(scores[i:i + block, None] - scores[None, :])).sum())
        den += float(w.sum())
    return num / den


def record_schedule(steps: int, record_at) -> list[int]:
    """The simulator's documented default: every step to 100, every tenth
    after, always the last."""
    if record_at is not None:
        return sorted(set(record_at))
    ks = list(range(1, min(steps, 100) + 1)) + list(range(110, steps + 1, 10))
    if ks[-1] != steps:
        ks.append(steps)
    return ks


def _relative_spread(design) -> float:
    rates = adjacent_rates(design["beta"], design["g"])
    return (max(rates) - min(rates)) / min(rates)


def _round_trip(path: Path, design) -> list[str]:
    copy = path.with_name(path.name + ".roundtrip")
    save_design(copy, design["beta"], design["g"], design["w_kind"],
                design["rate"], design["residual"])
    same = copy.read_bytes() == path.read_bytes()
    copy.unlink()
    return [] if same else [f"{path.name} does not round-trip through load/save"]


def _check_optimize(op, d: Path, spreads: list) -> list[str]:
    p = op.params
    path = d / p["out"]
    design = load_design(path)
    beta, g = design["beta"], design["g"]
    problems = _round_trip(path, design)
    if (beta.M, g.kind, design["w_kind"]) != (p["M"], p["g"], p["w"]):
        problems.append(f"header {(beta.M, g.kind, design['w_kind'])} != requested")
    if beta.t[0] != 0.0 or beta.t[-1] != 1.0:
        problems.append("outer levels are not pinned at 0 and 1")
    rates = adjacent_rates(beta, g)
    if not _close(design["rate"], min(rates), 1e-12):
        problems.append(f"stored rate {design['rate']} != worst pair {min(rates)}")
    w = normalize_weight(p["w"])
    got = asymptotic_value(w, beta.s, p["grid"])
    floor = asymptotic_value(w, equispaced_partition(p["M"]), p["grid"])
    if got < floor - 1e-12:
        problems.append(f"partition value {got} below equispaced {floor}")
    spreads.append(_relative_spread(design))
    return problems


def _sampled(n: int, key: str, seed: int) -> list[int]:
    """First, last and a few seeded pair indices."""
    rng = np.random.default_rng([seed, zlib.crc32(key.encode())])
    picks = rng.choice(n, size=min(n, SAMPLED_PAIRS), replace=False)
    return sorted({0, n - 1, *(int(i) for i in picks)})


def _check_rate(op, d: Path, seed: int) -> list[str]:
    design = load_design(d / op.params["design"])
    beta, g = design["beta"], design["g"]
    lines = (d / f"{op.name.replace(':', '_')}.stdout").read_text().splitlines()
    rows = list(csv.reader(lines[1:-3]))
    summary = dict(line.split(" ", 1) for line in lines[-3:])
    problems = []
    if lines[0] != "pair,t_lo,t_hi,g_lo,g_hi,rate" or len(rows) != beta.M - 1:
        return [f"expected a header and {beta.M - 1} pair rows"]
    rates = [float(r[5]) for r in rows]
    for i, r in enumerate(rows):
        expect = (i, beta.t[i], beta.t[i + 1], g.values[i], g.values[i + 1])
        if (int(r[0]), *map(float, r[1:5])) != expect:
            problems.append(f"pair row {i} does not match the design")
            break
    for i in _sampled(len(rows), op.name, seed):
        oracle = numeric_pairwise_rate(beta.t[i], beta.t[i + 1], g.values[i], g.values[i + 1])
        if not _close(rates[i], oracle, PAIR_RTOL):
            problems.append(f"pair {i}: rate {rates[i]!r}, direct minimum {oracle!r}")
    if not _close(float(summary["overall_rate"]), min(rates), 1e-12):
        problems.append("overall_rate is not the worst pair")
    if not _close(float(summary["spread"]), max(rates) - min(rates), 1e-12, 1e-300):
        problems.append("spread is not max minus min")
    if summary.get("equalized") not in ("true", "false"):
        problems.append("no equalized verdict")
    return problems


def _check_double(op, d: Path, spreads: list) -> list[str]:
    p = op.params
    src = load_design(d / p["design"])["beta"]
    path = d / p["out"]
    design = load_design(path)
    beta = design["beta"]
    problems = _round_trip(path, design)
    stride = 2 ** p["times"]
    if beta.M != stride * (src.M - 1) + 1:
        return problems + [f"doubled M={beta.M} from M={src.M}"]
    if beta.t[::stride] != src.t:
        problems.append("doubling moved an existing level")
    spreads.append(_relative_spread(design))
    return problems


def _read_counts(ratings: str, qualities: str) -> dict:
    with open(qualities, newline="", encoding="utf-8") as fh:
        theta = {row[0]: float(row[1]) for row in list(csv.reader(fh))[1:]}
    counts: dict[tuple[float, str], list[int]] = {}
    with open(ratings, newline="", encoding="utf-8") as fh:
        for item, question, response in list(csv.reader(fh))[1:]:
            cell = counts.setdefault((theta[item], question), [0, 0])
            cell[0] += int(response)
            cell[1] += 1
    return counts


def _check_estimate(op, d: Path) -> list[str]:
    bank = QuestionBank.from_csv(d / op.params["out"])
    expect = _read_counts(op.params["ratings"], op.params["qualities"])
    got = {
        (th, q): [int(bank.positives[i, j]), int(bank.totals[i, j])]
        for i, th in enumerate(bank.thetas)
        for j, q in enumerate(bank.questions)
    }
    return [] if got == expect else ["estimated counts differ from the ratings"]


def _check_fit(op, d: Path) -> list[str]:
    p = op.params
    h = QuestionDistribution.from_json(d / p["out"])  # validates the simplex
    beta = load_design(d / p["beta"])["beta"]
    bank = QuestionBank.from_csv(d / p["psi"])
    problems = []
    gap = l1_gap(beta, h, bank)
    if not _close(h.objective, gap, 0.0, 1e-9):
        problems.append(f"objective {h.objective!r} != recomputed L1 gap {gap!r}")
    # an optimum over the simplex is no worse than any vertex or the centre
    target = np.asarray(beta(np.asarray(bank.thetas)))
    vertex = np.abs(target[:, None] - bank.psi).sum(axis=0).min()
    centre = np.abs(target - bank.psi.mean(axis=1)).sum()
    if h.objective > min(vertex, centre) + 1e-9:
        problems.append(f"objective {h.objective!r} worse than a trivial mix")
    return problems


def _sim_design(p, d: Path):
    path = d / p["design"]
    if p["psi"] is None:
        return load_design(path)["beta"]
    return induced_beta(QuestionDistribution.from_json(path), QuestionBank.from_csv(p["psi"]))


def read_series(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["replicate", "k", "metric", "value"]:
        raise ValueError(f"{path.name}: unexpected header {rows[0]}")
    return {(int(r[0]), int(r[1]), r[2]): float(r[3]) for r in rows[1:]}


def _check_simulate(op, d: Path) -> list[str]:
    p = op.params
    series = read_series(d / p["out"])
    schedule = record_schedule(p["steps"], p["record_at"])
    keys = {(rep, k, m) for rep in range(p["replicates"]) for k in schedule for m in p["metrics"]}
    if set(series) != keys:
        return [f"series has {len(series)} rows, expected {len(keys)}"]
    if not all(-1.0 <= v <= 1.0 for v in series.values()):
        return ["objective outside [-1, 1]"]
    cfg = SimConfig(
        design=_sim_design(p, d), steps=p["steps"], n_items=p["items"],
        n_buyers=p["buyers"], death_prob=p["death"], metrics=p["metrics"],
        seed=p["seed"], replicates=p["replicates"], record_at=p["record_at"],
    )
    problems = []
    for rep in range(cfg.replicates):
        # replicate rep draws from child stream rep of the master seed
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(rep,)))
        state = init_market(cfg, rng)
        for _ in range(cfg.steps):
            step_market(state, cfg, rng)
        for m in cfg.metrics:
            oracle = dense_objective(state.theta, state.positives, state.totals, m)
            got = series[(rep, cfg.steps, m)]
            if not _close(got, oracle, 0.0, OBJECTIVE_ATOL):
                problems.append(f"replicate {rep} {m}: recorded {got!r}, dense sum {oracle!r}")
    return problems


def check_pass(ops, d: Path, seed: int) -> tuple[dict[str, list[str]], list[float]]:
    """Problems per operation, and the relative spreads of written designs."""
    spreads: list[float] = []
    found: dict[str, list[str]] = {}
    for op in ops:
        try:
            if op.command == "optimize-beta":
                found[op.name] = _check_optimize(op, d, spreads)
            elif op.command == "rate":
                found[op.name] = _check_rate(op, d, seed)
            elif op.command == "double":
                found[op.name] = _check_double(op, d, spreads)
            elif op.command == "estimate-psi":
                found[op.name] = _check_estimate(op, d)
            elif op.command == "fit-h":
                found[op.name] = _check_fit(op, d)
            elif op.command == "simulate":
                found[op.name] = _check_simulate(op, d)
            else:
                found[op.name] = [f"no oracle for {op.command}"]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found[op.name] = [f"check could not read the output: {type(exc).__name__}: {exc}"]
    return found, spreads


def same_series(a: Path, b: Path) -> bool:
    """Two series files hold the same rows, values equal to 1e-12."""
    sa, sb = read_series(a), read_series(b)
    return sa.keys() == sb.keys() and all(math.isclose(sa[k], sb[k], rel_tol=0, abs_tol=1e-12) for k in sa)
