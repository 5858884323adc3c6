"""Monte Carlo marketplace: ranked matching, binary ratings, churn.

Each step, buyers match to items with probability driven by the item's
current rank, matched items collect Bernoulli ratings according to the
deployed design, scores update, and (optionally) items die and are
replaced by fresh ones.  The recorded output is the weighted pairwise
rank-agreement objective over time, per replicate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import _WEIGHT_FACTORS, StepBeta, WeightSpec, normalize_weight

__all__ = [
    "SimConfig",
    "MarketState",
    "init_market",
    "step_market",
    "run_simulation",
    "empirical_objective",
    "estimate_pk_rate",
    "RateEstimate",
    "SimResult",
]

_MATCHING_KINDS = ("uniform", "linear")


def _match_intensity(kind: str, quantiles: np.ndarray) -> np.ndarray:
    if kind == "uniform":
        return np.ones_like(quantiles)
    if kind == "linear":
        return (1.0 + 10.0 * quantiles) / 11.0
    raise ValueError(f"unknown matching kind {kind!r}")


@dataclass(frozen=True)
class SimConfig:
    """Marketplace simulation parameters.

    ``design`` maps item quality to the probability of a positive rating:
    either a step function deployed directly, or the mixture curve a
    question distribution induces.  Asking a sampled question and then a
    Bernoulli response is, per match, one Bernoulli draw with the mixture
    probability, so the design callable is all the simulator needs.
    """

    design: StepBeta | Callable
    steps: int
    n_items: int = 500
    n_buyers: int = 100
    death_prob: float = 0.0
    matching: str = "uniform"
    metrics: tuple[str, ...] = ("kendall",)
    seed: int = 0
    replicates: int = 1
    record_at: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_items < 2:
            raise ValueError("need at least two items")
        if self.n_buyers < 1:
            raise ValueError("need at least one buyer")
        if self.steps < 1:
            raise ValueError("need at least one step")
        if not 0.0 <= self.death_prob < 1.0:
            raise ValueError("death_prob must lie in [0, 1)")
        if self.matching not in _MATCHING_KINDS:
            raise ValueError(f"unknown matching kind {self.matching!r}")
        metrics = tuple(self.metrics)
        object.__setattr__(self, "metrics", metrics)
        if not metrics:
            raise ValueError("at least one metric required")
        for m in metrics:
            if m not in _WEIGHT_FACTORS:
                raise ValueError(f"unknown metric {m!r}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.record_at is not None:
            rec = tuple(sorted(set(int(k) for k in self.record_at)))
            if not rec or rec[0] < 1 or rec[-1] > self.steps:
                raise ValueError("record steps must lie within [1, steps]")
            object.__setattr__(self, "record_at", rec)

    def record_schedule(self) -> tuple[int, ...]:
        """Recording steps: explicit if given, else every step to 100 and
        every tenth step after, always including the last."""
        if self.record_at is not None:
            return self.record_at
        ks = list(range(1, min(self.steps, 100) + 1))
        ks.extend(range(110, self.steps + 1, 10))
        if ks[-1] != self.steps:
            ks.append(self.steps)
        return tuple(ks)

    def design_probability(self, thetas: np.ndarray) -> np.ndarray:
        p = np.asarray(self.design(thetas), dtype=float)
        if p.shape != np.shape(thetas):
            raise ValueError("design must return one probability per quality")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("design probabilities must lie within [0, 1]")
        return p


@dataclass
class MarketState:
    """Live items: quality, deployed rating probability, score counts."""

    theta: np.ndarray
    prob: np.ndarray
    positives: np.ndarray
    totals: np.ndarray
    ids: np.ndarray
    next_id: int
    births: int = 0

    def scores(self) -> np.ndarray:
        """Fraction of positive ratings; zero before the first rating."""
        return np.where(
            self.totals > 0, self.positives / np.maximum(self.totals, 1), 0.0
        )


def init_market(cfg: SimConfig, seed) -> MarketState:
    """Fresh market: i.i.d. uniform qualities, no ratings yet.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts,
    including an existing generator (which the simulation loop reuses so
    the whole replicate consumes one stream).
    """
    rng = np.random.default_rng(seed)
    theta = rng.random(cfg.n_items)
    return MarketState(
        theta=theta,
        prob=cfg.design_probability(theta),
        positives=np.zeros(cfg.n_items, dtype=np.int64),
        totals=np.zeros(cfg.n_items, dtype=np.int64),
        ids=np.arange(cfg.n_items, dtype=np.int64),
        next_id=cfg.n_items,
    )


def step_market(state: MarketState, cfg: SimConfig, rng: np.random.Generator) -> MarketState:
    """One matching round: rank, match, rate, and churn.

    Ranks order by score ascending with ties broken by newest-first id,
    so unrated entrants sit at the bottom until their first rating.  Each
    buyer picks an item with probability proportional to the matching
    intensity at the item's rank quantile; an item can take several
    matches in one round.
    """
    n = state.theta.size
    order = np.lexsort((-state.ids, state.scores()))
    quantiles = (np.arange(n) + 0.5) / n
    intensity = _match_intensity(cfg.matching, quantiles)
    matches_by_rank = rng.multinomial(cfg.n_buyers, intensity / intensity.sum())
    matches = np.zeros(n, dtype=np.int64)
    matches[order] = matches_by_rank
    state.positives += rng.binomial(matches, state.prob)
    state.totals += matches
    if cfg.death_prob > 0.0:
        dead = rng.random(n) < cfg.death_prob
        k = int(dead.sum())
        if k:
            fresh = rng.random(k)
            state.theta[dead] = fresh
            state.prob[dead] = cfg.design_probability(fresh)
            state.positives[dead] = 0
            state.totals[dead] = 0
            state.ids[dead] = state.next_id + np.arange(k, dtype=np.int64)
            state.next_id += k
            state.births += k
    return state


_BLOCK = 16


def _signed_dominance(ranks: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``D[k, p] = sum over q < p of G[k, q] * sign(ranks[p] - ranks[q])``.

    ``ranks`` holds nonnegative integers, ``G`` one row per column to
    sum.  Positions are padded to a power of two.  Aligned blocks of
    ``_BLOCK`` positions are compared densely; then each merge level pairs
    neighbouring blocks, adds the left block's sums below and above every
    rank into the right block, and merges the two rank orders.  Time is
    O(K n log n) and memory O(K n).  Every step is an elementwise
    operation or a running sum along one row, so row k's result does not
    depend on the other rows.
    """
    K, n = G.shape
    size = max(_BLOCK, 1 << (n - 1).bit_length())
    pad = int(ranks.max()) + 1
    r = np.full(size, pad, dtype=np.int64)
    r[:n] = ranks
    g = np.zeros((K, size))
    g[:, :n] = G
    D = np.zeros((K, size))
    rb = r.reshape(-1, _BLOCK)
    gb = g.reshape(K, -1, _BLOCK)
    db = D.reshape(K, -1, _BLOCK)
    for d in range(1, _BLOCK):
        db[:, :, d:] += gb[:, :, :-d] * np.sign(rb[:, d:] - rb[:, :-d])
    # positions of each block, in rank order
    perm = np.argsort(rb, axis=1, kind="stable") + np.arange(0, size, _BLOCK)[:, None]
    h = _BLOCK
    while h < size:
        pairs = perm.reshape(-1, 2 * h)
        left, right = pairs[:, :h], pairs[:, h:]
        row = np.arange(pairs.shape[0]).repeat(h)
        # row-offset keys make the left halves one sorted array
        keys = r[left].ravel() + row * (pad + 1)
        probe = r[right].ravel() + row * (pad + 1)
        cum = np.zeros((K, pairs.shape[0], h + 1))
        np.cumsum(g[:, left], axis=-1, out=cum[:, :, 1:])
        cum = cum.reshape(K, -1)
        # an index into keys is row * h + count; rows of cum hold h + 1 entries
        below = cum[:, np.searchsorted(keys, probe, "left") + row]
        not_above = cum[:, np.searchsorted(keys, probe, "right") + row]
        total = cum[:, row * (h + 1) + h]
        D[:, right.ravel()] += below - (total - not_above)
        h *= 2
        if h < size:
            order = np.argsort(r[pairs], axis=1, kind="stable")
            perm = np.take_along_axis(pairs, order, axis=1)
    return D[:, :n]


class _RankObjective:
    """Weighted rank agreement of one market under several named weights.

    With raw(a, b) = sum_k F_k(a) G_k(b) (:meth:`WeightSpec.factors`), the
    pair sum over theta_i > theta_j of raw * sign(s_i - s_j) equals
    sum_k sum_i F_k(theta_i) D_k,i, where D_k,i sums G_k(theta_j) *
    sign(s_i - s_j) over the items of lower quality.  Sorting by quality
    turns D into :func:`_signed_dominance`.  The quality order, the factor
    rows and the denominators are kept until :meth:`rebuild` is called for
    new qualities.
    """

    def __init__(self, weights: Sequence[WeightSpec]):
        self.weights = tuple(weights)

    def rebuild(self, theta: np.ndarray) -> None:
        self.order = np.argsort(theta, kind="stable")
        t = theta[self.order]
        F, G, self.columns = [], [], []
        for w in self.weights:
            f, g = w.factors(t)
            self.columns.append(slice(len(F), len(F) + len(f)))
            F.extend(f)
            G.extend(g)
        self.F = np.asarray(F)
        self.G = np.asarray(G)
        n = t.size
        first = np.ones(n, dtype=bool)
        first[1:] = t[1:] != t[:-1]
        # pairs of equal quality carry no weight: only items before an
        # item's tie group count as lower
        self.start = np.maximum.accumulate(np.where(first, np.arange(n), 0))
        self.group = None if first.all() else np.cumsum(first) - 1
        prefix = np.zeros((self.G.shape[0], n + 1))
        np.cumsum(self.G, axis=1, out=prefix[:, 1:])
        den = (self.F * prefix[:, self.start]).sum(axis=1)
        self.denominators = [den[c].sum() for c in self.columns]

    def values(self, scores: np.ndarray) -> list[float]:
        """One objective per weight; score ties contribute zero."""
        ranks = np.unique(scores[self.order], return_inverse=True)[1]
        D = _signed_dominance(ranks, self.G)
        if self.group is not None:
            # the positional pass also counted earlier members of each
            # item's own tie group; those are exactly the pairs that rank
            # before the item under the key (group, rank) minus the
            # items of earlier groups
            key = self.group * (int(ranks.max()) + 1) + ranks
            same = _signed_dominance(key, np.ones((1, key.size)))[0] - self.start
            D -= self.G * same
        num = (self.F * D).sum(axis=1)
        return [
            float(num[c].sum() / den) if den else math.nan
            for c, den in zip(self.columns, self.denominators)
        ]


def empirical_objective(state: MarketState, w: WeightSpec) -> float:
    """Weighted fraction of correctly ordered pairs minus incorrectly
    ordered ones; score ties contribute zero.  Named weight kinds only."""
    if state.theta.size < 2:
        raise ValueError("need at least two items")
    objective = _RankObjective((w,))
    objective.rebuild(state.theta)
    return objective.values(state.scores())[0]


@dataclass(frozen=True)
class SimResult:
    """Recorded objective series: one row per (replicate, step, metric)."""

    metrics: tuple[str, ...]
    record_steps: tuple[int, ...]
    replicates: int
    rows: tuple[tuple[int, int, str, float], ...]

    def values(self, metric: str, k: int) -> np.ndarray:
        """Per-replicate values of one metric at one recorded step."""
        out = [r[3] for r in self.rows if r[2] == metric and r[1] == k]
        if not out:
            raise KeyError(f"nothing recorded for {metric!r} at step {k}")
        return np.asarray(out)

    def mean_se(self, metric: str, k: int) -> tuple[float, float]:
        vals = self.values(metric, k)
        mean = float(vals.mean())
        if len(vals) < 2:
            return mean, math.nan
        return mean, float(vals.std(ddof=1) / math.sqrt(len(vals)))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["replicate", "k", "metric", "value"])
            for rep, k, metric, value in self.rows:
                writer.writerow([rep, k, metric, repr(value)])

    def summary_to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "metric", "mean", "se", "replicates"])
            for k in self.record_steps:
                for metric in self.metrics:
                    mean, se = self.mean_se(metric, k)
                    writer.writerow([k, metric, repr(mean), repr(se), self.replicates])


def _run_replicate(cfg: SimConfig, rep: int) -> list[tuple[int, int, str, float]]:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(rep,)))
    state = init_market(cfg, rng)
    objective = _RankObjective([normalize_weight(name) for name in cfg.metrics])
    record = set(cfg.record_schedule())
    rows: list[tuple[int, int, str, float]] = []
    seen_births = -1
    for k in range(1, cfg.steps + 1):
        step_market(state, cfg, rng)
        if k in record:
            if state.births != seen_births:
                objective.rebuild(state.theta)
                seen_births = state.births
            values = objective.values(state.scores())
            rows.extend((rep, k, name, v) for name, v in zip(cfg.metrics, values))
    return rows


def run_simulation(cfg: SimConfig, jobs: int = 1) -> SimResult:
    """All replicates of the configured simulation.

    Replicate ``i`` draws from a child stream of the master seed indexed
    by ``i``, so results do not depend on scheduling; with ``jobs > 1``
    replicates run in worker processes and are merged by index.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if jobs == 1 or cfg.replicates == 1:
        chunks = [_run_replicate(cfg, rep) for rep in range(cfg.replicates)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_replicate, [cfg] * cfg.replicates, range(cfg.replicates)))
    rows = tuple(row for chunk in chunks for row in chunk)
    return SimResult(cfg.metrics, cfg.record_schedule(), cfg.replicates, rows)


@dataclass(frozen=True)
class RateEstimate:
    """Fitted decay rate of the pairwise misranking mass."""

    slope: float
    stderr: float
    k_lo: int
    k_hi: int
    n_points: int
    series: tuple[tuple[int, float], ...]


def estimate_pk_rate(
    t1: float,
    t2: float,
    g1: float,
    g2: float,
    k_max: int = 150,
    reps: int = 1_000_000,
    seed: int = 0,
) -> RateEstimate:
    """Monte Carlo estimate of the pair error exponent.

    Simulates ``reps`` paired binomial score trajectories for a better
    item (level ``t1``, intensity ``g1``) and a worse one (``t2``,
    ``g2``), where by time k an item holds floor(g * k) ratings.  The
    error mass at k is ``2 Pr(x1 < x2) + Pr(x1 = x2)``, one minus the
    expected pairwise order agreement.  The decay slope is fit by least
    squares on log error mass over the k-range where the mass lies in
    [10/reps, 0.1]; with no decay (equal levels) the fit runs over the
    whole resolvable range and comes out near zero.
    """
    if not 0.0 <= t2 <= t1 <= 1.0:
        raise ValueError("need 0 <= t2 <= t1 <= 1")
    if g1 <= 0.0 or g2 <= 0.0:
        raise ValueError("matching intensities must be positive")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if reps < 1000:
        raise ValueError("too few replicates to estimate tail mass")
    rng = np.random.default_rng(seed)
    pos1 = np.zeros(reps, dtype=np.int64)
    pos2 = np.zeros(reps, dtype=np.int64)
    n1 = n2 = 0
    series: list[tuple[int, float]] = []
    for k in range(1, k_max + 1):
        new1 = int(math.floor(g1 * k)) - n1
        new2 = int(math.floor(g2 * k)) - n2
        if new1 > 0:
            pos1 += rng.binomial(new1, t1, reps)
            n1 += new1
        if new2 > 0:
            pos2 += rng.binomial(new2, t2, reps)
            n2 += new2
        if n1 == 0 or n2 == 0:
            continue
        x1 = pos1 / n1
        x2 = pos2 / n2
        less = float(np.count_nonzero(x1 < x2)) / reps
        equal = float(np.count_nonzero(x1 == x2)) / reps
        series.append((k, 2.0 * less + equal))
    floor_mass = 10.0 / reps
    window = [(k, p) for k, p in series if floor_mass <= p <= 0.1]
    if not window:
        window = [(k, p) for k, p in series if p >= floor_mass]
    if len(window) < 3:
        raise ValueError(
            "error mass left the resolvable range too quickly; "
            "more replicates or a smaller k_max needed"
        )
    ks = np.asarray([k for k, _ in window], dtype=float)
    logs = np.log(np.asarray([p for _, p in window]))
    k_mean = ks.mean()
    denom = float(((ks - k_mean) ** 2).sum())
    slope = -float(((ks - k_mean) * (logs - logs.mean())).sum() / denom)
    fitted = logs.mean() - slope * (ks - k_mean)
    rss = float(((logs - fitted) ** 2).sum())
    stderr = math.sqrt(rss / (len(ks) - 2) / denom) if len(ks) > 2 else math.nan
    return RateEstimate(
        slope, stderr, int(ks[0]), int(ks[-1]), len(ks), tuple(series)
    )
