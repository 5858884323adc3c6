"""Monte Carlo marketplace: ranked matching, binary ratings, churn.

Each step, buyers match to items with probability driven by the item's
current rank, matched items collect Bernoulli ratings according to the
deployed design, scores update, and (optionally) items die and are
replaced by fresh ones.  The recorded output is the weighted pairwise
rank-agreement objective over time, per replicate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import _MATCH_INTENSITY, _NAMED_WEIGHTS, StepBeta, WeightSpec, normalize_weight
from .core import _checked_count, _checked_levels, _checked_matching, _checked_unit, _write_csv

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
        # numpy's draws and the record schedule hold each count in an int64
        most = np.iinfo(np.int64).max
        for name, least in ("n_items", 2), ("n_buyers", 1), ("steps", 1), ("replicates", 1):
            object.__setattr__(self, name, _checked_count(getattr(self, name), name, least, most))
        object.__setattr__(self, "seed", _checked_count(self.seed, "seed", 0))
        if not 0.0 <= self.death_prob < 1.0:
            raise ValueError("death_prob must lie in [0, 1)")
        if self.matching not in _MATCH_INTENSITY:
            raise ValueError(f"unknown matching kind {self.matching!r}")
        metrics = tuple(self.metrics)
        object.__setattr__(self, "metrics", metrics)
        if not metrics:
            raise ValueError("at least one metric required")
        for i, m in enumerate(metrics):
            if m not in _NAMED_WEIGHTS:
                raise ValueError(f"unknown metric {m!r}")
            if m in metrics[:i]:
                raise ValueError(f"duplicate metric {m!r}")
        if self.record_at is not None:
            rec = tuple(sorted({_checked_count(k, "record step") for k in self.record_at}))
            if not rec or rec[-1] > self.steps:
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
        return _checked_unit(p, "design probabilities")


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


@functools.lru_cache(maxsize=8)
def _rank_probabilities(kind: str, n: int) -> np.ndarray:
    """Matching probability of each rank, lowest first: the intensity at
    the rank's quantile, normalized.  Read-only, as every caller shares it."""
    intensity = _MATCH_INTENSITY[kind]((np.arange(n) + 0.5) / n)
    probabilities = intensity / intensity.sum()
    probabilities.flags.writeable = False
    return probabilities


def _rank_order(state: MarketState) -> np.ndarray:
    """Item slots by score ascending, ties newest (highest id) first:
    exactly ``np.lexsort((-state.ids, state.scores()))``, for
    ``0 <= positives <= totals``.

    Each score is p/t with t <= T = max(totals), so two distinct scores
    differ by at least 1/T^2 > 2^-shift with shift = 2 * bit_length(T),
    and floor(p * 2^shift / t) ranks the scores exactly (equal fractions
    such as 1/2 and 2/4 get equal ranks).  The float scores have the same
    order, because 1/T^2 exceeds their spacing for T < 2^26.  Score rank,
    age (max(ids) - id) and slot are packed into one int64 key from high
    bits to low; the keys are unique, so one plain sort orders them and
    the low bits are the order.  A market whose key needs more than 63
    bits (always when T >= 2^20) takes the lexsort.
    """
    n = state.ids.size
    top = int(state.totals.max()).bit_length()
    shift = 2 * top
    newest = int(state.ids.max())
    age_bits = (newest - int(state.ids.min())).bit_length()
    slot_bits = (n - 1).bit_length()
    if top + shift > 62 or shift + 1 + age_bits + slot_bits > 63:
        return np.lexsort((-state.ids, state.scores()))
    key = np.left_shift(state.positives, shift, dtype=np.int64)
    key //= np.maximum(state.totals, 1)
    key <<= age_bits
    key += newest - state.ids
    key <<= slot_bits
    key += np.arange(n)
    key.sort()
    key &= (1 << slot_bits) - 1
    return key


def step_market(state: MarketState, cfg: SimConfig, rng: np.random.Generator) -> MarketState:
    """One matching round: rank, match, rate, and churn.

    Ranks order by score ascending with ties broken by newest-first id,
    so unrated entrants sit at the bottom until their first rating.  Each
    buyer picks an item with probability proportional to the matching
    intensity at the item's rank quantile; an item can take several
    matches in one round.
    """
    n = state.theta.size
    order = _rank_order(state)
    matches_by_rank = rng.multinomial(cfg.n_buyers, _rank_probabilities(cfg.matching, n))
    matches = np.zeros(n, dtype=np.int64)
    matches[order] = matches_by_rank
    # the generator draws nothing for n = 0, so skipping the unmatched
    # items leaves the random stream as it was
    hit = np.flatnonzero(matches)
    state.positives[hit] += rng.binomial(matches[hit], state.prob[hit])
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
# pairs q < p inside a block
_LOWER = np.tri(_BLOCK, _BLOCK, -1)


def _within_blocks(r: np.ndarray, t: np.ndarray, v: np.ndarray, ka: int) -> np.ndarray:
    """The sums of :func:`_signed_dominance` over the pairs inside each
    aligned block, by one batched product with each block's signed
    ``_BLOCK`` x ``_BLOCK`` matrix: rows below ``ka`` plain, the others
    gapped."""
    kv = len(v)
    rb = r.reshape(-1, _BLOCK)
    tb = t.reshape(-1, _BLOCK)
    vb = v.reshape(kv, -1, _BLOCK, 1)
    out = np.empty(vb.shape)
    s = np.sign(rb[:, :, None] - rb[:, None, :]) * _LOWER
    np.matmul(s, vb[:ka], out=out[:ka])
    if kv > ka:
        s *= tb[:, :, None] - tb[:, None, :]
        np.matmul(s, vb[ka:], out=out[ka:])
    return out.reshape(v.shape)


def _signed_dominance(
    ranks: np.ndarray, theta: np.ndarray, plain: np.ndarray, gapped: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Signed sums over lower positions, for plain and for gapped rows,
    in K markets of n items at once.

    With ``s = sign(ranks[m, p] - ranks[m, q])``, returns ``A`` and ``B``
    with ``A[k, m, p] = sum over q < p of plain[k, m, q] * s`` and
    ``B[k, m, p] = sum over q < p of (theta[m, p] - theta[m, q]) * gapped[k, m, q] * s``.
    ``ranks`` is (K, n) nonnegative integers; ``theta``, each row
    nondecreasing, and the nonnegative mass rows may hold one market
    that all K share.

    Each market is padded to a power of two ``size`` and the markets lie
    end to end.  Aligned blocks of ``_BLOCK`` positions are compared
    densely (:func:`_within_blocks`); then each merge level below
    ``size`` pairs neighbouring blocks of one market, adds the left
    block's sums below minus above every rank into the right block, and
    merges the two rank orders.  For the gapped rows the gap is centred
    at the left block's top quality c: theta_i - theta_j = (theta_i - c)
    + (c - theta_j), both parts nonnegative, so a right item i gains
    (theta_i - c) * X_i + Y_i, where X sums ``gapped`` and Y sums
    ``(c - theta) * gapped`` over the left block.  Every summed term is
    then a nonnegative part of a pair weight, which keeps the rounding
    error within a few ulps of the total weight.  Time is O(k K n log n)
    and memory O(k K n).  Every step is an elementwise operation, a
    running sum along one row or a product with one row, so each row's
    result, in each market, is what a lone call gives, bit for bit.
    """
    markets, n = ranks.shape
    ka = len(plain)
    kv = ka + len(gapped)
    size = max(_BLOCK, 1 << (n - 1).bit_length())
    pad = int(ranks.max()) + 1
    r = np.full((markets, size), pad, dtype=np.int64)
    r[:, :n] = ranks
    # padding sits at the top quality and carries no mass
    t = np.empty((markets, size))
    t[:, :n] = theta
    t[:, n:] = theta[:, -1:]
    v = np.zeros((kv, markets, size))
    v[:ka, :, :n] = plain
    v[ka:, :, :n] = gapped
    out = _within_blocks(r, t, v, ka).reshape(kv, -1)
    r, t, v = r.ravel(), t.ravel(), v.reshape(kv, -1)
    # positions of each block, in rank order
    perm = np.argsort(r.reshape(-1, _BLOCK), axis=1, kind="stable")
    perm += np.arange(0, r.size, _BLOCK)[:, None]
    h = _BLOCK
    while h < size:
        pairs = perm.reshape(-1, 2 * h)
        left, right = pairs[:, :h], pairs[:, h:]
        row = np.arange(pairs.shape[0])[:, None]
        # row-offset keys make the left halves one sorted array
        keys = (r[left] + row * (pad + 1)).ravel()
        probe = (r[right] + row * (pad + 1)).ravel()
        # rows: plain, gapped, then (c - theta) * gapped, where c is the
        # left block's top quality, at its last position
        c = t[2 * h * row + h - 1]
        cum = np.zeros((2 * kv - ka, len(row), h + 1))
        cum[:kv, :, 1:] = v[:, left]
        if kv > ka:
            np.multiply(cum[ka:kv, :, 1:], c - t[left], out=cum[kv:, :, 1:])
        np.cumsum(cum[:, :, 1:], axis=-1, out=cum[:, :, 1:])
        flat = cum.reshape(len(cum), -1)
        # an index into keys is row * h + count; rows of cum hold h + 1 entries
        below = flat[:, np.searchsorted(keys, probe, "left").reshape(right.shape) + row]
        not_above = flat[:, np.searchsorted(keys, probe, "right").reshape(right.shape) + row]
        sums = below - (cum[:, :, h:] - not_above)
        out[:ka, right] += sums[:ka]
        if kv > ka:
            out[ka:, right] += (t[right] - c) * sums[ka:kv] + sums[kv:]
        h *= 2
        if h < size:
            order = np.argsort(r[pairs], axis=1, kind="stable")
            perm = pairs.ravel()[order + row * h]
    out = out.reshape(kv, markets, size)
    return out[:ka, :, :n], out[ka:, :, :n]


# Below this total raw weight (2**52 times the smallest normal float) the
# pair weights are subnormal floats, and how each one rounds can move the
# ratio by more than 1e-12, so such markets get the written-out pair sum.
_SUBNORMAL_TOTAL = 2.0**-970
# pairs per chunk of the written-out sum: 2 MB per float array
_PAIR_CHUNK = 1 << 18


def _written_out(w: WeightSpec, theta: np.ndarray, scores: np.ndarray, mass: np.ndarray) -> float:
    """The pair sum with every weight w(theta_i, theta_j) evaluated on its
    own, for sorted ``theta``.  Items of zero ``mass`` weigh zero in every
    pair and are left out.  O(n^2) time; memory is a few float arrays of
    ``_PAIR_CHUNK`` pairs (whole rows, at least one row per chunk)."""
    theta, scores = theta[mass > 0], scores[mass > 0]
    if theta.size < 2 or theta[0] == theta[-1]:
        return math.nan
    rows = max(1, _PAIR_CHUNK // theta.size)
    num = den = 0.0
    for lo in range(0, theta.size, rows):
        a = theta[lo : lo + rows, None]
        pair = np.where(a > theta, w(a, theta), 0.0)
        den += pair.sum()
        num += (pair * np.sign(scores[lo : lo + rows, None] - scores)).sum()
    return float(num / den) if den else math.nan


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks within each row of ``x``, from 0, equal values sharing one."""
    order = np.argsort(x, axis=-1)
    x = np.take_along_axis(x, order, -1)
    step = np.zeros(x.shape, dtype=np.int64)
    step[:, 1:] = x[:, 1:] != x[:, :-1]
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.cumsum(step, axis=-1, out=step), -1)
    return ranks


class _RankObjective:
    """Weighted rank agreement of K markets under several named weights.

    Kendall weighs every pair of distinct qualities by 1.  Every other
    named weight is ``gapped``: raw(a, b) = P(a) P(b) (a - b), where
    P >= 0 on [0, 1] is the kind's :meth:`WeightSpec.mass`.  Sorted by
    quality, the pair sum over theta_i > theta_j of raw * sign(s_i - s_j)
    is sum_i P_i B_i with B from :func:`_signed_dominance`, and the
    Kendall sum is the plain row's A.
    The denominator sum_i P_i sum_{j<i} (theta_i - theta_j) P_j is taken
    from gap prefix sums, sum_i P_i sum_{g<i} (theta_{g+1} - theta_g)
    (P_0 + ... + P_g), whose terms are all nonnegative.  Equal qualities
    have a zero gap, so only Kendall needs a tie correction; its sums are
    of integers and exact.  :meth:`rebuild` keeps the quality order, P
    rows and denominators of K markets, given as (K, n) qualities, or of
    one market that every row of scores then shares.  Each sort, running
    sum and total runs along the last axis, so K markets give the values
    of K lone ones.
    """

    def __init__(self, weights: Sequence[WeightSpec]):
        self.weights = tuple(weights)

    def rebuild(self, theta: np.ndarray) -> None:
        self.order = np.argsort(theta, axis=-1, kind="stable")
        t = np.take_along_axis(theta, self.order, -1)
        self.theta = t
        # mass() refuses NaN and any quality outside [0, 1]
        self.mass = np.stack([w.mass(t) for w in self.weights])
        # after mass(), which refuses a custom weight first
        self.is_plain = np.array([not _NAMED_WEIGHTS[w.kind].gapped for w in self.weights])
        self.plain = self.mass[self.is_plain]
        self.gapped = self.mass[~self.is_plain]
        first = np.ones(t.shape, dtype=bool)
        first[:, 1:] = t[:, 1:] != t[:, :-1]
        # pairs of equal quality carry no weight: for Kendall only items
        # before an item's tie group count as lower
        self.start = np.maximum.accumulate(np.where(first, np.arange(t.shape[1]), 0), axis=-1)
        self.tied = np.flatnonzero(~first.all(axis=-1))
        self.group = np.cumsum(first[self.tied], axis=-1) - 1 if self.tied.size else None
        # lower[k, m, i] = sum over j < i of (t_i - t_j) P_j, built from the
        # gaps between neighbours so that no term is negative
        lower = np.zeros(self.gapped.shape)
        np.cumsum(np.cumsum(self.gapped[..., :-1], axis=-1) * np.diff(t), axis=-1, out=lower[..., 1:])
        den = np.empty((len(self.weights), len(t)))
        den[self.is_plain] = (self.plain * self.start).sum(axis=-1)
        den[~self.is_plain] = (self.gapped * lower).sum(axis=-1)
        self.denominators = den
        self.subnormal = ~self.is_plain[:, None] & (den < _SUBNORMAL_TOTAL)

    def values(self, scores: np.ndarray) -> list[list[float]]:
        """One objective per weight for each row of ``(K, n)`` scores, in
        the markets of the last :meth:`rebuild`; score ties contribute zero."""
        scores = np.take_along_axis(scores, self.order, -1)
        ranks = _dense_ranks(scores)
        A, B = _signed_dominance(ranks, self.theta, self.plain, self.gapped)
        if self.group is not None and A.size:
            # the positional pass also counted earlier members of each
            # item's own tie group; those are exactly the pairs that rank
            # before the item under the key (group, rank) minus the
            # items of earlier groups
            rows = self.tied if len(self.theta) > 1 else slice(None)
            key = self.group * (int(ranks.max()) + 1) + ranks[rows]
            ones = np.ones((1, *key.shape))
            same = _signed_dominance(key, self.theta[self.tied], ones, ones[:0])[0][0]
            A[:, rows] -= self.plain[:, self.tied] * (same - self.start[self.tied])
        num = np.empty((len(self.weights), len(scores)))
        num[self.is_plain] = A.sum(axis=-1)
        num[~self.is_plain] = (self.gapped * B).sum(axis=-1)
        values = np.full(num.shape, math.nan)
        np.divide(num, self.denominators, out=values, where=self.denominators != 0)
        if self.subnormal.any():
            theta = np.broadcast_to(self.theta, scores.shape)
            mass = np.broadcast_to(self.mass, (len(self.weights), *scores.shape))
            for j, m in zip(*np.nonzero(np.broadcast_to(self.subnormal, num.shape))):
                values[j, m] = _written_out(self.weights[j], theta[m], scores[m], mass[j, m])
        return values.T.tolist()


def empirical_objective(state: MarketState, w: WeightSpec) -> float:
    """Weighted fraction of correctly ordered pairs minus incorrectly
    ordered ones; score ties contribute zero.  Named weight kinds only, and
    every quality within [0, 1]."""
    if state.theta.size < 2:
        raise ValueError("need at least two items")
    objective = _RankObjective((w,))
    objective.rebuild(state.theta[None])
    return objective.values(state.scores()[None])[0][0]


@dataclass(frozen=True)
class SimResult:
    """Recorded objective series: one row per (replicate, step, metric)."""

    metrics: tuple[str, ...]
    record_steps: tuple[int, ...]
    replicates: int
    rows: tuple[tuple[int, int, str, float], ...]

    @functools.cached_property
    def _series(self) -> dict[tuple[str, int], list[float]]:
        """The values of each (metric, step), in replicate order."""
        series: dict[tuple[str, int], list[float]] = {}
        for _, k, metric, value in self.rows:
            series.setdefault((metric, k), []).append(value)
        return series

    def values(self, metric: str, k: int) -> np.ndarray:
        """Per-replicate values of one metric at one recorded step."""
        out = self._series.get((metric, k))
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
        _write_csv(path, ("replicate", "k", "metric", "value"), (
            [rep, k, metric, repr(value)] for rep, k, metric, value in self.rows
        ))

    def summary_to_csv(self, path: str | Path) -> None:
        _write_csv(path, ("k", "metric", "mean", "se", "replicates"), (
            [k, metric, *map(repr, self.mean_se(metric, k)), self.replicates]
            for k in self.record_steps
            for metric in self.metrics
        ))


# records scored in one kernel call hold at most this many items in all
# (a larger market is scored alone): it bounds the kernel's temporaries
_STACK_ITEMS = 1 << 12


def _run_replicate(cfg: SimConfig, rep: int) -> list[tuple[int, int, str, float]]:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(rep,)))
    state = init_market(cfg, rng)
    objective = _RankObjective([normalize_weight(name) for name in cfg.metrics])
    record = set(cfg.record_schedule())
    stack = max(1, _STACK_ITEMS // cfg.n_items)
    rows: list[tuple[int, int, str, float]] = []
    # (step, qualities, scores) of the records not yet scored; qualities
    # are copied after a birth only, so a market without churn is sorted once
    pending: list[tuple[int, np.ndarray, np.ndarray]] = []
    seen_births, theta, built = -1, None, None
    for k in range(1, cfg.steps + 1):
        step_market(state, cfg, rng)
        if k in record:
            if state.births != seen_births:
                theta = state.theta.copy()
                seen_births = state.births
            pending.append((k, theta, state.scores()))
        if pending and (len(pending) == stack or k == cfg.steps):
            thetas = [snapshot for _, snapshot, _ in pending]
            if any(t is not thetas[0] for t in thetas):
                objective.rebuild(np.stack(thetas))
                built = None
            elif built is not thetas[0]:
                objective.rebuild(thetas[0][None])
                built = thetas[0]
            values = objective.values(np.stack([scores for _, _, scores in pending]))
            for (step, _, _), vals in zip(pending, values):
                rows.extend((rep, step, name, v) for name, v in zip(cfg.metrics, vals))
            pending.clear()
    return rows


def run_simulation(cfg: SimConfig, jobs: int = 1) -> SimResult:
    """All replicates of the configured simulation.

    Replicate ``i`` draws from a child stream of the master seed indexed
    by ``i``, so results do not depend on scheduling; with more than one
    job, replicates run in worker processes and are merged by index.
    """
    jobs = _checked_count(jobs, "jobs")
    if jobs == 1 or cfg.replicates == 1:
        chunks = [_run_replicate(cfg, rep) for rep in range(cfg.replicates)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, cfg.replicates)) as pool:
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
    t2, t1 = _checked_levels((t2, t1)).tolist()
    _checked_matching((g1, g2))
    k_max = _checked_count(k_max, "k_max", 2)
    reps = _checked_count(reps, "reps", 1000)
    seed = _checked_count(seed, "seed", 0)
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
