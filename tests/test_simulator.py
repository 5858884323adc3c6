"""Simulator behavior: market dynamics, bookkeeping, recorded output,
and the Monte Carlo pair-error rate fit."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratecraft import (
    MarketState,
    SimConfig,
    StepBeta,
    empirical_objective,
    estimate_pk_rate,
    init_market,
    nested_bisection,
    normalize_weight,
    run_simulation,
    step_market,
)
from ratecraft.simulator import _STACK_ITEMS, _RankObjective, _rank_order, _signed_dominance

FLAT = StepBeta((0.0, 1.0), (0.5,))
SPLIT = StepBeta((0.0, 0.5, 1.0), (0.0, 1.0))
GRADED = StepBeta((0.0, 0.3, 0.7, 1.0), (0.2, 0.5, 0.9))
NAMED = ("kendall", "spearman", "top", "bottom", "extremes")


def dense_pair_weights(w, theta):
    """Reference n x n pair weights: w(theta_i, theta_j) where theta_i >
    theta_j, zero elsewhere."""
    t1 = theta[:, None]
    t2 = theta[None, :]
    raw = np.asarray(w.raw(t1, t2), dtype=float) * w.constant
    return np.where(t1 > t2, raw, 0.0)


def dense_objective(theta, scores, w):
    """Reference O(n^2) rank agreement: the pair sum written out."""
    matrix = dense_pair_weights(w, theta)
    sign = np.sign(scores[:, None] - scores[None, :])
    with np.errstate(invalid="ignore"):
        return float((matrix * sign).sum() / matrix.sum())


def replay_state(cfg: SimConfig, rep: int, steps: int) -> MarketState:
    # mirrors the documented replicate protocol: child stream rep of the
    # master seed drives init and every step
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(rep,)))
    state = init_market(cfg, rng)
    for _ in range(steps):
        step_market(state, cfg, rng)
    return state


class TestSimConfig:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="^n_items must be an integer of at least 2, got 1$"):
            SimConfig(design=FLAT, steps=5, n_items=1)
        with pytest.raises(ValueError, match="^n_buyers must be an integer of at least 1, got 0$"):
            SimConfig(design=FLAT, steps=5, n_buyers=0)
        with pytest.raises(ValueError, match="^steps must be an integer of at least 1, got 0$"):
            SimConfig(design=FLAT, steps=0)
        with pytest.raises(ValueError, match="^replicates must be an integer of at least 1, got 0$"):
            SimConfig(design=FLAT, steps=5, replicates=0)

    def test_rejects_bad_death_prob(self):
        with pytest.raises(ValueError):
            SimConfig(design=FLAT, steps=5, death_prob=1.0)
        with pytest.raises(ValueError):
            SimConfig(design=FLAT, steps=5, death_prob=-0.1)

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="matching"):
            SimConfig(design=FLAT, steps=5, matching="quadratic")
        with pytest.raises(ValueError, match="metric"):
            SimConfig(design=FLAT, steps=5, metrics=("kendall", "pearson"))
        with pytest.raises(ValueError, match="metric"):
            SimConfig(design=FLAT, steps=5, metrics=("custom",))
        with pytest.raises(ValueError, match="metric"):
            SimConfig(design=FLAT, steps=5, metrics=())

    def test_rejects_duplicate_metrics(self):
        with pytest.raises(ValueError, match="^duplicate metric 'kendall'$"):
            SimConfig(design=FLAT, steps=5, metrics=("kendall", "top", "kendall"))

    @pytest.mark.parametrize("field, value, message", [
        ("n_items", 10.5, "n_items must be an integer of at least 2, got 10.5"),
        ("n_items", math.nan, "n_items must be an integer of at least 2, got nan"),
        ("n_buyers", 2.5, "n_buyers must be an integer of at least 1, got 2.5"),
        ("n_buyers", True, "n_buyers must be an integer of at least 1, got True"),
        ("steps", 3.5, "steps must be an integer of at least 1, got 3.5"),
        ("replicates", 1.5, "replicates must be an integer of at least 1, got 1.5"),
        ("seed", 1.5, "seed must be an integer of at least 0, got 1.5"),
        ("seed", -1, "seed must be an integer of at least 0, got -1"),
        ("seed", False, "seed must be an integer of at least 0, got False"),
        ("record_at", (2.5,), "record step must be an integer of at least 1, got 2.5"),
        ("record_at", (True, 3), "record step must be an integer of at least 1, got True"),
        ("record_at", (3, "4"), "record step must be an integer of at least 1, got '4'"),
        ("record_at", (0, 10), "record step must be an integer of at least 1, got 0"),
    ])
    def test_rejects_counts_that_are_not_integers(self, field, value, message):
        with pytest.raises(ValueError) as err:
            SimConfig(**{"design": FLAT, "steps": 5, field: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("field", ["n_items", "n_buyers", "steps", "replicates"])
    def test_rejects_counts_beyond_int64(self, field):
        # only the constructor runs: a config this large is never simulated
        with pytest.raises(ValueError) as err:
            SimConfig(**{"design": FLAT, "steps": 5, field: 2**63})
        assert str(err.value) == f"{field} must be an integer of at most {2**63 - 1}, got {2**63}"
        cfg = SimConfig(**{"design": FLAT, "steps": 5, field: 2**63 - 1})
        assert getattr(cfg, field) == 2**63 - 1

    def test_numpy_integer_counts_accepted(self):
        cfg = SimConfig(design=FLAT, steps=np.int64(5), n_items=np.int64(10), seed=np.uint32(3),
                        record_at=(np.int64(4), 2, 4))
        assert cfg.record_at == (2, 4) and all(type(k) is int for k in cfg.record_at)

    def test_record_at_sorted_and_deduplicated(self):
        cfg = SimConfig(design=FLAT, steps=50, record_at=(30, 10, 10, 50))
        assert cfg.record_at == (10, 30, 50)
        assert cfg.record_schedule() == (10, 30, 50)

    def test_record_at_must_lie_in_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(design=FLAT, steps=50, record_at=(0, 10))
        with pytest.raises(ValueError):
            SimConfig(design=FLAT, steps=50, record_at=(51,))

    def test_default_schedule_short_run(self):
        assert SimConfig(design=FLAT, steps=37).record_schedule() == tuple(range(1, 38))

    def test_default_schedule_dense_then_sparse(self):
        ks = SimConfig(design=FLAT, steps=105).record_schedule()
        assert ks == tuple(range(1, 101)) + (105,)

    def test_default_schedule_no_duplicate_final(self):
        ks = SimConfig(design=FLAT, steps=1000).record_schedule()
        assert ks[:100] == tuple(range(1, 101))
        assert ks[100:] == tuple(range(110, 1001, 10))
        assert len(set(ks)) == len(ks)

    @given(steps=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_default_schedule_properties(self, steps):
        ks = SimConfig(design=FLAT, steps=steps).record_schedule()
        assert ks[0] == 1 and ks[-1] == steps
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_design_must_return_matching_shape(self):
        cfg = SimConfig(design=lambda th: 0.5, steps=5)
        with pytest.raises(ValueError, match="one probability per quality"):
            cfg.design_probability(np.array([0.2, 0.8]))

    def test_design_must_return_probabilities(self):
        cfg = SimConfig(design=lambda th: np.asarray(th) + 1.0, steps=5)
        with pytest.raises(ValueError, match="within"):
            cfg.design_probability(np.array([0.2, 0.8]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_design_must_return_finite_probabilities(self, bad):
        cfg = SimConfig(design=lambda th: np.where(np.asarray(th) > 0.5, bad, 0.5), steps=5)
        with pytest.raises(ValueError, match="within"):
            cfg.design_probability(np.array([0.2, 0.8]))


class TestMarketDynamics:
    def test_init_market_deterministic(self):
        cfg = SimConfig(design=FLAT, steps=5, n_items=40, seed=9)
        a = init_market(cfg, 123)
        b = init_market(cfg, 123)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.ids, np.arange(40))
        assert a.totals.sum() == 0 and a.positives.sum() == 0
        assert a.next_id == 40

    def test_init_market_consumes_generator(self):
        cfg = SimConfig(design=FLAT, steps=5, n_items=10)
        rng = np.random.default_rng(0)
        a = init_market(cfg, rng)
        b = init_market(cfg, rng)
        assert not np.array_equal(a.theta, b.theta)

    def test_ratings_conserved_without_death(self):
        cfg = SimConfig(design=FLAT, steps=5, n_items=30, n_buyers=17, seed=2)
        rng = np.random.default_rng(0)
        state = init_market(cfg, rng)
        for s in range(1, 13):
            step_market(state, cfg, rng)
            assert state.totals.sum() == s * 17
            assert np.all(state.positives <= state.totals)
        assert state.births == 0
        assert np.array_equal(state.ids, np.arange(30))

    def test_split_design_scores_reveal_side(self):
        # probability 0 below the midpoint, 1 above: any rated item's
        # score lands exactly on its own side
        cfg = SimConfig(design=SPLIT, steps=200, n_items=10, n_buyers=20, seed=5)
        state = replay_state(cfg, 0, 200)
        assert np.all(state.totals > 0)
        scores = state.scores()
        assert set(np.unique(scores)) <= {0.0, 1.0}
        assert np.array_equal(scores == 1.0, state.theta >= 0.5)

    def test_churn_replaces_counts_and_ids(self):
        cfg = SimConfig(design=FLAT, steps=1, n_items=50, n_buyers=30,
                        death_prob=0.6, seed=4)
        rng = np.random.default_rng(8)
        state = init_market(cfg, rng)
        step_market(state, cfg, rng)
        fresh = state.ids >= 50
        assert fresh.any() and not fresh.all()
        assert state.births == int(fresh.sum())
        assert state.next_id == 50 + state.births
        assert np.all(state.totals[fresh] == 0)
        assert np.all(state.positives[fresh] == 0)
        assert np.all((state.theta >= 0.0) & (state.theta < 1.0))
        assert np.array_equal(state.prob, cfg.design_probability(state.theta))
        # survivors keep their original ids and counts
        assert state.totals[~fresh].sum() + state.totals[fresh].sum() <= 30

    def test_uniform_matching_spreads_evenly(self):
        # demand concentration: every item's match count within 3 sigma of
        # the uniform expectation over a long run
        cfg = SimConfig(design=FLAT, steps=10_000, n_items=50, n_buyers=20, seed=3)
        state = replay_state(cfg, 0, cfg.steps)
        total = cfg.n_buyers * cfg.steps
        expected = total / cfg.n_items
        sigma = math.sqrt(total * (1 / cfg.n_items) * (1 - 1 / cfg.n_items))
        assert np.abs(state.totals - expected).max() <= 3.0 * sigma


# largest denominators below 2**20 and their neighbouring fractions:
# 524286/1048573 and 524287/1048575 differ by 1/(1048573 * 1048575)
NEAR = 2**20 - 1


def market_of(positives, totals, ids) -> MarketState:
    n = len(totals)
    ids = np.asarray(ids, dtype=np.int64)
    return MarketState(
        theta=np.linspace(0.0, 1.0, n),
        prob=np.full(n, 0.5),
        positives=np.asarray(positives, dtype=np.int64),
        totals=np.asarray(totals, dtype=np.int64),
        ids=ids,
        next_id=int(ids.max()) + 1,
    )


@st.composite
def rank_markets(draw):
    n = draw(st.integers(2, 30))
    top = draw(st.sampled_from([1, 4, 60, NEAR, 2**20, 2**21]))
    total = st.one_of(st.just(0), st.integers(max(0, top - 4), top), st.integers(0, top))
    totals = draw(st.lists(total, min_size=n, max_size=n))
    positives = [draw(st.sampled_from([0, t // 2, t, (t + 1) // 2]) | st.integers(0, t)) for t in totals]
    base = draw(st.sampled_from([0, 2**40, 2**61]))
    ids = draw(st.lists(st.integers(0, 3 * n), min_size=n, max_size=n, unique=True))
    ids = [base + i for i in ids]
    if draw(st.booleans()):
        # one old item far below the rest spreads the ages over 2**61
        ids[draw(st.integers(0, n - 1))] = 0
    return market_of(positives, totals, ids)


class TestRankOrder:
    @given(market=rank_markets())
    # zero totals; equal fractions 1/2 = 2/4 = 3/6 and 1/3 = 2/6;
    # neighbouring fractions whose denominators are near 2**20; ids near
    # 2**61; then markets whose key does not fit in 63 bits (a total of
    # 2**20, and ids spread over 2**61)
    @example(market=market_of([0, 0, 0], [0, 0, 0], [2, 0, 1]))
    @example(market=market_of([1, 2, 3, 1, 2, 0], [2, 4, 6, 3, 6, 0], [0, 1, 2, 3, 4, 5]))
    @example(market=market_of([524287, 524286, 524287, 1], [NEAR, NEAR - 2, NEAR, 2], [3, 1, 0, 2]))
    @example(market=market_of([5, 5, 0, 1], [9, 9, 0, 1], [2**61 + k for k in (7, 3, 5, 1)]))
    @example(market=market_of([524288, 524287, 1, 0], [2**20, NEAR, 2, 0], [0, 1, 2, 3]))
    @example(market=market_of([1, 1, 0], [2, 2, 0], [0, 2**61, 5]))
    @settings(max_examples=200, deadline=None)
    def test_matches_lexsort(self, market):
        expect = np.lexsort((-market.ids, market.scores()))
        assert np.array_equal(_rank_order(market), expect)


class TestEmpiricalObjective:
    @staticmethod
    def state_with(theta, positives, totals):
        theta = np.asarray(theta, dtype=float)
        return MarketState(
            theta=theta,
            prob=np.full(theta.size, 0.5),
            positives=np.asarray(positives, dtype=np.int64),
            totals=np.asarray(totals, dtype=np.int64),
            ids=np.arange(theta.size, dtype=np.int64),
            next_id=theta.size,
        )

    def test_perfect_order_scores_one(self):
        state = self.state_with([0.1, 0.4, 0.9], [1, 5, 8], [5, 10, 10])
        assert empirical_objective(state, normalize_weight("kendall")) == pytest.approx(1.0)

    def test_reversed_order_scores_minus_one(self):
        state = self.state_with([0.1, 0.4, 0.9], [8, 5, 1], [10, 10, 5])
        assert empirical_objective(state, normalize_weight("kendall")) == pytest.approx(-1.0)

    def test_unrated_market_scores_zero(self):
        state = self.state_with([0.2, 0.5, 0.8], [0, 0, 0], [0, 0, 0])
        assert empirical_objective(state, normalize_weight("kendall")) == 0.0

    def test_single_inversion_kendall(self):
        # two of three pairs correct: (2 - 1) / 3
        state = self.state_with([0.1, 0.4, 0.9], [5, 2, 8], [10, 10, 10])
        assert empirical_objective(state, normalize_weight("kendall")) == pytest.approx(1.0 / 3.0)

    def test_weighted_value_matches_hand_sum(self):
        theta = np.array([0.15, 0.35, 0.8])
        scores = np.array([0.3, 0.1, 0.9])
        state = self.state_with(theta, (scores * 10).astype(int), [10, 10, 10])
        w = normalize_weight("bottom")
        num = den = 0.0
        for i in range(3):
            for j in range(3):
                if theta[i] > theta[j]:
                    wij = float(w.raw(theta[i], theta[j])) * w.constant
                    den += wij
                    num += wij * np.sign(scores[i] - scores[j])
        assert empirical_objective(state, w) == pytest.approx(num / den, rel=1e-12)

    def test_needs_two_items(self):
        state = self.state_with([0.5], [1], [2])
        with pytest.raises(ValueError, match="two items"):
            empirical_objective(state, normalize_weight("kendall"))

    def test_rejects_custom_weight(self):
        state = self.state_with([0.1, 0.4, 0.9], [1, 5, 8], [5, 10, 10])
        w = normalize_weight("custom", raw=lambda a, b: (a - b) * (1 + a * b))
        with pytest.raises(ValueError, match="separable"):
            empirical_objective(state, w)

    @staticmethod
    @st.composite
    def markets(draw):
        # few distinct qualities force quality ties, few ratings per item
        # force score ties, and zero totals leave items unrated
        n = draw(st.integers(min_value=2, max_value=200))
        distinct = draw(st.integers(min_value=1, max_value=n))
        pool = draw(st.lists(st.floats(0.0, 1.0), min_size=distinct, max_size=distinct))
        picks = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
        totals = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        positives = [draw(st.integers(0, t)) for t in totals]
        return np.asarray(pool)[picks], positives, totals

    @given(market=markets())
    # a tiny quality below a tie group at 1, tiny tied qualities below a
    # rated item and qualities one ulp apart lose the answer to
    # cancellation in a factor form F(a) G(b); in the last market every
    # pair weight underflows to zero
    @example(market=(np.array([1.0] * 22 + [1.17549435e-38]), [0] * 22 + [1], [0] * 22 + [1]))
    @example(market=(np.array([1e-12] * 3 + [1.0] * 2), [0, 0, 0, 0, 1], [0, 0, 0, 0, 1]))
    @example(market=(np.array([1.0 - 2.0**-53, 1.0, 1.0]), [0, 1, 2], [0, 2, 2]))
    @example(market=(np.array([0.5, 5e-324, 5e-324, 5e-324]), [0, 0, 0, 0], [0, 0, 0, 0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle(self, market):
        state = self.state_with(*market)
        for kind in NAMED:
            w = normalize_weight(kind)
            got = empirical_objective(state, w)
            expect = dense_objective(state.theta, state.scores(), w)
            if math.isnan(expect):
                # no pair of distinct qualities carries weight
                assert math.isnan(got)
            elif kind == "kendall":
                assert got == expect
            else:
                assert abs(got - expect) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.1])
    def test_rejects_quality_outside_unit_interval(self, bad):
        state = self.state_with([0.2, bad, 0.7], [1, 2, 3], [4, 4, 4])
        for kind in NAMED:
            with pytest.raises(ValueError, match=r"within \[0, 1\]"):
                empirical_objective(state, normalize_weight(kind))
        objective = _RankObjective([normalize_weight(kind) for kind in NAMED])
        with pytest.raises(ValueError, match=r"within \[0, 1\]"):
            objective.rebuild(state.theta[None])

    def test_large_market_memory_stays_linear(self):
        # a dense float64 matrix at this size alone is 3.2 GB
        n = 20_000
        rng = np.random.default_rng(4)
        totals = rng.integers(0, 30, n)
        state = self.state_with(rng.random(n), rng.binomial(totals, 0.5), totals)
        w = normalize_weight("extremes")
        tracemalloc.start()
        try:
            value = empirical_objective(state, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert -1.0 <= value <= 1.0
        assert peak <= 16 * 2**20


def snapshots_of(seed, k, n, tied=(), tiny=None, top=3):
    """K recorded snapshots of an n-item market: qualities, tied among a
    few distinct values in the snapshots ``tied``, scaled below 1e-100 in
    snapshot ``tiny`` (where every ``top`` pair weight is so small that
    the written-out sum scores it), and scores from at most ``top``
    ratings per item."""
    rng = np.random.default_rng(seed)
    theta = rng.random((k, n))
    for m in tied:
        theta[m] = rng.choice(rng.random(rng.integers(1, n + 1)), n)
    if tiny is not None:
        theta[tiny] *= 1e-100
    totals = rng.integers(0, top + 1, (k, n))
    scores = np.where(totals > 0, rng.binomial(totals, theta) / np.maximum(totals, 1), 0.0)
    return theta, scores


@st.composite
def snapshots(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(2, 200))
    tied = tuple(sorted(draw(st.sets(st.integers(0, k - 1)))))
    tiny = draw(st.none() | st.integers(0, k - 1)) if k > 1 else None
    top = draw(st.sampled_from([1, 3, 40]))
    return snapshots_of(draw(st.integers(0, 2**32 - 1)), k, n, tied, tiny, top)


def lone_values(weights, theta, scores):
    objective = _RankObjective(weights)
    objective.rebuild(theta[None])
    return objective.values(scores[None])[0]


def replayed_rows(cfg: SimConfig):
    """The run's rows with every record scored alone, one metric at a time."""
    record = set(cfg.record_schedule())
    rows = []
    for rep in range(cfg.replicates):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(rep,)))
        state = init_market(cfg, rng)
        for k in range(1, cfg.steps + 1):
            step_market(state, cfg, rng)
            if k in record:
                rows.extend((rep, k, name, empirical_objective(state, normalize_weight(name)))
                            for name in cfg.metrics)
    return rows


class TestStackedRecords:
    """Several recorded markets scored in one kernel call give what lone
    calls give, bit for bit."""

    WEIGHTS = [normalize_weight(kind) for kind in NAMED]

    # n = 2, n < 16, n just above a power of two and n = 200; quality
    # ties in some snapshots only; a tiny snapshot beside normal ones
    @given(market=snapshots())
    @example(market=snapshots_of(1, 3, 2, tied=(1,)))
    @example(market=snapshots_of(2, 6, 15, tied=(0, 4), tiny=2))
    @example(market=snapshots_of(3, 4, 17, tiny=3, top=1))
    @example(market=snapshots_of(4, 2, 200, tied=(1,), top=40))
    @settings(max_examples=60, deadline=None)
    def test_objective_matches_lone_calls(self, market):
        theta, scores = market
        objective = _RankObjective(self.WEIGHTS)
        objective.rebuild(theta)
        got = objective.values(scores)
        assert repr(got) == repr([lone_values(self.WEIGHTS, t, s) for t, s in zip(theta, scores)])
        # one row of qualities shared by every row of scores
        objective.rebuild(theta[:1])
        got = objective.values(scores)
        assert repr(got) == repr([lone_values(self.WEIGHTS, theta[0], s) for s in scores])

    @given(market=snapshots(), rows=st.sampled_from([(1, 0), (0, 1), (1, 2), (2, 1)]))
    @example(market=snapshots_of(5, 5, 33, tied=(2,)), rows=(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_lone_calls(self, market, rows):
        theta, scores = market
        theta = np.sort(theta, axis=1)
        ranks = (scores * 1000).astype(np.int64)
        ka = rows[0]
        mass = np.random.default_rng(theta.size).random((sum(rows), *theta.shape))
        A, B = _signed_dominance(ranks, theta, mass[:ka], mass[ka:])
        for m in range(len(theta)):
            one = slice(m, m + 1)
            a, b = _signed_dominance(ranks[one], theta[one], mass[:ka, one], mass[ka:, one])
            assert A[:, one].tobytes() == a.tobytes() and B[:, one].tobytes() == b.tobytes()

    def test_tiny_snapshot_takes_written_out_sum(self):
        theta, _ = snapshots_of(2, 6, 15, tied=(0, 4), tiny=2)
        objective = _RankObjective(self.WEIGHTS)
        objective.rebuild(theta)
        assert [tuple(x) for x in np.argwhere(objective.subnormal)] == [(NAMED.index("top"), 2)]

    @pytest.mark.parametrize("n_items, death, steps, record_at", [
        # stacks of three: eight records leave a stack of two
        (_STACK_ITEMS // 3, 0.05, 8, None),
        (_STACK_ITEMS // 3, 0.0, 8, None),
        # above the cap every record is scored alone
        (_STACK_ITEMS + 1, 0.05, 3, None),
        # sparse records, the last step not among them
        (40, 0.05, 30, (2, 3, 9, 28)),
        (40, 0.0, 30, (5, 17, 29)),
    ])
    def test_run_matches_replay(self, n_items, death, steps, record_at):
        cfg = SimConfig(design=GRADED, steps=steps, n_items=n_items, n_buyers=25,
                        death_prob=death, metrics=("kendall", "bottom", "top"), seed=5,
                        replicates=2, record_at=record_at)
        assert repr(run_simulation(cfg).rows) == repr(tuple(replayed_rows(cfg)))

    def test_market_without_churn_sorts_once(self, monkeypatch):
        shapes = []
        rebuild = _RankObjective.rebuild

        def counted(self, theta):
            shapes.append(theta.shape)
            rebuild(self, theta)

        monkeypatch.setattr(_RankObjective, "rebuild", counted)
        n = _STACK_ITEMS // 4
        run_simulation(SimConfig(design=GRADED, steps=50, n_items=n, n_buyers=20, seed=3))
        assert shapes == [(1, n)]

    def test_full_stack_memory(self):
        # one full stack of a 500-item market under two metrics peaked at
        # 1.59 MiB (numpy 2.4); the within-block sign matrices dominate
        theta, scores = snapshots_of(7, _STACK_ITEMS // 500, 500, top=40)
        objective = _RankObjective([normalize_weight("kendall"), normalize_weight("bottom")])
        tracemalloc.start()
        try:
            objective.rebuild(theta)
            objective.values(scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestRunSimulation:
    def test_rows_cover_schedule_and_metrics(self):
        cfg = SimConfig(design=FLAT, steps=12, n_items=8, n_buyers=5, seed=1,
                        replicates=3, metrics=("kendall", "top"))
        res = run_simulation(cfg)
        assert res.record_steps == tuple(range(1, 13))
        assert len(res.rows) == 3 * 12 * 2
        assert res.values("top", 12).shape == (3,)

    def test_repeat_runs_identical(self):
        cfg = SimConfig(design=FLAT, steps=20, n_items=12, n_buyers=6, seed=42,
                        replicates=2, death_prob=0.05)
        assert run_simulation(cfg).rows == run_simulation(cfg).rows

    def test_parallel_matches_serial(self):
        cfg = SimConfig(design=SPLIT, steps=15, n_items=10, n_buyers=6, seed=6,
                        replicates=3, death_prob=0.1)
        assert run_simulation(cfg, jobs=2).rows == run_simulation(cfg, jobs=1).rows

    def test_seeded_rows_pinned(self):
        # sha256 of one seeded run's rows: any change to the random stream
        # or to the rank order moves it
        cfg = SimConfig(design=StepBeta((0.0, 0.3, 0.7, 1.0), (0.2, 0.5, 0.9)),
                        steps=60, n_items=80, n_buyers=30, death_prob=0.05,
                        matching="linear", metrics=("kendall", "bottom"),
                        seed=11, replicates=2)
        rows = run_simulation(cfg).rows
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "abac88ba53099857e4faada2cf9d06f544bceca2ce245e41fd5fa64f1e3948fb"

    @pytest.mark.parametrize("jobs, replicates, workers", [(64, 2, 2), (2, 3, 2)])
    def test_starts_at_most_one_worker_per_replicate(self, monkeypatch, jobs, replicates, workers):
        import concurrent.futures

        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = SimConfig(design=SPLIT, steps=4, n_items=6, n_buyers=3, replicates=replicates)
        rows = run_simulation(cfg, jobs=jobs).rows
        assert started == [workers]
        assert rows == run_simulation(cfg).rows

    def test_jobs_must_be_positive(self):
        cfg = SimConfig(design=FLAT, steps=5)
        with pytest.raises(ValueError, match="jobs"):
            run_simulation(cfg, jobs=0)

    def test_recording_does_not_disturb_dynamics(self):
        base = dict(design=SPLIT, steps=40, n_items=10, n_buyers=8, seed=13,
                    death_prob=0.02)
        sparse = run_simulation(SimConfig(record_at=(40,), **base))
        dense = run_simulation(SimConfig(record_at=(10, 25, 40), **base))
        assert sparse.values("kendall", 40) == dense.values("kendall", 40)

    def test_recorded_value_matches_replay(self):
        cfg = SimConfig(design=SPLIT, steps=40, n_items=10, n_buyers=8, seed=13,
                        record_at=(40,))
        res = run_simulation(cfg)
        state = replay_state(cfg, 0, 40)
        expect = empirical_objective(state, normalize_weight("kendall"))
        assert res.values("kendall", 40)[0] == expect

    def test_every_metric_matches_replay(self):
        # all metrics share one kernel pass per record, and each recorded
        # value still equals a lone replay of its own metric bit for bit
        cfg = SimConfig(design=SPLIT, steps=30, n_items=40, n_buyers=15, seed=21,
                        death_prob=0.05, metrics=NAMED, record_at=(30,))
        res = run_simulation(cfg)
        state = replay_state(cfg, 0, 30)
        for kind in NAMED:
            assert res.values(kind, 30)[0] == empirical_objective(state, normalize_weight(kind))

    def test_flat_design_carries_no_signal(self):
        # constant rating probability: scores are independent of quality,
        # so the rank agreement straddles zero
        cfg = SimConfig(design=FLAT, steps=200, n_items=50, n_buyers=50, seed=7,
                        replicates=16, record_at=(200,))
        mean, se = run_simulation(cfg).mean_se("kendall", 200)
        assert abs(mean) <= 3.0 * se

    def test_step_design_reaches_realized_plateau(self):
        # once scores converge, pairs split by a level boundary are
        # ordered correctly and same-level pairs average out, so the
        # objective settles at the weight mass of the split pairs
        res = nested_bisection(4, (1.0, 1.0, 1.0, 1.0))
        cfg = SimConfig(design=res.beta, steps=1500, n_items=100, n_buyers=100,
                        seed=11, replicates=8, record_at=(1500,))
        sim = run_simulation(cfg)
        w = normalize_weight("kendall")
        diffs = []
        for rep in range(cfg.replicates):
            state = replay_state(cfg, rep, 0)
            matrix = dense_pair_weights(w, state.theta)
            levels = np.asarray(res.beta(state.theta))
            split = levels[:, None] != levels[None, :]
            plateau = float((matrix * split).sum() / matrix.sum())
            diffs.append(float(sim.values("kendall", 1500)[rep]) - plateau)
        d = np.asarray(diffs)
        se = d.std(ddof=1) / math.sqrt(len(d))
        assert abs(d.mean()) <= 2.0 * se


class TestSimResult:
    @pytest.fixture()
    def result(self):
        cfg = SimConfig(design=FLAT, steps=10, n_items=8, n_buyers=5, seed=3,
                        replicates=3, record_at=(5, 10))
        return run_simulation(cfg)

    def test_values_in_replicate_order(self, result):
        vals = result.values("kendall", 10)
        expect = [v for rep, k, m, v in result.rows if k == 10 and m == "kendall"]
        assert list(vals) == expect

    def test_missing_lookup_raises(self, result):
        with pytest.raises(KeyError) as err:
            result.values("kendall", 7)
        assert err.value.args == ("nothing recorded for 'kendall' at step 7",)
        with pytest.raises(KeyError):
            result.values("spearman", 10)

    def test_mean_se(self, result):
        vals = result.values("kendall", 5)
        mean, se = result.mean_se("kendall", 5)
        assert mean == pytest.approx(vals.mean())
        assert se == pytest.approx(vals.std(ddof=1) / math.sqrt(3))

    def test_single_replicate_se_is_nan(self):
        cfg = SimConfig(design=FLAT, steps=5, n_items=8, n_buyers=5, record_at=(5,))
        _, se = run_simulation(cfg).mean_se("kendall", 5)
        assert math.isnan(se)

    def test_to_csv_round_trips(self, result, tmp_path):
        path = tmp_path / "series.csv"
        result.to_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "replicate,k,metric,value"
        assert len(lines) == 1 + len(result.rows)
        rep, k, metric, value = lines[1].split(",")
        assert (int(rep), int(k), metric, float(value)) == result.rows[0]

    def test_summary_csv_layout(self, result, tmp_path):
        path = tmp_path / "summary.csv"
        result.summary_to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,metric,mean,se,replicates"
        assert len(lines) == 1 + len(result.record_steps) * len(result.metrics)
        k, metric, mean, se, reps = lines[1].split(",")
        want_mean, want_se = result.mean_se(metric, int(k))
        assert float(mean) == want_mean and float(se) == want_se
        assert int(reps) == 3


class TestEstimatePkRate:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_pk_rate(0.3, 0.7, 1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_pk_rate(1.2, 0.3, 1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_pk_rate(0.7, 0.3, 0.0, 1.0)
        with pytest.raises(ValueError):
            estimate_pk_rate(0.7, 0.3, 1.0, 1.0, k_max=1)
        with pytest.raises(ValueError):
            estimate_pk_rate(0.7, 0.3, 1.0, 1.0, reps=500)

    def test_instant_separation_is_unresolvable(self):
        # deterministic scores split immediately, leaving no decay to fit
        with pytest.raises(ValueError, match="resolvable"):
            estimate_pk_rate(1.0, 0.0, 1.0, 1.0, reps=2000)

    def test_equal_levels_give_zero_slope(self):
        est = estimate_pk_rate(0.5, 0.5, 1.0, 1.0, k_max=100, reps=20_000, seed=0)
        assert abs(est.slope) < 0.005
        assert est.k_lo == 1 and est.k_hi == 100 and est.n_points == 100

    def test_doubling_intensity_doubles_slope(self):
        base = estimate_pk_rate(0.7, 0.3, 1.0, 1.0, k_max=120, reps=200_000, seed=1)
        dbl = estimate_pk_rate(0.7, 0.3, 2.0, 2.0, k_max=120, reps=200_000, seed=1)
        assert dbl.slope / base.slope == pytest.approx(2.0, rel=0.15)
        assert base.stderr < 0.05 and dbl.stderr < 0.05

    def test_series_covers_horizon(self):
        est = estimate_pk_rate(0.7, 0.3, 1.0, 1.0, k_max=30, reps=5_000, seed=2)
        assert [k for k, _ in est.series] == list(range(1, 31))
        assert est.series[0][1] > est.series[-1][1]
        assert est.k_lo <= est.k_hi

    def test_fractional_intensity_delays_first_rating(self):
        # floor(g k) ratings by time k: nothing to compare until k = 2
        est = estimate_pk_rate(0.7, 0.3, 0.5, 0.5, k_max=40, reps=5_000, seed=2)
        assert est.series[0][0] == 2
