import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from ratecraft.core import _NAMED_WEIGHTS, normalize_weight
from ratecraft.partition import (
    MAX_GRID,
    Partition,
    _mass_tiles,
    asymptotic_value,
    equispaced_partition,
    interval_mass,
    optimize_partition,
    within_mass,
)

NAMED = ("kendall", "spearman", "top", "bottom", "extremes")


# (M, G): grids below one 32-column tile, grids that are not a multiple of
# it, and M == G, where every interval is one cell
SMALL_AND_RAGGED = ((5, 5), (2, 2), (3, 31), (7, 33), (17, 257), (31, 31))


def custom_weight():
    return normalize_weight("custom", raw=lambda a, b: (a - b) * (1 + a * b))


def quad_interval_mass(w, a, b):
    total, _ = dblquad(
        lambda t2, t1: w(t1, t2), a, b, lambda t1: a, lambda t1: t1,
        epsabs=1e-11,
    )
    return total


def enumerate_best(w, M, G):
    """Exhaustive search over all breakpoint placements on the G-grid."""
    table = {}
    for i in range(G + 1):
        for j in range(i + 1, G + 1):
            table[(i, j)] = interval_mass(w, i / G, j / G)
    best_cost = None
    best = None
    for combo in itertools.combinations(range(1, G), M - 1):
        bounds = (0, *combo, G)
        cost = sum(table[(a, b)] for a, b in zip(bounds, bounds[1:]))
        if best_cost is None or cost < best_cost - 1e-15:
            best_cost = cost
            best = bounds
    return best, best_cost


def dense_dp(w, M, G):
    """Breakpoints from a plain min-plus DP over the dense (G+1)^2 mass table.

    Shares only the grid mass evaluation with ``optimize_partition``; ties
    go to the first index, as there.
    """
    T = np.full((G + 1, G + 1), np.inf)
    for a in range(G):
        T[a, a + 1 :] = w._grid_mass(G, a, np.arange(a + 1, G + 1))
    cost = [T[:, G]]  # cost[j - 1][a]: best split of [a/G, 1] into j intervals
    for _ in range(2, M + 1):
        cost.append(np.min(T + cost[-1][None, :], axis=1))
    bounds = [0]
    for j in range(M, 1, -1):
        bounds.append(int(np.argmin(T[bounds[-1]] + cost[j - 2])))
    bounds.append(G)
    return tuple(b / G for b in bounds)


class TestPartitionType:
    def test_validates_span(self):
        with pytest.raises(ValueError):
            Partition((0.1, 0.5, 1.0))
        with pytest.raises(ValueError):
            Partition((0.0, 0.5, 0.9))

    def test_validates_order(self):
        with pytest.raises(ValueError):
            Partition((0.0, 0.6, 0.4, 1.0))

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Partition((0.0, bad, 1.0))

    def test_equispaced(self):
        assert equispaced_partition(4).s == (0.0, 0.25, 0.5, 0.75, 1.0)
        with pytest.raises(ValueError):
            equispaced_partition(0)


class TestIntervalMass:
    @pytest.mark.parametrize("kind", NAMED)
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.1, 0.4), (0.55, 0.9)])
    def test_analytic_matches_adaptive_quadrature(self, kind, a, b):
        w = normalize_weight(kind)
        assert interval_mass(w, a, b) == pytest.approx(
            quad_interval_mass(w, a, b), abs=1e-9
        )

    @pytest.mark.parametrize("kind", NAMED)
    def test_full_interval_mass_is_one(self, kind):
        w = normalize_weight(kind)
        assert interval_mass(w, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_custom_quadrature_route(self):
        w = normalize_weight("custom", raw=lambda a, b: (a - b) ** 2)
        assert interval_mass(w, 0.2, 0.7) == pytest.approx(
            quad_interval_mass(w, 0.2, 0.7), abs=1e-5
        )

    def test_empty_interval_rejected(self):
        w = normalize_weight("kendall")
        with pytest.raises(ValueError):
            interval_mass(w, 0.3, 0.3)

    def test_within_mass_equispaced_kendall(self):
        w = normalize_weight("kendall")
        for M in (2, 4, 10):
            assert within_mass(w, equispaced_partition(M)) == pytest.approx(
                1.0 / M, abs=1e-12
            )

    def test_asymptotic_value_examples(self):
        w = normalize_weight("kendall")
        assert asymptotic_value(w, equispaced_partition(4)) == pytest.approx(
            0.75, abs=1e-12
        )
        assert asymptotic_value(w, equispaced_partition(200)) == pytest.approx(
            0.995, abs=1e-12
        )


class TestOptimizePartition:
    @pytest.mark.parametrize("kind", ("kendall", "spearman"))
    @pytest.mark.parametrize("M", (2, 5, 17))
    def test_rank_kinds_come_out_equispaced(self, kind, M):
        part = optimize_partition(normalize_weight(kind), M)
        assert part.s == equispaced_partition(M).s

    def test_dp_route_agrees_with_shortcut_for_kendall(self):
        part = optimize_partition(normalize_weight("kendall"), 4, grid=60, method="dp")
        assert part.s == pytest.approx(equispaced_partition(4).s, abs=1e-12)

    @pytest.mark.parametrize("kind", NAMED)
    def test_matches_exhaustive_enumeration_small(self, kind):
        w = normalize_weight(kind)
        G = 24
        for M in (2, 3):
            part = optimize_partition(w, M, grid=G, method="dp")
            best, best_cost = enumerate_best(w, M, G)
            got = tuple(round(v * G) for v in part.s)
            assert within_mass(w, part) == pytest.approx(best_cost, abs=1e-13)
            assert got == best
            assert dense_dp(w, M, G) == part.s

    @pytest.mark.parametrize("kind,M,G", [("kendall", 3, 4), ("spearman", 3, 8)])
    def test_exact_ties_take_smallest_breakpoints(self, kind, M, G):
        # on a dyadic grid the tied costs are exactly equal in floating point
        w = normalize_weight(kind)
        part = optimize_partition(w, M, grid=G, method="dp")
        best, _ = enumerate_best(w, M, G)
        assert tuple(round(v * G) for v in part.s) == best
        assert dense_dp(w, M, G) == part.s

    @pytest.mark.parametrize(
        "w,M,G",
        [
            *((normalize_weight(k), 200, 1000) for k in ("top", "bottom", "extremes")),
            (normalize_weight("custom", raw=lambda a, b: (a - b) * (1 + a * b)), 20, 400),
            *(
                (normalize_weight(k), M, G)
                for k in ("top", "bottom", "extremes")
                for M, G in SMALL_AND_RAGGED
            ),
            (custom_weight(), 5, 120),
            (custom_weight(), 3, 120),
        ],
        ids=(
            "top",
            "bottom",
            "extremes",
            "custom",
            *(
                f"{k}-{M}-{G}"
                for k in ("top", "bottom", "extremes")
                for M, G in SMALL_AND_RAGGED
            ),
            "custom-5-120",
            "custom-3-120",
        ),
    )
    def test_matches_dense_dp_oracle(self, w, M, G):
        assert optimize_partition(w, M, grid=G, method="dp").s == dense_dp(w, M, G)

    @pytest.mark.parametrize(
        "kind,M,G",
        [
            ("kendall", 8, 64),
            ("spearman", 4, 128),
            # tied optimal breakpoints on both sides of a tile boundary
            # (32 | 33 and 64 | 65); taking the last tied tile changes these
            ("kendall", 2, 65),
            ("kendall", 3, 97),
            # dyadic grids, so the ties are exact, on which the tile with
            # the least bound is not the first tile reaching a row's
            # minimum; letting the least-bound tile win ties changes these
            ("kendall", 15, 128),
            ("spearman", 15, 128),
            ("spearman", 21, 128),
            ("kendall", 21, 256),
        ],
    )
    def test_exact_ties_across_tiles(self, kind, M, G):
        w = normalize_weight(kind)
        assert optimize_partition(w, M, grid=G, method="dp").s == dense_dp(w, M, G)

    @given(
        kind=st.sampled_from((*NAMED, "custom")),
        M=st.integers(2, 12),
        G=st.integers(2, 300),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_dp_property(self, kind, M, G):
        G = max(G, M)
        w = custom_weight() if kind == "custom" else normalize_weight(kind)
        assert optimize_partition(w, M, grid=G, method="dp").s == dense_dp(w, M, G)

    @pytest.mark.parametrize("kind", NAMED)
    def test_sweep_makes_no_nan(self, kind):
        # inf - inf would give a NaN, which argmin would pick without a word
        with np.errstate(invalid="raise"):
            part = optimize_partition(normalize_weight(kind), 200, 1000, method="dp")
        assert part.M == 200

    def test_rejects_weight_not_finite_on_grid(self):
        # finite where normalize_weight samples it at grid 1000, NaN on the
        # strict-lower midpoints of row 25 at grid 50
        w = normalize_weight("custom", raw=lambda a, b: np.where(a == 0.51, np.nan, a - b))
        with pytest.raises(ValueError, match="finite"):
            optimize_partition(w, 3, grid=50)

    def test_memory_at_grid_limit(self):
        # measured peak 74.6 MiB (78.2 MB): the tiled table, the per-tile
        # minima and one layer's bounds; the limit allows 10% more
        w = normalize_weight("bottom")
        tracemalloc.start()
        try:
            optimize_partition(w, 3, grid=MAX_GRID)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 82 * 2**20

    def test_mass_table_memory_stays_triangular(self):
        # a dense (G+1)^2 table plus a same-size temporary peaks near 17 MiB
        w = normalize_weight("extremes")
        tracemalloc.start()
        try:
            optimize_partition(w, 200, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_bottom_partition_shifts_left(self):
        part = optimize_partition(normalize_weight("bottom"), 3, grid=300)
        assert part.s[1] < 1 / 3
        assert part.s[2] < 2 / 3

    def test_custom_raw_reproduces_named_partition(self):
        spearman_like = normalize_weight("custom", raw=lambda a, b: a - b)
        part = optimize_partition(spearman_like, 3, grid=120, method="dp")
        named = optimize_partition(
            normalize_weight("spearman"), 3, grid=120, method="dp"
        )
        assert part.s == pytest.approx(named.s, abs=1.0 / 120 + 1e-12)

    def test_more_intervals_never_increase_within_mass(self):
        w = normalize_weight("extremes")
        costs = [
            within_mass(w, optimize_partition(w, M, grid=150, method="dp"))
            for M in (2, 3, 4, 6)
        ]
        assert all(b <= a + 1e-13 for a, b in zip(costs, costs[1:]))

    # the least within mass of M intervals is about C (int P^(2/3))^3 / (6 M^2),
    # the quantizer argument of Panter and Dite: 1.08 / M^2 for top and
    # 0.5510 / M^2 for extremes.  On the G=4000 grid the relative gap is
    # -0.085 / M for top and -0.21 / M for extremes at M = 10 to 50.
    @pytest.mark.parametrize("kind, integral, bar", [
        pytest.param("top", 3.0 / 5.0, 0.1, id="top"),
        pytest.param("extremes", 6.0 / 7.0 * 2.0 ** (-7.0 / 3.0), 0.25, id="extremes"),
    ])
    @pytest.mark.parametrize("M", (10, 30))
    def test_within_mass_meets_its_asymptote(self, kind, integral, bar, M):
        w = normalize_weight(kind)
        asymptote = _NAMED_WEIGHTS[kind].constant * integral**3 / (6.0 * M * M)
        gap = within_mass(w, optimize_partition(w, M, grid=4000)) / asymptote - 1.0
        assert abs(gap) < bar / M

    def test_grid_limit_checked_before_allocating(self):
        w = normalize_weight("bottom")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(MAX_GRID)):
                optimize_partition(w, 3, grid=MAX_GRID + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # the equispaced shortcut never builds the table
        assert optimize_partition(normalize_weight("kendall"), 3, grid=MAX_GRID + 1).M == 3

    def test_grid_must_fit_interval_count(self):
        with pytest.raises(ValueError):
            optimize_partition(normalize_weight("kendall"), 10, grid=5, method="dp")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            optimize_partition(normalize_weight("kendall"), 3, method="annealing")


# the custom weights the dense-oracle cases above solve
CUSTOM_RAWS = {
    "(a-b)(1+ab)": lambda a, b: (a - b) * (1 + a * b),
    "(a-b)^2": lambda a, b: (a - b) ** 2,
    "a-b": lambda a, b: a - b,
}


class CountingRaw:
    """A raw weight that counts its points and is never asked about
    theta1 < theta2."""

    def __init__(self, raw):
        self.raw = raw
        self.points = 0

    def __call__(self, a, b):
        assert np.all(a >= b)
        self.points += np.broadcast(a, b).size
        return self.raw(a, b)


class TestCustomMassTable:
    def test_raw_evaluated_once_per_cell_below_the_diagonal(self):
        G = 1000
        raw = CountingRaw(CUSTOM_RAWS["(a-b)(1+ab)"])
        w = normalize_weight("custom", raw=raw, grid=G)
        part = optimize_partition(w, 20, G)
        within_mass(w, part, G)
        assert raw.points <= G * (G + 1) // 2

    def test_within_mass_is_the_dp_cost(self):
        w, M, G = custom_weight(), 20, 400
        part = optimize_partition(w, M, G)
        oracle = dense_dp(w, M, G)
        assert part.s == oracle
        bounds = [round(v * G) for v in oracle]
        cost = sum(float(w._grid_mass(G, a, np.array([b]))[0]) for a, b in zip(bounds, bounds[1:]))
        assert within_mass(w, part, G) == pytest.approx(cost, rel=1e-14, abs=0.0)
        for a, b in zip(bounds, bounds[1:]):
            assert interval_mass(w, a / G, b / G, G) == w._grid_mass(G, a, np.array([b]))[0]

    def test_weight_undefined_above_the_diagonal(self):
        with np.errstate(invalid="raise"):
            w = normalize_weight("custom", raw=lambda a, b: np.sqrt(a - b))
            part = optimize_partition(w, 3, 60)
        assert part.M == 3

    @pytest.mark.parametrize("raw", CUSTOM_RAWS.values(), ids=CUSTOM_RAWS)
    def test_table_rows_never_decrease(self, raw):
        for G in (120, 400):
            w = normalize_weight("custom", raw=raw, grid=G)
            for a in range(G + 1):
                assert (np.diff(w._grid_mass(G, a, np.arange(a, G + 1))) >= 0.0).all()

    def test_interval_ends_must_lie_on_the_grid(self):
        w = custom_weight()
        assert interval_mass(w, 0.2, 0.7, grid=1000) > 0.0
        with pytest.raises(ValueError, match="grid of 1000"):
            interval_mass(w, 0.2, 0.7005, grid=1000)
        with pytest.raises(ValueError, match="grid of 400"):
            within_mass(w, (0.0, 0.3333, 1.0), grid=400)

    def test_dp_memory(self):
        # measured peak 5.13 MiB: the tiled table, the per-tile minima and
        # one layer's bounds, read from the mass table normalize_weight
        # kept; the limit allows 10% more
        w = custom_weight()
        tracemalloc.start()
        try:
            optimize_partition(w, 20, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5.65 * 2**20

    def test_table_memory_stays_triangular(self):
        # measured 64.05 MiB held: the (G+1)(G+2)/2 floats of the packed
        # table, where a square table held 128 MiB; the limit allows 10% more
        tracemalloc.start()
        try:
            w = normalize_weight("custom", raw=CUSTOM_RAWS["(a-b)(1+ab)"], grid=MAX_GRID)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.quadrature_integral(MAX_GRID) == pytest.approx(1.0)
        assert held <= 70.5 * 2**20


class TestMassTiles:
    """The band-filled tiles against a table built one row at a time."""

    @pytest.mark.parametrize("G", (2, 5, 31, 32, 33, 64, 257, 1000))
    @pytest.mark.parametrize("kind", (*NAMED, *CUSTOM_RAWS))
    def test_tiles_match_rows(self, kind, G):
        if kind in NAMED:
            w = normalize_weight(kind)
        else:
            w = normalize_weight("custom", raw=CUSTOM_RAWS[kind], grid=G)
        tiles, base, tile_min = _mass_tiles(w, G)
        n_cols = -(-G // 32)
        # T[a, b - 1] for b = 1 .. 32 * n_cols, +inf off the triangle
        T = np.full((G, 32 * n_cols), np.inf)
        for a in range(G):
            T[a, a:G] = w._grid_mass(G, a, np.arange(a + 1, G + 1))
        by_tile = T.reshape(G, n_cols, 32)
        assert len(tiles) == sum(n_cols - a // 32 for a in range(G))
        for a in range(G):
            kept = range(a // 32, n_cols)
            assert np.array_equal(tiles[[base[a] + t for t in kept]], by_tile[a, a // 32 :])
        expected_min = by_tile.min(axis=2)
        expected_min[np.arange(n_cols) < np.arange(G)[:, None] // 32] = np.inf
        assert np.array_equal(tile_min, expected_min)


_RAW = CUSTOM_RAWS["(a-b)(1+ab)"]


@pytest.mark.parametrize("call", [
    lambda: normalize_weight("custom", _RAW, 0),
    lambda: normalize_weight("custom", _RAW, 2.5),
    lambda: normalize_weight("custom", _RAW, -3),
    lambda: normalize_weight("custom", _RAW, True),
    lambda: interval_mass(custom_weight(), 0.0, 0.5, 0),
    lambda: interval_mass(custom_weight(), 0.0, 0.5, True),
    lambda: custom_weight().quadrature_integral(2.5),
    lambda: optimize_partition(normalize_weight("top"), 2, 2.5),
    lambda: optimize_partition(normalize_weight("top"), 2, -3),
    lambda: optimize_partition(custom_weight(), 2, False),
], ids=[
    "normalize-0", "normalize-2.5", "normalize--3", "normalize-True",
    "interval-0", "interval-True", "quadrature-2.5",
    "dp-2.5", "dp--3", "dp-False",
])
def test_grid_must_be_an_integer_of_at_least_1(call):
    with pytest.raises(ValueError, match=r"^grid must be an integer of at least 1, got "):
        call()


def test_grid_may_be_a_numpy_integer():
    w = custom_weight()
    assert interval_mass(w, 0.0, 0.5, np.int64(1000)) == interval_mass(w, 0.0, 0.5, 1000)
    top = normalize_weight("top")
    assert optimize_partition(top, 3, np.int64(60)) == optimize_partition(top, 3, 60)
