import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratecraft.core import MatchProfile, StepBeta
from ratecraft.rates import (
    adjacent_rates,
    inf_point,
    kl_bernoulli,
    numeric_pairwise_rate,
    overall_rate,
    pair_rates,
    pair_report,
    pairwise_rate,
)

prob_interior = st.floats(0.02, 0.98)
intensity = st.floats(0.1, 5.0)


class TestKl:
    def test_reference_value(self):
        # 0.25 log 0.5 + 0.75 log 1.5, written out from the definition
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert kl_bernoulli(0.25, 0.5) == pytest.approx(expected, abs=1e-15)

    def test_zero_at_equal_arguments(self):
        for p in (0.0, 0.3, 1.0):
            assert kl_bernoulli(p, p) == 0.0

    def test_boundary_observations(self):
        assert kl_bernoulli(0.0, 0.4) == pytest.approx(-math.log(0.6), abs=1e-15)
        assert kl_bernoulli(1.0, 0.4) == pytest.approx(-math.log(0.4), abs=1e-15)

    def test_infinite_against_degenerate_reference(self):
        assert kl_bernoulli(0.5, 0.0) == math.inf
        assert kl_bernoulli(0.5, 1.0) == math.inf
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0

    @given(prob_interior, prob_interior)
    @settings(max_examples=100, deadline=None)
    # the two terms cancel to -4.4e-18 before rounding is clamped
    @example(0.02, 0.020000000000000004)
    def test_nonnegative_and_zero_only_at_match(self, a, t):
        v = kl_bernoulli(a, t)
        assert v >= 0.0
        if abs(a - t) > 1e-9:
            assert v > 0.0


class TestInfPoint:
    def test_symmetric_case_is_midpoint_of_odds(self):
        # c = sqrt(odds(0.1) * odds(0.5)) = sqrt((1/9) * 1) = 1/3
        assert inf_point(0.1, 0.5, 1.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_lies_between_levels(self):
        a = inf_point(0.3, 0.8, 2.0, 0.5)
        assert 0.3 < a < 0.8

    def test_degenerate_levels_pin_to_endpoint(self):
        assert inf_point(0.0, 0.6, 1.0, 1.0) == 0.0
        assert inf_point(0.4, 1.0, 1.0, 1.0) == 1.0

    def test_both_degenerate_is_an_error(self):
        with pytest.raises(ValueError):
            inf_point(0.0, 1.0, 1.0, 1.0)

    @given(prob_interior, prob_interior, intensity, intensity)
    @settings(max_examples=100, deadline=None)
    def test_minimizes_weighted_divergence(self, x, y, g1, g2):
        lo, hi = min(x, y), max(x, y)
        if hi - lo < 1e-3:
            return
        a = inf_point(lo, hi, g1, g2)

        def phi(v):
            return g1 * kl_bernoulli(v, lo) + g2 * kl_bernoulli(v, hi)

        eps = 1e-6
        assert phi(a) <= phi(min(a + eps, 1.0)) + 1e-12
        assert phi(a) <= phi(max(a - eps, 0.0)) + 1e-12


class TestPairwiseRate:
    def test_symmetric_example(self):
        # (sqrt(0.45) + sqrt(0.05))^2 = 0.8 exactly, so the rate is -log 0.8
        assert pairwise_rate(0.1, 0.5, 1.0, 1.0) == pytest.approx(
            -math.log(0.8), abs=1e-12
        )

    def test_weighted_example(self):
        expected = -3.0 * math.log(
            0.75 ** (2 / 3) * 0.25 ** (1 / 3) + 0.25 ** (2 / 3) * 0.75 ** (1 / 3)
        )
        assert pairwise_rate(0.25, 0.75, 2.0, 1.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_matched_levels_give_zero(self):
        assert pairwise_rate(0.4, 0.4, 1.0, 2.0) == 0.0

    def test_boundary_levels(self):
        assert pairwise_rate(0.0, 0.6, 1.0, 3.0) == pytest.approx(
            -3.0 * math.log(0.4), abs=1e-12
        )
        assert pairwise_rate(0.3, 1.0, 2.0, 1.0) == pytest.approx(
            -2.0 * math.log(0.3), abs=1e-12
        )
        assert pairwise_rate(0.0, 1.0, 1.0, 1.0) == math.inf

    def test_rate_equals_divergence_at_crossing_point(self):
        # the exponent is the weighted divergence evaluated at its minimizer
        t_lo, t_hi, g_lo, g_hi = 0.2, 0.7, 1.3, 0.6
        a = inf_point(t_lo, t_hi, g_lo, g_hi)
        phi = g_lo * kl_bernoulli(a, t_lo) + g_hi * kl_bernoulli(a, t_hi)
        assert pairwise_rate(t_lo, t_hi, g_lo, g_hi) == pytest.approx(
            phi, abs=1e-12
        )

    def test_agrees_with_numeric_oracle_on_fixed_batch(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            lo, hi = sorted(rng.uniform(0.01, 0.99, 2))
            if hi - lo < 1e-3:
                continue
            g1, g2 = rng.uniform(0.2, 3.0, 2)
            closed = pairwise_rate(lo, hi, g1, g2)
            numeric = numeric_pairwise_rate(lo, hi, g1, g2)
            assert abs(closed - numeric) < 1e-6

    def test_numeric_oracle_handles_degenerate_levels(self):
        assert numeric_pairwise_rate(0.0, 0.5, 1.0, 1.0) == pytest.approx(
            -math.log(0.5), abs=1e-9
        )

    @pytest.mark.parametrize("grid", (2.5, 10.0, "100", True), ids=repr)
    def test_numeric_oracle_grid_must_be_an_integer(self, grid):
        with pytest.raises(ValueError, match=r"^grid must be an integer of at least 2, got "):
            numeric_pairwise_rate(0.3, 0.7, 1.0, 1.0, grid)

    def test_numeric_oracle_grid_may_be_a_numpy_integer(self):
        assert numeric_pairwise_rate(0.3, 0.7, 1.0, 1.0, np.int64(100)) == (
            numeric_pairwise_rate(0.3, 0.7, 1.0, 1.0, 100)
        )

    @given(prob_interior, prob_interior, intensity, intensity)
    @settings(max_examples=100, deadline=None)
    def test_mirror_symmetry(self, x, y, g1, g2):
        lo, hi = min(x, y), max(x, y)
        direct = pairwise_rate(lo, hi, g1, g2)
        mirrored = pairwise_rate(1.0 - hi, 1.0 - lo, g2, g1)
        assert direct == pytest.approx(mirrored, rel=1e-10, abs=1e-12)

    @given(prob_interior, prob_interior, intensity, intensity, st.floats(0.5, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_scales_linearly_in_common_intensity(self, x, y, g1, g2, c):
        lo, hi = min(x, y), max(x, y)
        base = pairwise_rate(lo, hi, g1, g2)
        scaled = pairwise_rate(lo, hi, c * g1, c * g2)
        assert scaled == pytest.approx(c * base, rel=1e-10, abs=1e-12)

    @given(prob_interior, st.floats(0.05, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_widening_gap_increases_rate(self, lo, gap):
        hi = min(lo + gap, 0.99)
        hi2 = min(hi + 0.05, 0.995)
        if hi2 <= hi:
            return
        assert pairwise_rate(lo, hi2, 1.0, 1.0) > pairwise_rate(lo, hi, 1.0, 1.0)

    def test_validates_probability_range(self):
        with pytest.raises(ValueError):
            pairwise_rate(-0.1, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            pairwise_rate(0.6, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            pairwise_rate(0.1, 0.5, 0.0, 1.0)


class TestDesignRates:
    def test_adjacent_rates_and_overall(self):
        beta = StepBeta((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.25, 0.75, 1.0))
        g = MatchProfile.uniform(4)
        rates = adjacent_rates(beta, g)
        assert len(rates) == 3
        assert overall_rate(beta, g) == min(rates)
        # this is the closed-form optimum, so all three pairs agree
        assert max(rates) - min(rates) < 1e-12
        assert rates[0] == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_pair_report_fields(self):
        beta = StepBeta((0.0, 0.5, 1.0), (0.0, 1.0))
        report = pair_report(beta, MatchProfile.uniform(2))
        assert len(report) == 1
        assert report[0].rate == math.inf
        assert report[0].a_star is None

    def test_pair_report_interior_crossing(self):
        beta = StepBeta((0.0, 0.3, 1.0), (0.2, 0.9))
        (pair,) = pair_report(beta, MatchProfile.uniform(2))
        assert 0.2 < pair.a_star < 0.9

    @pytest.mark.parametrize(
        "levels,weights",
        [
            ((0.0, float("nan"), 1.0), (1.0, 1.0, 1.0)),
            ((0.0, 0.7, 0.4, 1.0), (1.0, 1.0, 1.0, 1.0)),
            ((-0.1, 0.5, 1.0), (1.0, 1.0, 1.0)),
            ((0.0, 0.5, 1.0), (1.0, 0.0, 1.0)),
            ((0.0, 0.5, 1.0), (1.0, float("inf"), 1.0)),
        ],
    )
    def test_rejects_invalid_levels_and_intensities(self, levels, weights):
        with pytest.raises(ValueError):
            adjacent_rates(levels, weights)
        with pytest.raises(ValueError):
            pair_report(levels, weights)

    def test_accepts_plain_sequences(self):
        assert overall_rate((0.0, 0.5, 1.0), (1.0, 1.0, 1.0)) == pytest.approx(
            math.log(2.0), abs=1e-12
        )


def reference_rate(t_lo, t_hi, g_lo, g_hi):
    """The pair exponent at 50 significant digits."""
    with mpmath.workdps(50):
        a, b, ga, gb = (mpmath.mpf(x) for x in (t_lo, t_hi, g_lo, g_hi))
        wa, wb = ga / (ga + gb), gb / (ga + gb)
        bracket = (1 - a) ** wa * (1 - b) ** wb + a**wa * b**wb
        return float(-(ga + gb) * mpmath.log(bracket))


class TestKernelAccuracy:
    @pytest.mark.parametrize("g_lo,g_hi", [(1.0, 1.0), (1.0, 3.0), (0.2, 5.0), (7.0, 0.3)])
    @pytest.mark.parametrize("t", [1e-9, 1e-3, 0.3, 0.5, 0.7, 1.0 - 1e-3])
    def test_relative_error_against_fifty_digits(self, t, g_lo, g_hi):
        for delta in (1e-1, 1e-3, 1e-6, 1e-9, 1e-12):
            t_hi = t + delta
            if t_hi >= 1.0:
                continue
            expected = reference_rate(t, t_hi, g_lo, g_hi)
            got = pairwise_rate(t, t_hi, g_lo, g_hi)
            assert abs(got - expected) <= 1e-12 * expected, (delta, got, expected)

    def test_boundary_pairs_against_fifty_digits(self):
        for t in (1e-12, 1e-3, 0.5, 1.0 - 1e-9):
            assert pairwise_rate(0.0, t, 1.0, 2.0) == pytest.approx(
                reference_rate(0.0, t, 1.0, 2.0), rel=1e-14
            )
            assert pairwise_rate(t, 1.0, 2.0, 1.0) == pytest.approx(
                reference_rate(t, 1.0, 2.0, 1.0), rel=1e-14
            )

    @pytest.mark.parametrize("g_lo,g_hi", [(1.0, 1.0), (0.2, 5.0)])
    def test_far_apart_pairs_against_fifty_digits(self, g_lo, g_hi):
        for t_lo, t_hi in ((1e-12, 1.0 - 1e-12), (1e-200, 0.5), (1e-3, 0.999)):
            assert pairwise_rate(t_lo, t_hi, g_lo, g_hi) == pytest.approx(
                reference_rate(t_lo, t_hi, g_lo, g_hi), rel=1e-13
            )

    def test_array_kernel_matches_scalar_wrapper(self):
        lo = np.array([0.0, 0.1, 0.4, 0.4, 0.9])
        hi = np.array([0.3, 0.2, 0.4, 1.0, 1.0])
        rates = pair_rates(lo, hi, 1.5, 0.5)
        for i in range(lo.size):
            assert rates[i] == pairwise_rate(lo[i], hi[i], 1.5, 0.5)
        assert pair_rates(0.0, 1.0, 1.0, 1.0) == math.inf
