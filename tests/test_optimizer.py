import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratecraft.core import MatchProfile, Partition
from ratecraft.optimizer import (
    ConvergenceError,
    SolverConfig,
    double_levels,
    equalize_chain,
    nested_bisection,
    verify_equalization,
)
from ratecraft.partition import equispaced_partition, optimize_partition
from ratecraft.core import normalize_weight
from ratecraft.rates import adjacent_rates, pairwise_rate


def closed_form_middle_of(lo, hi):
    """Equal-rate level between lo and hi under unit intensities: the
    square-root odds construction, written out independently."""
    ratio = (math.sqrt(1 - lo) - math.sqrt(1 - hi)) / (
        math.sqrt(hi) - math.sqrt(lo)
    )
    c = ratio * ratio
    return c / (1.0 + c)


def closed_pair_rate(a, b, ga, gb):
    """Pair exponent written out from its closed form, independently of
    the package's kernel."""
    if a == 0.0:
        return -gb * math.log1p(-b)
    if b == 1.0:
        return -ga * math.log(a)
    wa, wb = ga / (ga + gb), gb / (ga + gb)
    return -(ga + gb) * math.log((1 - a) ** wa * (1 - b) ** wb + a**wa * b**wb)


def bisection_levels(g, tol=1e-13, cap=200):
    """Levels for matching ``g`` by nested bisection, a reference that
    shares no code with the Newton solve.

    An outer bisection on the topmost interior level sets the target rate
    of the top pair; each lower level is then bisected to meet it, and
    the sign of the bottom pair's mismatch steers the outer bracket.
    """
    count = len(g) - 2

    def next_level(upper, target, g_lo, g_hi):
        lo, hi = 0.0, upper - tol
        for _ in range(cap):
            if hi - lo <= tol / 2:
                return hi
            mid = 0.5 * (lo + hi)
            if closed_pair_rate(mid, upper, g_lo, g_hi) <= target:
                hi = mid
            else:
                lo = mid
        raise AssertionError("inner bisection did not converge")

    def chain_down(top):
        target = closed_pair_rate(top, 1.0, g[count], g[count + 1])
        levels = [top]
        for m in range(count - 1, 0, -1):
            levels.insert(0, next_level(levels[0], target, g[m], g[m + 1]))
        return levels, target

    ell, u = tol, 1.0 - tol
    for _ in range(cap):
        if u - ell <= tol / 2:
            break
        x = 0.5 * (ell + u)
        levels, target = chain_down(x)
        if closed_pair_rate(0.0, levels[0], g[0], g[1]) < target:
            ell = x
        else:
            u = x
    return [0.0, *chain_down(u)[0], 1.0]


class TestEqualizeChain:
    def test_single_level_between_point_one_and_point_five(self):
        levels = equalize_chain(0.1, 0.5, 1, (1.0, 1.0, 1.0))
        assert len(levels) == 1
        assert levels[0] == pytest.approx(
            closed_form_middle_of(0.1, 0.5), abs=1e-9
        )

    def test_equalizes_the_two_rates(self):
        (t,) = equalize_chain(0.1, 0.5, 1, (1.0, 1.0, 1.0))
        r_lo = pairwise_rate(0.1, t, 1.0, 1.0)
        r_hi = pairwise_rate(t, 0.5, 1.0, 1.0)
        assert r_lo == pytest.approx(r_hi, abs=1e-11)

    def test_zero_levels_is_an_error(self):
        with pytest.raises(ValueError):
            equalize_chain(0.1, 0.5, 0, (1.0, 1.0))

    def test_inverted_bracket_is_an_error(self):
        with pytest.raises(ValueError):
            equalize_chain(0.5, 0.1, 1, (1.0, 1.0, 1.0))

    def test_intensity_length_checked(self):
        with pytest.raises(ValueError):
            equalize_chain(0.1, 0.5, 2, (1.0, 1.0))

    def test_iteration_cap_raises(self):
        with pytest.raises(ConvergenceError):
            equalize_chain(
                0.05, 0.95, 3, (1.0, 2.0, 3.0, 4.0, 5.0), SolverConfig(max_outer=1)
            )

    def test_a_step_that_breaks_the_level_order_is_halved(self):
        # the first full Newton step for these intensities puts the levels
        # out of order, so the solve halves it and still equalizes
        g = (1.0, 100.0, 1.0, 100.0)
        levels = equalize_chain(0.0, 1.0, 2, g)
        rates = adjacent_rates([0.0, *levels, 1.0], g)
        assert (max(rates) - min(rates)) / max(rates) < 1e-13
        with pytest.raises(ConvergenceError, match="could not keep the levels increasing"):
            equalize_chain(0.0, 1.0, 2, g, SolverConfig(max_inner=1))

    def test_constant_matching_needs_no_iteration(self):
        levels = equalize_chain(0.05, 0.95, 3, (2.0,) * 5, SolverConfig(max_outer=1))
        lo, hi = math.asin(math.sqrt(0.05)), math.asin(math.sqrt(0.95))
        expected = [math.sin(lo + k * (hi - lo) / 4) ** 2 for k in (1, 2, 3)]
        assert levels == pytest.approx(expected, abs=1e-15)


class TestClosedForm:
    @pytest.mark.parametrize("M", (200, 1600, 10_000))
    def test_constant_matching_is_equal_angle_steps(self, M):
        result = nested_bisection(M)
        expected = np.sin(np.pi * np.arange(M) / (2 * (M - 1))) ** 2
        assert np.abs(np.array(result.beta.t) - expected).max() <= 1e-15
        # -2 log cos x, written without the cancellation of log near 1
        x = math.pi / (2 * (M - 1))
        exact = -2.0 * math.log1p(-2.0 * math.sin(x / 2) ** 2)
        # levels near 1 are stored to an absolute 2^-53, which alone moves
        # the top pairs' exponents by a relative 2^-52 / exact at most
        assert result.rate == pytest.approx(exact, rel=1e-12 + 2.0**-52 / exact)


class TestConstantMatchingShortcut:
    """Constant matching returns the equal-angle start with no Newton
    step; these pin it, bit for bit, to what the solve returned when it
    stopped at iteration 0."""

    @staticmethod
    def equal_angle_levels(lo, hi, count):
        edges = np.arcsin(np.sqrt([lo, hi]))
        return (np.sin(np.linspace(edges[0], edges[1], count + 2)[1:-1]) ** 2).tolist()

    @pytest.mark.parametrize("lo, hi", ((0.0, 1.0), (0.0, 0.3), (0.2, 1.0), (0.05, 0.95)))
    @pytest.mark.parametrize("gv", (1.0, 0.37))
    def test_levels_are_sin_squared_of_equal_angle_steps(self, lo, hi, gv):
        for M in (*range(3, 201), 10_000):
            levels = equalize_chain(lo, hi, M - 2, (gv,) * M)
            assert levels == self.equal_angle_levels(lo, hi, M - 2), M

    def test_linear_matching_still_iterates(self):
        M = 50
        g = MatchProfile.from_kind("linear", equispaced_partition(M).s)
        levels = equalize_chain(0.0, 1.0, M - 2, g)
        start = self.equal_angle_levels(0.0, 1.0, M - 2)
        assert np.abs(np.subtract(levels, start)).max() > 1e-3
        report = verify_equalization((0.0, *levels, 1.0), g)
        assert report.passed
        assert report.spread <= 1e-10 * report.rate


class TestRandomProfiles:
    @given(
        st.integers(3, 40).flatmap(
            lambda M: st.lists(st.floats(1.0, 10.0), min_size=M, max_size=M)
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_equalizes_and_matches_bisection(self, g):
        result = nested_bisection(len(g), MatchProfile.from_table(g))
        t = np.array(result.beta.t)
        assert np.all(np.diff(t) > 0.0)
        rates = adjacent_rates(result.beta, result.g)
        assert (max(rates) - min(rates)) / min(rates) <= 1e-10
        assert np.abs(t - bisection_levels(g)).max() <= 1e-9


class TestNestedBisection:
    @pytest.mark.parametrize("M", (2, 4))
    def test_plain_breakpoints_build_one_partition(self, monkeypatch, M):
        built = []
        check = Partition.__post_init__
        monkeypatch.setattr(Partition, "__post_init__", lambda part: built.append(check(part)))
        breakpoints = [k / M for k in range(M + 1)]
        result = nested_bisection(M, breakpoints=breakpoints)
        assert result.beta.s == tuple(breakpoints)
        assert len(built) == 1
        nested_bisection(M, breakpoints=result.beta)
        nested_bisection(M, breakpoints=Partition(breakpoints))
        assert len(built) == 2

    def test_three_levels_closed_form(self):
        result = nested_bisection(3)
        assert result.beta.t[0] == 0.0
        assert result.beta.t[2] == 1.0
        assert result.beta.t[1] == pytest.approx(0.5, abs=1e-9)
        assert result.rate == pytest.approx(math.log(2.0), abs=1e-9)

    def test_four_levels_closed_form(self):
        result = nested_bisection(4)
        assert result.beta.t == pytest.approx((0.0, 0.25, 0.75, 1.0), abs=1e-8)
        assert result.rate == pytest.approx(-math.log(0.75), abs=1e-8)

    def test_five_levels_closed_form(self):
        # interleaving the M=3 solution gives the M=5 one exactly
        result = nested_bisection(5)
        expected = (0.0, (1 - math.sqrt(0.5)) / 2, 0.5, (1 + math.sqrt(0.5)) / 2, 1.0)
        assert result.beta.t == pytest.approx(expected, abs=1e-9)

    def test_two_levels_degenerate(self):
        result = nested_bisection(2)
        assert result.beta.t == (0.0, 1.0)
        assert result.rate == math.inf
        assert result.degenerate

    def test_residual_small_across_sizes(self):
        for M in (3, 6, 11, 20):
            result = nested_bisection(M)
            report = verify_equalization(result.beta, result.g)
            assert report.passed, f"M={M} spread {report.spread}"

    def test_breakpoints_attach_to_result(self):
        part = optimize_partition(normalize_weight("bottom"), 5, grid=200)
        result = nested_bisection(5, breakpoints=part)
        assert result.beta.s == part.s

    def test_breakpoint_count_checked(self):
        with pytest.raises(ValueError):
            nested_bisection(5, breakpoints=(0.0, 0.5, 1.0))

    def test_intensity_length_checked(self):
        with pytest.raises(ValueError):
            nested_bisection(4, g=MatchProfile.uniform(3))

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            nested_bisection(1)

    def test_last_level_bound_holds_without_shortcut(self):
        cfg = SolverConfig(use_last_level_bound=False)
        for M in (3, 7, 20, 50):
            for kind in ("uniform", "linear"):
                g = MatchProfile.from_kind(kind, equispaced_partition(M).s)
                t = nested_bisection(M, g, cfg).beta.t
                assert t[M - 2] >= 1 - 1 / (M - 1) - 1e-12

    def test_bound_shortcut_changes_nothing(self):
        free = nested_bisection(12, cfg=SolverConfig(use_last_level_bound=False))
        fast = nested_bisection(12)
        assert np.allclose(free.beta.t, fast.beta.t, atol=1e-11)

    def test_linear_matching_lifts_every_interior_level(self):
        for M in (4, 8, 16):
            uniform_t = nested_bisection(M).beta.t
            g = MatchProfile.from_kind("linear", equispaced_partition(M).s)
            linear_t = nested_bisection(M, g).beta.t
            diffs = np.array(linear_t[1:-1]) - np.array(uniform_t[1:-1])
            assert np.all(diffs > 0)

    def test_local_optimality_single_level_perturbation(self):
        result = nested_bisection(6)
        base = min(adjacent_rates(result.beta, result.g))
        levels = list(result.beta.t)
        for i in range(1, 5):
            for eps in (1e-5, -1e-5):
                bumped = levels.copy()
                bumped[i] += eps
                rate = min(adjacent_rates(tuple(bumped), result.g.values))
                assert rate < base

    def test_symmetry_under_uniform_matching(self):
        # with constant intensity the problem is mirror symmetric in theta
        t = nested_bisection(9).beta.t
        for a, b in zip(t, reversed(t)):
            assert a == pytest.approx(1.0 - b, abs=1e-9)

    # the equalized rate is about (pi/2)^2 / (sum_m h_m^(-1/2))^2, with h_m
    # the harmonic mean of pair m's two intensities; the relative gap times
    # M^2 measured -0.42, -0.41, -0.30 (uniform) and -17.9, -23.5, -30.8
    # (linear) at these M
    @pytest.mark.parametrize("kind, bar", [("uniform", 0.5), ("linear", 40.0)])
    @pytest.mark.parametrize("M", (200, 1_000, 10_000))
    def test_rate_meets_the_continuum_formula(self, kind, bar, M):
        g = MatchProfile.from_kind(kind, equispaced_partition(M))
        v = np.array(g.values)
        h = 2.0 / (1.0 / v[:-1] + 1.0 / v[1:])
        continuum = (math.pi / 2.0) ** 2 / np.sum(h**-0.5) ** 2
        gap = continuum / nested_bisection(M, g).rate - 1.0
        assert abs(gap) < bar / (M * M)


class TestDoubleLevels:
    def test_doubles_three_to_five_closed_form(self):
        doubled = double_levels(nested_bisection(3).beta)
        expected = (0.0, (1 - math.sqrt(0.5)) / 2, 0.5, (1 + math.sqrt(0.5)) / 2, 1.0)
        assert doubled.t == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("M", (3, 4, 8))
    def test_matches_direct_solve(self, M):
        doubled = double_levels(nested_bisection(M).beta)
        direct = nested_bisection(2 * M - 1).beta
        assert np.abs(np.array(doubled.t) - np.array(direct.t)).max() < 1e-10

    def test_preserves_equalization(self):
        doubled = double_levels(nested_bisection(10).beta)
        report = verify_equalization(doubled, MatchProfile.uniform(doubled.M))
        assert report.passed

    def test_rejects_nonconstant_matching(self):
        beta = nested_bisection(4).beta
        g = MatchProfile.from_kind("linear", equispaced_partition(4).s)
        with pytest.raises(ValueError):
            double_levels(beta, g)

    def test_rejects_flat_levels(self):
        with pytest.raises(ValueError):
            double_levels((0.0, 0.5, 0.5, 1.0))

    def test_rejects_levels_not_spanning(self):
        with pytest.raises(ValueError):
            double_levels((0.1, 0.5, 1.0))

    def test_rate_quarters_per_doubling(self):
        r_before = nested_bisection(8).rate
        doubled = double_levels(nested_bisection(8).beta)
        r_after = min(adjacent_rates(doubled, MatchProfile.uniform(15)))
        assert r_before / 5 <= r_after <= r_before / 2


class TestTypedAndPlainInputsAgree:
    """A typed design is read without a second check, so it must give
    the same floats as its plain level and matching vectors."""

    @pytest.fixture(scope="class")
    def design(self):
        g = MatchProfile.from_kind("linear", equispaced_partition(50).s)
        result = nested_bisection(50, g)
        return result.beta, result.g

    def test_adjacent_rates(self, design):
        beta, g = design
        assert adjacent_rates(beta, g) == adjacent_rates(beta.t, g.values)

    def test_verify_equalization(self, design):
        beta, g = design
        assert verify_equalization(beta, g) == verify_equalization(beta.t, g.values)

    def test_equalize_chain(self, design):
        _, g = design
        assert equalize_chain(0.0, 1.0, 48, g) == equalize_chain(0.0, 1.0, 48, g.values)
        inner = g.values[10:31]
        typed = equalize_chain(0.2, 0.7, 19, MatchProfile.from_table(inner))
        assert typed == equalize_chain(0.2, 0.7, 19, inner)

    def test_double_levels(self, design):
        beta, _ = design
        typed = double_levels(beta, MatchProfile.uniform(beta.M))
        plain = double_levels(beta.t)
        assert (typed.s, typed.t) == (plain.s, plain.t)


class TestVerifyEqualization:
    def test_single_pair_trivially_passes(self):
        report = verify_equalization((0.0, 1.0), (1.0, 1.0))
        assert report.passed
        assert report.spread == 0.0

    def test_detects_unequal_rates(self):
        report = verify_equalization((0.0, 0.9, 1.0), (1.0, 1.0, 1.0))
        assert not report.passed
        assert report.spread > 0.1

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_outer=0)
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=-1e-9)
