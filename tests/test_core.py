import json
import math
import pickle
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from ratecraft.core import (
    MATCH_KINDS,
    WEIGHT_KINDS,
    _NAMED_WEIGHTS,
    MatchProfile,
    Partition,
    QuestionBank,
    QuestionDistribution,
    StepBeta,
    WeightSpec,
    _checked_breakpoints,
    _checked_levels,
    _checked_matching,
    _count_csv_rows,
    _read_csv,
    _write_json,
    load_design,
    normalize_weight,
    save_design,
)
from ratecraft.cli import main
from ratecraft.heuristic import fit_h
from ratecraft.optimizer import SolverConfig, equalize_chain, nested_bisection
from ratecraft.partition import (
    asymptotic_value,
    equispaced_partition,
    interval_mass,
    optimize_partition,
    within_mass,
)
from ratecraft.rates import kl_bernoulli, numeric_pairwise_rate, pairwise_rate
from ratecraft.responses import _RATINGS, PsiInterpolator
from ratecraft.simulator import (
    MarketState,
    SimConfig,
    empirical_objective,
    estimate_pk_rate,
    run_simulation,
)


class TestStepBeta:
    def test_evaluates_levels_on_intervals(self):
        beta = StepBeta((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.2, 0.8, 1.0))
        assert beta(0.1) == 0.0
        assert beta(0.3) == 0.2
        assert beta(0.6) == 0.8
        assert beta(0.9) == 1.0

    def test_right_continuous_at_breakpoints(self):
        beta = StepBeta((0.0, 0.5, 1.0), (0.1, 0.9))
        assert beta(0.5) == 0.9
        assert beta(0.0) == 0.1

    def test_top_endpoint_belongs_to_last_interval(self):
        beta = StepBeta((0.0, 0.5, 1.0), (0.1, 0.9))
        assert beta(1.0) == 0.9

    def test_vectorized_matches_scalar(self):
        beta = StepBeta((0.0, 0.3, 0.7, 1.0), (0.0, 0.5, 1.0))
        grid = np.linspace(0, 1, 53)
        vec = beta(grid)
        assert vec.shape == grid.shape
        for th, v in zip(grid, vec):
            assert beta(float(th)) == v

    def test_interval_index(self):
        beta = StepBeta((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.2, 0.8, 1.0))
        assert list(beta.interval_index(np.array([0.0, 0.25, 0.6, 1.0]))) == [
            0,
            1,
            2,
            3,
        ]

    @pytest.mark.parametrize("bad", (math.nan, -0.1, 1.5))
    def test_rejects_quality_outside_unit_or_nan(self, bad):
        beta = StepBeta((0.0, 0.5, 1.0), (0.2, 0.8))
        for theta in (bad, np.array([0.3, bad])):
            with pytest.raises(ValueError, match="quality"):
                beta(theta)
            with pytest.raises(ValueError, match="quality"):
                beta.interval_index(theta)

    def test_m_property(self):
        beta = StepBeta((0.0, 0.5, 1.0), (0.0, 1.0))
        assert beta.M == 2

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError):
            StepBeta((0.0, 0.6, 0.4, 1.0), (0.0, 0.5, 1.0))

    def test_rejects_breakpoints_not_spanning(self):
        with pytest.raises(ValueError):
            StepBeta((0.1, 0.5, 1.0), (0.0, 1.0))

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_rejects_non_finite_breakpoint(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StepBeta((0.0, bad, 1.0), (0.1, 0.9))

    def test_rejects_decreasing_levels(self):
        with pytest.raises(ValueError):
            StepBeta((0.0, 0.5, 1.0), (0.8, 0.2))

    def test_rejects_levels_outside_unit(self):
        with pytest.raises(ValueError):
            StepBeta((0.0, 0.5, 1.0), (0.0, 1.2))

    @pytest.mark.parametrize(
        "t", [(0.0, math.nan, 1.0), (math.nan, 0.5, 1.0), (0.0, 0.5, math.nan)]
    )
    def test_rejects_nan_level(self, t):
        with pytest.raises(ValueError):
            StepBeta((0.0, 0.5, 0.7, 1.0), t)

    def test_allows_constant_levels(self):
        beta = StepBeta((0.0, 0.5, 1.0), (0.4, 0.4))
        assert beta(0.2) == beta(0.8) == 0.4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StepBeta((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))

    def test_lookups_leave_value_semantics_alone(self):
        s, t = (0.0, 0.3, 0.7, 1.0), (0.1, 0.5, 0.9)
        used, fresh = StepBeta(s, t), StepBeta(s, t)
        used(np.linspace(0.0, 1.0, 11))
        used.interval_index(0.5)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(used))
        assert clone(0.3) == 0.5 and clone.interval_index(1.0) == 2
        with pytest.raises(ValueError, match="quality"):
            clone(math.nan)

    @given(
        st.lists(
            st.floats(0.001, 0.999), min_size=1, max_size=6, unique=True
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_manual_interval_lookup(self, interior, data):
        s = (0.0, *sorted(interior), 1.0)
        t = sorted(
            data.draw(
                st.lists(
                    st.floats(0.0, 1.0),
                    min_size=len(s) - 1,
                    max_size=len(s) - 1,
                )
            )
        )
        beta = StepBeta(s, tuple(t))
        theta = data.draw(st.floats(0.0, 1.0))
        idx = 0
        for i in range(len(s) - 1):
            if s[i] <= theta and (theta < s[i + 1] or i == len(s) - 2):
                idx = i
        assert beta(theta) == t[idx]


class TestMatchProfile:
    def test_uniform_is_constant_one(self):
        g = MatchProfile.uniform(5)
        assert g.values == (1.0,) * 5
        assert g.is_constant

    def test_linear_samples_left_endpoints(self):
        s = (0.0, 0.25, 0.5, 0.75, 1.0)
        g = MatchProfile.from_kind("linear", s)
        expected = tuple((1 + 10 * a) / 11 for a in s[:-1])
        assert g.values == pytest.approx(expected, abs=0)
        assert not g.is_constant

    def test_from_table(self):
        g = MatchProfile.from_table((0.5, 1.0, 2.0))
        assert g.kind == "table"
        assert g.M == 3

    def test_from_kind_dispatch(self):
        s = (0.0, 0.5, 1.0)
        assert MatchProfile.from_kind("uniform", s).is_constant
        assert MatchProfile.from_kind("linear", s).kind == "linear"
        with pytest.raises(ValueError):
            MatchProfile.from_kind("cubic", s)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            MatchProfile.from_table((1.0, 0.0))

    def test_kinds_tuple(self):
        assert set(MATCH_KINDS) == {"uniform", "linear", "table"}


class TestWeightNormalization:
    NAMED = [k for k in WEIGHT_KINDS if k != "custom"]

    @pytest.mark.parametrize("kind", NAMED)
    def test_normalized_weight_integrates_to_one(self, kind):
        # independent route: adaptive quadrature over the ordered triangle
        w = normalize_weight(kind)
        total, err = dblquad(
            lambda t2, t1: w(t1, t2), 0.0, 1.0, lambda t1: 0.0, lambda t1: t1
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "kind,constant",
        [
            ("kendall", 2.0),
            ("spearman", 6.0),
            ("top", 30.0),
            ("bottom", 30.0),
            ("extremes", 672.0),
        ],
    )
    def test_named_constants(self, kind, constant):
        assert normalize_weight(kind).constant == constant

    @pytest.mark.parametrize("kind", NAMED)
    def test_builtin_quadrature_close_to_one(self, kind):
        w = normalize_weight(kind)
        assert w.quadrature_integral() == pytest.approx(1.0, abs=5e-5)

    def test_custom_weight_normalizes_exactly_under_own_quadrature(self):
        w = normalize_weight("custom", raw=lambda a, b: (a - b) ** 2)
        assert w.quadrature_integral() == pytest.approx(1.0, abs=1e-12)

    def test_custom_matching_named_raw_recovers_constant(self):
        w = normalize_weight("custom", raw=lambda a, b: np.broadcast_arrays(
            np.ones_like(np.asarray(a, dtype=float)), b
        )[0])
        # kendall's raw weight is 1; the numeric constant must land near 2
        assert w.constant == pytest.approx(2.0, rel=1e-4)

    def test_custom_rejects_negative_raw(self):
        with pytest.raises(ValueError):
            normalize_weight("custom", raw=lambda a, b: b - a)

    def test_custom_requires_raw(self):
        with pytest.raises(ValueError):
            normalize_weight("custom")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            normalize_weight("mystery")

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_named_weights_nonnegative_on_ordered_pairs(self, a, b):
        hi, lo = max(a, b), min(a, b)
        for kind in self.NAMED:
            assert normalize_weight(kind)(hi, lo) >= 0.0


# Each named kind's factor P, exactly, as coefficients of 1, t, t^2, ...
# Every other entry of the weight table follows from P: raw(a, b) =
# (a - b) P(a) P(b), except Kendall's raw = 1.
_P_COEFFS = {
    "kendall": (1,),
    "spearman": (1,),
    "top": (0, 1),
    "bottom": (1, -1),
    "extremes": (Fraction(1, 4), -1, 1),
}
# Dyadic qualities: every product in raw and P is exact in a double.
_DYADIC = [Fraction(k, 32) for k in range(33)]


def _poly_at(coeffs, t):
    return sum(Fraction(c) * t**i for i, c in enumerate(coeffs))


def _raw_terms(kind):
    """Exact raw weight as {(i, j): c}, meaning sum of c * a**i * b**j."""
    if kind == "kendall":
        return {(0, 0): Fraction(1)}
    P = _P_COEFFS[kind]
    terms = {}
    for i, ci in enumerate(P):
        for j, cj in enumerate(P):
            for di, dj, sign in ((1, 0, 1), (0, 1, -1)):
                key = (i + di, j + dj)
                terms[key] = terms.get(key, 0) + sign * Fraction(ci) * Fraction(cj)
    return terms


def _within_terms(kind, constant):
    """Exact normalized mass of {a <= y < x <= b} as {(p, q): c} in a, b.

    The integral of x**i * y**j over that triangle is
    (b**(i+j+2) - a**(i+j+2)) / ((i+j+2)(j+1))
    - a**(j+1) (b**(i+1) - a**(i+1)) / ((i+1)(j+1)).
    """
    out = {}

    def add(p, q, c):
        out[(p, q)] = out.get((p, q), 0) + c

    for (i, j), c in _raw_terms(kind).items():
        c = constant * c / (j + 1)
        n = i + j + 2
        add(0, n, c / n)
        add(n, 0, -c / n)
        add(j + 1, i + 1, -c / (i + 1))
        add(n, 0, c / (i + 1))
    return {k: c for k, c in out.items() if c != 0}


def _divide_by_gap(terms):
    """Exact quotient of a polynomial in (a, b) by (b - a), or None when
    b - a does not divide it."""
    top = max(q for _, q in terms)
    # synthetic division in b with root b = a: q_{m-1} = w_m + a * q_m
    quotient, carry = {}, {}
    for m in range(top, 0, -1):
        row = {p: c for (p, q), c in terms.items() if q == m}
        for p, c in carry.items():
            row[p + 1] = row.get(p + 1, 0) + c
        carry = {p: c for p, c in row.items() if c != 0}
        for p, c in carry.items():
            quotient[(p, m - 1)] = c
    remainder = {p: c for (p, q), c in terms.items() if q == 0}
    for p, c in carry.items():
        remainder[p + 1] = remainder.get(p + 1, 0) + c
    return quotient if not any(remainder.values()) else None


def _gap_form(kind, constant):
    """(k, Q) with within mass == (b - a)**k * Q(a, b), Q not divisible by b - a."""
    terms, k = _within_terms(kind, constant), 0
    while (quotient := _divide_by_gap(terms)) is not None:
        terms, k = quotient, k + 1
    return k, terms


class TestNamedWeightTable:
    """Every entry of ``core._NAMED_WEIGHTS`` derived exactly from P alone."""

    def test_every_named_kind_has_its_P_here(self):
        assert set(_P_COEFFS) == set(_NAMED_WEIGHTS)
        assert WEIGHT_KINDS == (*_NAMED_WEIGHTS, "custom")

    @pytest.mark.parametrize("kind", list(_P_COEFFS))
    def test_constant_is_exact(self, kind):
        # the raw mass of the whole triangle: the within mass on [0, 1] at
        # constant 1, where every term with a power of a vanishes
        total = sum(c for (p, _), c in _within_terms(kind, 1).items() if p == 0)
        assert Fraction(_NAMED_WEIGHTS[kind].constant) == 1 / total

    @pytest.mark.parametrize("kind", list(_P_COEFFS))
    def test_P_and_raw_exact_at_dyadic_points(self, kind):
        entry = _NAMED_WEIGHTS[kind]
        x = np.array([float(t) for t in _DYADIC])
        P = entry.P(x) * np.ones_like(x)
        assert [Fraction(v) for v in P] == [_poly_at(_P_COEFFS[kind], t) for t in _DYADIC]
        a, b = np.meshgrid(x, x, indexing="ij")
        raw = entry.raw(a, b)
        for i, ta in enumerate(_DYADIC):
            for j, tb in enumerate(_DYADIC[: i + 1]):
                if kind == "kendall":
                    exact = Fraction(1)
                else:
                    exact = (ta - tb) * _poly_at(_P_COEFFS[kind], ta) * _poly_at(
                        _P_COEFFS[kind], tb
                    )
                assert Fraction(float(raw[i, j])) == exact

    @pytest.mark.parametrize("kind", list(_P_COEFFS))
    def test_within_mass_matches_closed_form(self, kind):
        entry = _NAMED_WEIGHTS[kind]
        k, Q = _gap_form(kind, Fraction(entry.constant))
        assert k == (2 if kind == "kendall" else 3)
        near_half = [Fraction(1, 2) + Fraction(s, 1024) for s in (-3, -1, 1, 2)]
        points = sorted(set(_DYADIC + near_half))
        # the closed form multiplies (b - a)**k into Q's terms as written:
        # each term takes at most 4 roundings, their sum at most 14 more,
        # the power and the product 2 more; 21 leaves room for libm's pow,
        # which is within about 0.52 ulp rather than 0.5.  Each rounding
        # is relative to a value no larger than ``scale``.
        n, u = 21, Fraction(1, 2**53)
        gamma = n * u / (1 - n * u)
        for i, a in enumerate(points):
            for b in points[i + 1 :]:
                d = b - a
                exact = d**k * sum(c * a**p * b**q for (p, q), c in Q.items())
                scale = d**k * sum(abs(c * a**p * b**q) for (p, q), c in Q.items())
                got = Fraction(float(entry.interval_mass(float(a), float(b))))
                assert abs(got - exact) <= gamma * scale

    def test_only_kendall_is_not_gapped(self):
        # every other kind's raw weight is P(a) * P(b) * (a - b)
        assert [k for k, entry in _NAMED_WEIGHTS.items() if not entry.gapped] == ["kendall"]

    @pytest.mark.parametrize("kind", list(_P_COEFFS))
    def test_equal_width_flag_means_mass_depends_on_width_only(self, kind):
        # within mass c * (b - a)**k is convex in the width, so equal widths
        # are optimal; any other Q depends on where the interval sits
        _, Q = _gap_form(kind, Fraction(_NAMED_WEIGHTS[kind].constant))
        assert _NAMED_WEIGHTS[kind].equal_width == (set(Q) == {(0, 0)})


class TestQuestionBank:
    def test_probability_csv_round_trip(self, tmp_path, random_bank):
        path = tmp_path / "bank.csv"
        random_bank.to_csv(path)
        again = QuestionBank.from_csv(path)
        assert again.thetas == random_bank.thetas
        assert again.questions == random_bank.questions
        assert np.array_equal(again.psi, random_bank.psi)

    def test_counts_csv_round_trip(self, tmp_path):
        bank = QuestionBank(
            (0.2, 0.8),
            ("q1", "q2"),
            np.array([[0.25, 0.5], [0.75, 1.0]]),
            np.array([[1, 2], [3, 4]]),
            np.array([[4, 4], [4, 4]]),
        )
        path = tmp_path / "bank.csv"
        bank.to_csv(path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "theta,question,positives,total"
        again = QuestionBank.from_csv(path)
        assert np.array_equal(again.positives, bank.positives)
        assert np.array_equal(again.psi, bank.psi)

    def test_thetas_sorted_and_questions_keep_first_appearance(self):
        text = (
            "theta,question,psi\n"
            "0.8,beta_q,0.9\n"
            "0.8,alpha_q,0.7\n"
            "0.2,beta_q,0.2\n"
            "0.2,alpha_q,0.1\n"
        )
        bank = QuestionBank.from_csv_text(text)
        assert bank.thetas == (0.2, 0.8)
        assert bank.questions == ("beta_q", "alpha_q")
        assert bank.psi[0, 0] == 0.2

    def test_duplicate_cell_rejected(self):
        text = "theta,question,psi\n0.5,q,0.3\n0.5,q,0.4\n"
        with pytest.raises(ValueError, match="duplicate"):
            QuestionBank.from_csv_text(text)

    def test_missing_cell_rejected(self):
        text = "theta,question,psi\n0.2,q1,0.3\n0.8,q2,0.4\n"
        with pytest.raises(ValueError):
            QuestionBank.from_csv_text(text)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            QuestionBank.from_csv_text("theta,question,value\n0.5,q,0.3\n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_anchor(self, bad):
        with pytest.raises(ValueError, match="anchor"):
            QuestionBank((0.2, bad), ("q",), np.array([[0.1], [0.5]]))
        with pytest.raises(ValueError, match="anchor"):
            QuestionBank((bad,), ("q",), np.array([[0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_psi(self, bad):
        with pytest.raises(ValueError, match="within"):
            QuestionBank((0.2, 0.8), ("q",), np.array([[0.1], [bad]]))

    def test_nan_quality_row_rejected(self):
        with pytest.raises(ValueError, match="anchor"):
            QuestionBank.from_csv_text("theta,question,psi\nnan,q,0.5\n")

    def test_counts_must_be_consistent(self):
        with pytest.raises(ValueError):
            QuestionBank(
                (0.5,),
                ("q",),
                np.array([[0.5]]),
                np.array([[5]]),
                np.array([[4]]),
            )

    def test_psi_must_match_counts_ratio(self):
        with pytest.raises(ValueError):
            QuestionBank(
                (0.5,),
                ("q",),
                np.array([[0.9]]),
                np.array([[1]]),
                np.array([[4]]),
            )

    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            QuestionBank((0.0, 0.5), ("q",), np.array([[0.1], [0.2]]))

    def test_psi_range(self):
        with pytest.raises(ValueError):
            QuestionBank((0.5,), ("q",), np.array([[1.5]]))


class TestQuestionDistribution:
    def test_json_round_trip(self, tmp_path):
        h = QuestionDistribution(("a", "b"), (0.25, 0.75), 0.125)
        path = tmp_path / "h.json"
        h.to_json(path)
        again = QuestionDistribution.from_json(path)
        assert again == h

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            QuestionDistribution(("a", "b"), (0.5, 0.6), None)

    def test_mass_nonnegative(self):
        with pytest.raises(ValueError):
            QuestionDistribution(("a", "b"), (-0.1, 1.1), None)

    @pytest.mark.parametrize("probs", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_rejects_non_finite_mass(self, probs):
        with pytest.raises(ValueError):
            QuestionDistribution(("a", "b"), probs, None)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            QuestionDistribution(("a",), (0.5, 0.5), None)

    def test_rejects_duplicate_questions(self):
        with pytest.raises(ValueError, match="duplicate question ids"):
            QuestionDistribution(("a", "a"), (0.25, 0.75), None)


class TestDesignFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        from ratecraft.optimizer import SolverConfig, nested_bisection

        result = nested_bisection(7)
        path = tmp_path / "design.json"
        save_design(
            path, result.beta, result.g, "kendall", result.rate, result.residual
        )
        loaded = load_design(path)
        assert loaded["beta"].t == result.beta.t
        assert loaded["beta"].s == result.beta.s
        assert loaded["g"].values == result.g.values
        assert loaded["rate"] == result.rate
        # a rewrite of the loaded design reproduces the file byte for byte
        path2 = tmp_path / "design2.json"
        save_design(
            path2,
            loaded["beta"],
            loaded["g"],
            loaded["w_kind"],
            loaded["rate"],
            loaded["residual"],
        )
        assert path.read_bytes() == path2.read_bytes()

    def test_infinite_rate_stored_as_flag(self, tmp_path):
        beta = StepBeta((0.0, 0.5, 1.0), (0.0, 1.0))
        path = tmp_path / "degen.json"
        save_design(path, beta, MatchProfile.uniform(2), "kendall", math.inf, 0.0)
        payload = json.loads(path.read_text())
        assert payload["rate"] is None
        assert payload["rate_infinite"] is True
        loaded = load_design(path)
        assert loaded["rate"] == math.inf

    def test_weight_kind_checked(self, tmp_path):
        beta = StepBeta((0.0, 0.5, 1.0), (0.0, 1.0))
        path = tmp_path / "x.json"
        with pytest.raises(ValueError, match="weight kind"):
            save_design(path, beta, MatchProfile.uniform(2), "bogus")
        assert not path.exists()

    def test_g_length_checked(self, tmp_path):
        beta = StepBeta((0.0, 0.5, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            save_design(tmp_path / "x.json", beta, MatchProfile.uniform(3), "kendall")


# Floats that json spells like float.__repr__, and values that json writes
# differently or that are no exact float: the writer must fall back on them.
_REPR_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_ODD_ITEMS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.builds(np.float64, _REPR_FLOATS),
)
_FLOAT_LISTS = st.lists(_REPR_FLOATS, max_size=6) | st.lists(_REPR_FLOATS | _ODD_ITEMS, max_size=6)
_LEAVES = st.one_of(
    _REPR_FLOATS, _ODD_ITEMS, st.none(), st.text(max_size=4),
    st.sampled_from(["\u00e9t\u00e9", "\u03b8", "\U0001f600", "a\nb", '"']),
    _FLOAT_LISTS, st.builds(tuple, _FLOAT_LISTS),
)
_ANY_KEYS = st.one_of(st.text(max_size=3), st.integers(), st.floats(), st.booleans(), st.none())
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.builds(tuple, st.lists(inner, max_size=4)),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(_ANY_KEYS, inner, max_size=3),
    ),
    max_leaves=24,
)


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "payload.json"


@settings(max_examples=300, deadline=None)
@given(payload=_PAYLOADS)
def test_write_json_gives_the_bytes_of_json_dumps(json_path, payload):
    _write_json(json_path, payload)
    assert json_path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


def test_write_json_gives_the_bytes_of_json_dumps_for_a_design(tmp_path):
    from ratecraft.optimizer import SolverConfig, nested_bisection

    result = nested_bisection(300, MatchProfile.from_kind("linear", np.linspace(0, 1, 301)))
    path = tmp_path / "design.json"
    save_design(path, result.beta, result.g, "kendall", result.rate, result.residual)
    payload = json.loads(path.read_bytes())
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


def _partition(s):
    from ratecraft.partition import Partition

    return Partition(s)


def _equalize(g):
    from ratecraft.optimizer import equalize_chain

    return equalize_chain(0.0, 1.0, 2, g)


def _rates(t, g=None):
    from ratecraft.rates import adjacent_rates

    return adjacent_rates(t, (1.0,) * len(t) if g is None else g)


def _double(t):
    from ratecraft.optimizer import double_levels

    return double_levels(t)


def _bank(psi=((0.2, 0.4), (0.6, 0.8))):
    return QuestionBank((0.25, 0.75), ("q1", "q2"), psi)


def _fit(theta_weights):
    return fit_h(StepBeta((0.0, 1.0), (0.5,)), _bank(), theta_weights=theta_weights)


def _design_probability(p):
    cfg = SimConfig(design=lambda th: np.full(np.shape(th), p), steps=1, n_items=2)
    return cfg.design_probability(np.array([0.2, 0.7]))


def _objective(*theta):
    n = len(theta)
    market = MarketState(np.array(theta), np.full(n, 0.5), np.arange(n), np.full(n, n),
                         np.arange(n), n)
    return empirical_objective(market, normalize_weight("top"))


def _constant(c):
    return WeightSpec("top", c, _NAMED_WEIGHTS["top"].raw)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("check, message", [
    # breakpoints
    (lambda: _partition((0.0, _NAN, 1.0)), "breakpoints must be finite"),
    (lambda: _partition((0.0, _INF, 1.0)), "breakpoints must be finite"),
    (lambda: _partition((0.0, 0.5, 0.5, 1.0)), "breakpoints must be strictly increasing"),
    (lambda: _partition((0.0,)), "need at least one interval (two breakpoints)"),
    (lambda: StepBeta((0.0, _NAN, 1.0), (0.2, 0.5)), "breakpoints must be finite"),
    # step function levels
    (lambda: StepBeta((0.0, 0.5, 1.0), (_NAN, 0.5)), "levels must be nondecreasing"),
    (lambda: StepBeta((0.0, 0.5, 1.0), (0.5, _NAN)), "levels must be nondecreasing"),
    (lambda: StepBeta((0.0, 1.0), (_NAN,)), "levels must lie within [0, 1]"),
    (lambda: StepBeta((0.0, 0.5, 1.0), (0.5, _INF)), "levels must lie within [0, 1]"),
    (lambda: StepBeta((0.0, 0.5, 1.0), (0.6, 0.5)), "levels must be nondecreasing"),
    (lambda: StepBeta((0.0, 0.5, 1.0), (0.5, 0.5)), None),
    (lambda: StepBeta((0.0, 0.5, 1.0), (0.5,)), "got 1 levels for 2 intervals"),
    # matching profile
    (lambda: MatchProfile("table", (1.0, _NAN)), "matching intensities must be positive and finite"),
    (lambda: MatchProfile("table", (1.0, _INF)), "matching intensities must be positive and finite"),
    (lambda: MatchProfile("table", (1.0, 0.0)), "matching intensities must be positive and finite"),
    (lambda: MatchProfile("table", (1.0, 1.0)), None),
    (lambda: MatchProfile("table", ()), "empty matching profile"),
    # a formula profile's breakpoints
    (lambda: MatchProfile.from_kind("uniform", (0.0, _NAN, 1.0)), "breakpoints must be finite"),
    (lambda: MatchProfile.from_kind("uniform", (0.7, 0.2, 0.1)),
     "breakpoints must start at 0 and end at 1"),
    (lambda: MatchProfile.from_kind("linear", (0.0, _NAN, 1.0)), "breakpoints must be finite"),
    (lambda: MatchProfile.from_kind("linear", (0.0, 0.5, 1.0)), None),
    # typed breakpoints, read without a second check
    (lambda: StepBeta(_partition((0.0, 0.5, 1.0)), (0.5,)), "got 1 levels for 2 intervals"),
    (lambda: StepBeta(_partition((0.0, 0.5, 1.0)), (0.5, _NAN)), "levels must be nondecreasing"),
    (lambda: StepBeta(_partition((0.0, 0.5, 1.0)), (0.2, 0.5)), None),
    (lambda: MatchProfile.from_kind("linear", _partition((0.0, 0.5, 1.0))), None),
    (lambda: MatchProfile.from_kind("uniform", StepBeta((0.0, 0.5, 1.0), (0.2, 0.5))), None),
    # the level solver's matching entries
    (lambda: _equalize((1.0, _NAN, 1.0, 1.0)), "matching intensities must be positive and finite"),
    (lambda: _equalize((1.0, _INF, 1.0, 1.0)), "matching intensities must be positive and finite"),
    (lambda: _equalize((1.0, 0.0, 1.0, 1.0)), "matching intensities must be positive and finite"),
    (lambda: _equalize((2.0, 2.0, 2.0, 2.0)), None),
    (lambda: _equalize((1.0, 1.0, 1.0)), "need 4 matching entries, got 3"),
    # adjacent rates of a level vector
    (lambda: _rates((0.0, _NAN, 1.0)), "levels must be nondecreasing"),
    (lambda: _rates((0.0, _INF, 1.0)), "levels must be nondecreasing"),
    (lambda: _rates((0.0, 0.6, 0.5, 1.0)), "levels must be nondecreasing"),
    (lambda: _rates((0.0, 0.5, 0.5, 1.0)), None),
    (lambda: _rates((0.5,)), "need at least two levels"),
    (lambda: _rates((0.0, 1.0), (1.0,)), "matching profile has 1 entries for 2 levels"),
    (lambda: _rates((0.0, 1.0), (1.0, _NAN)), "matching intensities must be positive and finite"),
    (lambda: _rates((0.0, 1.0), (1.0, _INF)), "matching intensities must be positive and finite"),
    # level doubling
    (lambda: _double((0.0, _NAN, 1.0)), "levels must be nondecreasing"),
    (lambda: _double((0.0, _INF, 1.0)), "levels must be nondecreasing"),
    (lambda: _double((0.0, 0.5, 0.5, 1.0)), "levels must be strictly increasing"),
    (lambda: _double((0.0,)), "need at least two levels"),
    (lambda: _double((0.0, 0.5)), "levels must run from 0 to 1"),
    # the level solver's settings
    (lambda: SolverConfig(residual_tol=_NAN), "residual_tol must be positive and finite"),
    (lambda: SolverConfig(residual_tol=_INF), "residual_tol must be positive and finite"),
    (lambda: SolverConfig(residual_tol=0.0), "residual_tol must be positive and finite"),
    (lambda: SolverConfig(max_outer=2.5), "max_outer must be an integer of at least 1, got 2.5"),
    (lambda: SolverConfig(max_outer=_NAN), "max_outer must be an integer of at least 1, got nan"),
    (lambda: SolverConfig(max_inner=True), "max_inner must be an integer of at least 1, got True"),
    (lambda: SolverConfig(max_inner=0), "max_inner must be an integer of at least 1, got 0"),
    (lambda: SolverConfig(max_outer=np.int64(3), residual_tol=1e-6), None),
    # interpolated response rates
    (lambda: PsiInterpolator((0.5, _NAN), [[0.1], [0.2]]), "anchors must be strictly increasing"),
    (lambda: PsiInterpolator((_NAN,), [[0.1]]), "quality must lie within [0, 1]"),
    (lambda: PsiInterpolator((-_INF, 0.5), [[0.1], [0.2]]), "quality must lie within [0, 1]"),
    (lambda: PsiInterpolator((0.2, 0.5), [[0.1], [_NAN]]), "anchored values must lie within [0, 1]"),
    (lambda: PsiInterpolator((0.2, 0.5), [[0.1], [0.2]]), None),
    # the Monte Carlo exponent's intensities
    (lambda: estimate_pk_rate(0.7, 0.3, _NAN, 1.0), "matching intensities must be positive and finite"),
    (lambda: estimate_pk_rate(0.7, 0.3, 1.0, _INF), "matching intensities must be positive and finite"),
    (lambda: estimate_pk_rate(0.7, 0.3, 0.0, 1.0), "matching intensities must be positive and finite"),
    # more levels out of range
    (lambda: StepBeta((0.0, 0.5, 1.0), (-0.5, 0.5)), "levels must lie within [0, 1]"),
    (lambda: StepBeta((0.0, 0.5, 1.0), (0.5, 1.5)), "levels must lie within [0, 1]"),
    (lambda: MatchProfile("table", (1.0, -1.0)), "matching intensities must be positive and finite"),
    (lambda: SolverConfig(residual_tol=-1.0), "residual_tol must be positive and finite"),
    # a question bank's response probabilities
    (lambda: _bank(((0.2, _NAN), (0.6, 0.8))), "response probabilities must lie within [0, 1]"),
    (lambda: _bank(((0.2, 0.4), (_INF, 0.8))), "response probabilities must lie within [0, 1]"),
    (lambda: _bank(((0.2, 0.4), (0.6, 1.5))), "response probabilities must lie within [0, 1]"),
    (lambda: _bank(((0.0, 0.4), (0.6, 1.0))), None),
    # a weight's normalizing constant
    (lambda: _constant(_NAN), "normalizing constant must be positive and finite"),
    (lambda: _constant(_INF), "normalizing constant must be positive and finite"),
    (lambda: _constant(0.0), "normalizing constant must be positive and finite"),
    (lambda: _constant(30.0), None),
    # a weight's qualities
    (lambda: normalize_weight("top")(_NAN, 0.2), "quality must lie within [0, 1]"),
    (lambda: normalize_weight("top")(0.5, _INF), "quality must lie within [0, 1]"),
    (lambda: normalize_weight("top")(1.5, 0.2), "quality must lie within [0, 1]"),
    (lambda: normalize_weight("top")(0.5, 0.2), None),
    (lambda: normalize_weight("top").mass(_NAN), "quality must lie within [0, 1]"),
    (lambda: normalize_weight("top").mass([0.5, _INF]), "quality must lie within [0, 1]"),
    (lambda: normalize_weight("top").mass(1.5), "quality must lie within [0, 1]"),
    (lambda: normalize_weight("top").mass([0.0, 1.0]), None),
    # more interpolated response rates, and the qualities they are read at
    (lambda: PsiInterpolator((0.2, 1.5), [[0.1], [0.2]]), "quality must lie within [0, 1]"),
    (lambda: PsiInterpolator((0.2, 0.5), [[0.1], [_INF]]), "anchored values must lie within [0, 1]"),
    (lambda: PsiInterpolator((0.2, 0.5), [[-0.1], [0.2]]), "anchored values must lie within [0, 1]"),
    (lambda: PsiInterpolator((0.2, 0.5), [[0.1], [0.2]]).rows([0.3, _NAN]),
     "quality must lie within [0, 1]"),
    (lambda: PsiInterpolator((0.2, 0.5), [[0.1], [0.2]]).rows([_INF]), "quality must lie within [0, 1]"),
    (lambda: PsiInterpolator((0.2, 0.5), [[0.1], [0.2]]).rows([1.5]), "quality must lie within [0, 1]"),
    (lambda: PsiInterpolator((0.2, 0.5), [[0.1], [0.2]]).rows([0.0, 1.0]), None),
    # the simulator's rating curve and scored qualities
    (lambda: _design_probability(_NAN), "design probabilities must lie within [0, 1]"),
    (lambda: _design_probability(_INF), "design probabilities must lie within [0, 1]"),
    (lambda: _design_probability(-0.1), "design probabilities must lie within [0, 1]"),
    (lambda: _design_probability(1.0), None),
    (lambda: _objective(0.2, _NAN), "quality must lie within [0, 1]"),
    (lambda: _objective(_INF, 0.7), "quality must lie within [0, 1]"),
    (lambda: _objective(-0.1, 0.7), "quality must lie within [0, 1]"),
    (lambda: _objective(0.2, 0.7), None),
    # the Monte Carlo exponent's levels
    (lambda: estimate_pk_rate(_NAN, 0.3, 1.0, 1.0), "levels must be nondecreasing"),
    (lambda: estimate_pk_rate(_INF, 0.3, 1.0, 1.0), "levels must lie within [0, 1]"),
    (lambda: estimate_pk_rate(0.7, -0.2, 1.0, 1.0), "levels must lie within [0, 1]"),
    (lambda: estimate_pk_rate(0.3, 0.7, 1.0, 1.0), "levels must be nondecreasing"),
    (lambda: estimate_pk_rate(0.7, 0.3, 1.0, 1.0, k_max=30, reps=1000), None),
    # one level pair's exponent
    (lambda: pairwise_rate(_NAN, 0.7, 1.0, 1.0), "levels must be nondecreasing"),
    (lambda: pairwise_rate(0.3, _INF, 1.0, 1.0), "levels must lie within [0, 1]"),
    (lambda: pairwise_rate(0.3, 1.5, 1.0, 1.0), "levels must lie within [0, 1]"),
    (lambda: pairwise_rate(0.7, 0.3, 1.0, 1.0), "levels must be nondecreasing"),
    (lambda: pairwise_rate(0.3, 0.7, _NAN, 1.0), "matching intensities must be positive and finite"),
    (lambda: pairwise_rate(0.3, 0.7, 1.0, _INF), "matching intensities must be positive and finite"),
    (lambda: pairwise_rate(0.3, 0.7, 0.0, 1.0), "matching intensities must be positive and finite"),
    (lambda: pairwise_rate(0.3, 0.7, 1.0, 2.0), None),
    # a Bernoulli divergence
    (lambda: kl_bernoulli(_NAN, 0.5), "a must lie within [0, 1]"),
    (lambda: kl_bernoulli(0.5, _INF), "t must lie within [0, 1]"),
    (lambda: kl_bernoulli(1.5, 0.5), "a must lie within [0, 1]"),
    (lambda: kl_bernoulli(0.0, 1.0), None),
    # a question fit's per-quality weights
    (lambda: _fit((1.0, _NAN)), "per-quality weights must be positive and finite"),
    (lambda: _fit((_INF, 1.0)), "per-quality weights must be positive and finite"),
    (lambda: _fit((1.0, 0.0)), "per-quality weights must be positive and finite"),
    (lambda: _fit((1.0, 1.0, 1.0)), "need 2 per-quality weights"),
    (lambda: _fit((1.0, 2.0)), None),
])
def test_vector_checks_keep_their_messages(check, message):
    if message is None:
        check()
        return
    with pytest.raises(ValueError) as err, np.errstate(all="ignore"):
        check()
    assert str(err.value) == message


def _sim(**counts):
    return SimConfig(**{"design": StepBeta((0.0, 1.0), (0.5,)), "steps": 2, "n_items": 3, **counts})


def _pk_rate(k_max=30, reps=5_000, seed=2):
    return estimate_pk_rate(0.7, 0.3, 1.0, 1.0, k_max=k_max, reps=reps, seed=seed)


# every count argument of the library: its owner, its name, its least
# value, a call that reads it, and a value the call accepts
_COUNT_ARGUMENTS = [
    ("SimConfig", "n_items", 2, lambda n: _sim(n_items=n), 3),
    ("SimConfig", "n_buyers", 1, lambda n: _sim(n_buyers=n), 2),
    ("SimConfig", "steps", 1, lambda n: _sim(steps=n), 2),
    ("SimConfig", "replicates", 1, lambda n: _sim(replicates=n), 2),
    ("run_simulation", "jobs", 1, lambda n: run_simulation(_sim(), jobs=n), 1),
    ("estimate_pk_rate", "k_max", 2, lambda n: _pk_rate(k_max=n), 30),
    ("estimate_pk_rate", "reps", 1000, lambda n: _pk_rate(reps=n), 5_000),
    ("estimate_pk_rate", "seed", 0, lambda n: _pk_rate(seed=n), 2),
    ("equalize_chain", "count", 1, lambda n: equalize_chain(0.1, 0.9, n, (1.0,) * 3), 1),
    ("nested_bisection", "M", 2, nested_bisection, 3),
    ("equispaced_partition", "M", 1, equispaced_partition, 3),
    ("optimize_partition", "M", 1, lambda n: optimize_partition(normalize_weight("top"), n, 100), 3),
    ("MatchProfile.uniform", "M", 1, MatchProfile.uniform, 3),
    ("numeric_pairwise_rate", "grid", 2, lambda n: numeric_pairwise_rate(0.3, 0.7, 1.0, 1.0, n), 100),
    ("interval_mass", "grid", 1, lambda n: interval_mass(normalize_weight("top"), 0, 0.5, n), 100),
    ("within_mass", "grid", 1, lambda n: within_mass(normalize_weight("top"), [0, 0.5, 1], n), 100),
    ("asymptotic_value", "grid", 1,
     lambda n: asymptotic_value(normalize_weight("top"), [0, 0.5, 1], n), 100),
    ("optimize_partition", "grid", 1,
     lambda n: optimize_partition(normalize_weight("kendall"), 3, grid=n), 100),
    ("SolverConfig", "max_outer", 1, lambda n: SolverConfig(max_outer=n), 3),
    ("SolverConfig", "max_inner", 1, lambda n: SolverConfig(max_inner=n), 3),
]


@pytest.mark.parametrize("name, least, call, value, good", [
    pytest.param(name, least, call, value, good, id=f"{owner}-{name}-{value!r}")
    for owner, name, least, call, good in _COUNT_ARGUMENTS
    for value in (2.5, True, "3", _NAN, least - 1, np.int64(good))
])
def test_count_checks_share_one_message(name, least, call, value, good):
    """Every count argument goes through core's one count check, which
    refuses a float, a bool, a string, NaN and a count below its least with
    one message, never a TypeError, and reads a numpy integer as an int."""
    if isinstance(value, np.integer):
        result = call(value)
        assert result == call(good)
        if isinstance(result, (SimConfig, SolverConfig)):
            assert type(getattr(result, name)) is int
        return
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{name} must be an integer of at least {least}, got {value!r}"


@pytest.mark.parametrize("argv, message", [
    (["double", "--design", "absent.json", "--times", "0", "--out", "o.json"],
     "--times must be an integer of at least 1, got 0"),
    (["estimate-psi", "--mode", "unknown", "--ratings", "absent.csv",
      "--items", "0", "--per-item", "80", "--out", "psi.csv"],
     "--items must be an integer of at least 1, got 0"),
    (["estimate-psi", "--mode", "unknown", "--ratings", "absent.csv",
      "--items", "5", "--per-item", "0", "--out", "psi.csv"],
     "--per-item must be an integer of at least 1, got 0"),
])
def test_count_flags_share_one_message(argv, message, tmp_path, monkeypatch, capsys):
    # argparse refuses a flag that is not an integer; the files do not
    # exist, so the count is checked before any file is read
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bad, name", [([0, None, 1], "NoneType"), ([0, [0.5], 1], "list")])
@pytest.mark.parametrize("check", [
    _partition,
    lambda s: StepBeta(s, (0.2, 0.5)),
    lambda s: MatchProfile.from_kind("linear", s),
    lambda s: nested_bisection(2, breakpoints=s),
    lambda s: within_mass(normalize_weight("kendall"), s),
])
def test_plain_breakpoints_go_through_float(check, bad, name):
    """Each plain breakpoint goes through float(), which refuses None and a
    nested vector, where an array conversion would read NaN or raise its own
    message."""
    with pytest.raises(TypeError) as err:
        check(bad)
    assert str(err.value) == f"float() argument must be a string or a real number, not '{name}'"


def test_typed_vectors_store_one_read_only_array():
    part = Partition([0.0, 0.5, 1.0])
    beta = StepBeta(part, [0.2, 0.6])
    g = MatchProfile.from_kind("linear", part)
    interp = PsiInterpolator((0.2, 0.5), [[0.1], [0.2]])
    # a typed input's array is returned as it is, and shared with the
    # Partition a StepBeta was built from, tuple and floats alike
    assert _checked_breakpoints(part) is part._s
    assert _checked_breakpoints(beta) is beta._s is part._s and beta.s is part.s
    assert _checked_levels(beta) is beta._t and _checked_matching(g) is g._values
    assert beta == StepBeta((0.0, 0.5, 1.0), (0.2, 0.6))
    assert repr(beta) == "StepBeta(s=(0.0, 0.5, 1.0), t=(0.2, 0.6))"
    plain = (_checked_breakpoints([0.0, 1.0]), _checked_levels([0.2]), _checked_matching([1.0]))
    for arr in (part._s, beta._t, g._values, interp._anchors, *plain):
        assert arr.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


def test_typed_vectors_pickle_through_their_constructors():
    part = Partition([0.0, 0.5, 1.0])
    typed = [
        (part, ("_s",)),
        (StepBeta(part, [0.2, 0.6]), ("_s", "_t")),
        (MatchProfile.from_kind("linear", part), ("_values",)),
        (PsiInterpolator((0.2, 0.5), [[0.1], [0.2]]), ("_anchors",)),
    ]
    for obj, arrays in typed:
        data = pickle.dumps(obj)
        clone = pickle.loads(data)
        assert type(clone) is type(obj)
        for name in arrays:
            # numpy would pickle the stored array writeable; the constructor
            # rebuilds it read-only, and the pickle holds only the init fields
            assert name.encode() not in data
            assert np.array_equal(getattr(clone, name), getattr(obj, name))
            assert not getattr(clone, name).flags.writeable
    assert pickle.loads(pickle.dumps(part)) == part
    # 323 bytes while the arrays went into the pickle
    assert b"numpy" not in pickle.dumps(StepBeta(part, [0.2, 0.6]))
    assert len(pickle.dumps(StepBeta(part, [0.2, 0.6]))) < 160


# lines of a ratings file: valid rows repeat, and every other kind of line
# either parses alike on its own line (blank, padded header) or must send
# the file through the row reader (quotes, a quoted newline, a bad
# response, a wrong field count, a byte that is not UTF-8)
_GOOD_LINES = (b"a,q1,1", b"a,q1,0", b"b,q2,1", b"b,q1,0", b"c,q2,0")
_ODD_LINES = (b"", b'"a",q1,1', b'"a\nb",q2,0', b'a,"q1",0', b"a,q1,2", b"b,q2,yes",
              b"a,q1", b"a,q1,1,x", b"b,\xffq,1", b"\xc3(,q1,0", b" ,q1,1")
_HEADERS = (b"item_id,question,response", b" item_id , question,response ",
            b"item,question,response", b'"item_id",question,response', b"item_id,question")


@st.composite
def ratings_files(draw):
    lines = draw(st.lists(st.one_of(st.sampled_from(_GOOD_LINES), st.sampled_from(_GOOD_LINES),
                                    st.sampled_from(_ODD_LINES)), max_size=12))
    if lines and draw(st.booleans()):
        # a repeated line, which the counted reader parses once
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    header = draw(st.one_of(st.sampled_from(_HEADERS[:2]), st.sampled_from(_HEADERS)))
    crlf = draw(st.booleans())
    ends = [draw(st.sampled_from((b"\r\n", b"\r"))) if crlf and draw(st.booleans()) else b"\n"
            for _ in range(len(lines) + 1)]
    text = b"".join(line + end for line, end in zip([header, *lines], ends))
    return text[:-len(ends[-1])] if draw(st.booleans()) else text


def _read_and_count(path, forms):
    header, rows = _read_csv(path, forms)
    return header, Counter(rows)


def _counted_or_error(read, path, forms=_RATINGS):
    try:
        header, rows = read(path, forms)
    except ValueError as exc:
        return str(exc)
    return header, list(rows.items())


@pytest.fixture(scope="module")
def ratings_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ratings") / "ratings.csv"


@settings(max_examples=400, deadline=None)
@given(data=ratings_files())
@example(data=b"item_id,question,response\na,q1,1\nb,q2,0\na,q1,1\n\nb,q2,0")
@example(data=b"item_id,question,response\na,q1,1\nb,q2,2\na,q1,1\nb,q2,2\n")
@example(data=b'item_id,question,response\r\n"a\nb",q1,1\na,q1,1\n')
@example(data=b"item_id,question,response\na,q1,1\na,\xffq,1\n")
@example(data=b"")
def test_counted_rows_match_the_row_reader(ratings_path, data):
    """Counting each distinct line gives the row reader's rows, counted, in
    first-appearance order, or raises the row reader's message."""
    ratings_path.write_bytes(data)
    assert _counted_or_error(_count_csv_rows, ratings_path) == (
        _counted_or_error(_read_and_count, ratings_path)
    )


@pytest.mark.parametrize("text", [
    # a quoted field spanning two lines, each of which alone parses to two fields
    'a,b\nx,"y\nz",w\n',
    # lines ending in \r and \r\n
    'a,b\nx,y\rz,w\r\nx,y\n',
])
def test_counted_rows_take_any_parser(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text, newline="")
    forms = {("a", "b"): tuple}
    assert _counted_or_error(_count_csv_rows, path, forms) == (
        _counted_or_error(_read_and_count, path, forms)
    )


def test_counted_rows_name_a_missing_file(tmp_path):
    path = tmp_path / "absent.csv"
    counted = _counted_or_error(_count_csv_rows, path)
    assert counted.startswith(f"{path}: cannot read: ")
    assert counted == _counted_or_error(_read_and_count, path)
