import pickle
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ratecraft.core import (
    MatchProfile,
    QuestionBank,
    QuestionDistribution,
    StepBeta,
    normalize_weight,
)
from ratecraft.fixtures import fixture_bank
from ratecraft.heuristic import (
    FitError,
    MixtureBeta,
    _exact_fit,
    fit_h,
    induced_beta,
    l1_gap,
    naive_uniform_h,
)
from ratecraft.optimizer import nested_bisection
from ratecraft.partition import optimize_partition
from ratecraft.responses import PsiInterpolator


def simplex_grid_minimum(bank, beta, resolution=100):
    """Brute-force minimum of the fit objective over a simplex grid."""
    target = np.asarray(beta(np.asarray(bank.thetas)))
    n = bank.n_questions
    assert n == 4, "oracle written for four questions"
    idx = np.indices((resolution + 1,) * 3).reshape(3, -1)
    keep = idx.sum(axis=0) <= resolution
    idx = idx[:, keep]
    h = np.vstack([idx, resolution - idx.sum(axis=0)]) / resolution
    mixes = h.T @ bank.psi.T
    return float(np.abs(mixes - target).sum(axis=1).min())


def exact_objective(bank, target, u, h):
    """sum_i u_i |target_i - (psi h)_i| in exact arithmetic, for masses
    ``h`` scaled exactly to sum to 1."""
    h = [Fraction(x) for x in h]
    h = [x / sum(h) for x in h]
    return sum(
        Fraction(ui) * abs(Fraction(ti) - sum(Fraction(p) * x for p, x in zip(row, h)))
        for ui, ti, row in zip(u, target, bank.psi.tolist())
    )


def fraction_solve(a, b):
    """x with a @ x = b in Fractions, or None when ``a`` is singular."""
    k = len(b)
    rows = [[Fraction(v) for v in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    for c in range(k):
        p = next((r for r in range(c, k) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(k):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[c][k] / rows[c][c] for c in range(k)]


def basic_feasible_mixes(bank, target, u):
    """Every vertex of the fit's LP, by brute force: a support S of k
    questions and k - 1 anchors where the mix meets the target fix the
    masses; keep those that are nonnegative, with their exact objective."""
    m, n = bank.n_thetas, bank.n_questions
    psi = bank.psi.tolist()
    out = []
    for k in range(1, min(n, m + 1) + 1):
        for S in combinations(range(n), k):
            for R in combinations(range(m), k - 1):
                a = [[psi[i][j] for j in S] for i in R] + [[1] * k]
                x = fraction_solve(a, [target[i] for i in R] + [1])
                if x is None or min(x) < 0:
                    continue
                h = [Fraction(0)] * n
                for j, v in zip(S, x):
                    h[j] = v
                out.append((exact_objective(bank, target, u, h), h))
    return out


def random_fit_instance(seed):
    """A bank of 2-6 anchors and 2-6 questions, a target and weights."""
    rng = np.random.default_rng(seed)
    m, n = (int(v) for v in rng.integers(2, 7, size=2))
    thetas = tuple(np.sort(rng.choice(np.arange(1, 100), m, replace=False)) / 100)
    psi = np.sort(rng.random((m, n)), axis=0)
    bank = QuestionBank(thetas, tuple(f"q{j}" for j in range(n)), psi)
    return bank, rng.random(m).tolist(), (rng.random(m) + 0.1).tolist()


def highs_masses(bank, target, u):
    """The LP fit by scipy's HiGHS, the solver fit_h used before its exact
    simplex: one deviation bound per anchor, both sides."""
    from scipy.optimize import linprog

    m, n = bank.n_thetas, bank.n_questions
    psi, target = bank.psi, np.asarray(target)
    res = linprog(
        np.concatenate([np.zeros(n), u]),
        A_ub=np.block([[psi, -np.eye(m)], [-psi, -np.eye(m)]]),
        b_ub=np.concatenate([target, -target]),
        A_eq=np.concatenate([np.ones(n), np.zeros(m)])[None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * (n + m),
        method="highs",
    )
    assert res.success, res.message
    return np.clip(res.x[:n], 0.0, None)


class TestExactVertex:
    @pytest.mark.parametrize("seed", range(30))
    def test_equals_best_vertex_by_enumeration(self, seed):
        bank, target, u = random_fit_instance(seed)
        exact = _exact_fit(bank.psi.tolist(), target, u)
        vertices = basic_feasible_mixes(bank, target, u)
        best = min(obj for obj, _ in vertices)
        assert exact_objective(bank, target, u, exact) == best
        assert exact in [h for obj, h in vertices if obj == best]
        fit = fit_h(lambda th: np.asarray(target), bank, theta_weights=u)
        assert fit.probabilities == tuple(float(x) for x in exact)

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_highs(self, seed):
        bank, target, u = random_fit_instance(seed)
        exact = _exact_fit(bank.psi.tolist(), target, u)
        highs = highs_masses(bank, target, u)
        assert [x > 0 for x in exact] == [x > 1e-9 for x in highs]
        assert exact_objective(bank, target, u, exact) <= exact_objective(bank, target, u, highs)

    def test_duplicate_question_never_gets_mass(self):
        # b2 repeats b; 0.5 b + 0.5 c meets the target exactly
        psi = [[0.5, 0.25, 0.25, 0.0], [0.75, 0.5, 0.5, 0.25], [1.0, 0.75, 0.75, 0.5]]
        bank = QuestionBank((0.2, 0.5, 0.8), ("a", "b", "b2", "c"), np.array(psi))
        fit = fit_h(lambda th: np.array([0.125, 0.375, 0.625]), bank)
        assert fit.probabilities == (0.0, 0.5, 0.0, 0.5)
        assert fit.objective == 0.0
        swapped = QuestionBank(
            (0.2, 0.5, 0.8), ("b2", "a", "b", "c"), np.array(psi)[:, [2, 0, 1, 3]]
        )
        fit = fit_h(lambda th: np.array([0.125, 0.375, 0.625]), swapped)
        assert fit.probabilities == (0.5, 0.0, 0.0, 0.5)

    def test_target_met_by_several_mixes(self):
        # c alone and 0.5 a + 0.5 b both meet the target: the first
        # optimal vertex on the path from all mass on the first question
        psi = np.array([[0.0, 0.5, 0.25], [1.0, 0.5, 0.75]])
        target = lambda th: np.array([0.25, 0.75])
        bank = QuestionBank((0.2, 0.8), ("a", "b", "c"), psi)
        assert fit_h(target, bank).probabilities == (0.5, 0.5, 0.0)
        bank = QuestionBank((0.2, 0.8), ("c", "a", "b"), psi[:, [2, 0, 1]])
        assert fit_h(target, bank).probabilities == (1.0, 0.0, 0.0)

    def test_identical_anchor_rows(self):
        psi = np.array([[0.125, 0.5, 0.75], [0.125, 0.5, 0.75], [0.25, 0.75, 1.0]])
        bank = QuestionBank((0.2, 0.4, 0.8), ("a", "b", "c"), psi)
        target = [0.375, 0.375, 0.875]
        exact = _exact_fit(psi.tolist(), target, [1.0] * 3)
        assert exact == [Fraction(1, 3), Fraction(2, 3), Fraction(0)]
        assert exact_objective(bank, target, [1] * 3, exact) == min(
            obj for obj, _ in basic_feasible_mixes(bank, target, [1] * 3)
        )
        fit = fit_h(lambda th: np.array(target), bank)
        assert fit.probabilities == (1 / 3, 2 / 3, 0.0)


# masses of the fixture-bank fit to each named weight's M=200 design
# (grid 1000, uniform matching: its levels are the same on every SIMD
# level numpy dispatches to), as float.hex, zeros left out
FIXTURE_FITS = {
    "kendall": {"grade_3": "0x1.0a548bd874e9cp-1", "grade_4": "0x1.eb56e84f162c8p-2"},
    "spearman": {"grade_3": "0x1.0a548bd874e9cp-1", "grade_4": "0x1.eb56e84f162c8p-2"},
    "top": {"grade_5": "0x1.0000000000000p+0"},
    "bottom": {"grade_2": "0x1.9d47283e7842bp-1", "grade_3": "0x1.8ae35f061ef54p-3"},
    "extremes": {
        "grade_1": "0x1.92575e12fca81p-3",
        "grade_4": "0x1.4926cbb86cb0fp-1",
        "grade_5": "0x1.490d730b50941p-3",
    },
}

# the linear-matching designs of the same weights have levels that move
# in their last bits with numpy's SIMD level, so these pin the fit to
# their anchor targets as computed once, given as float.hex
LINEAR_FITS = [
    (
        ("0x1.3c1fed2bed2f1p-4", "0x1.94f392447e11fp-2", "0x1.63ef69882789dp-1",
         "0x1.cb291f3258c8fp-1", "0x1.fae85ff7ca055p-1"),
        {"grade_2": "0x1.44e6bf8bb2417p-1", "grade_3": "0x1.763280e89b7d2p-2"},
    ),
    (
        ("0x1.44fd9210d6b5bp-3", "0x1.42ac6e7a8f619p-1", "0x1.c8930e9ba061dp-1",
         "0x1.f76d141130693p-1", "0x1.ffd1c67a98c01p-1"),
        {"grade_1": "0x1.b3c48ecb334e2p-1", "grade_2": "0x1.30edc4d332c78p-3"},
    ),
]


def fit_hex(fit):
    return {q: p.hex() for q, p in zip(fit.questions, fit.probabilities) if p}


class TestPinnedFits:
    @pytest.mark.parametrize("kind", sorted(FIXTURE_FITS))
    def test_fixture_bank_fit(self, kind):
        part = optimize_partition(normalize_weight(kind), 200, 1000)
        design = nested_bisection(200, MatchProfile.from_kind("uniform", part), breakpoints=part)
        assert fit_hex(fit_h(design.beta, fixture_bank())) == FIXTURE_FITS[kind]

    @pytest.mark.parametrize("targets, masses", LINEAR_FITS)
    def test_fixture_bank_fit_to_linear_design_targets(self, targets, masses):
        target = np.array([float.fromhex(v) for v in targets])
        assert fit_hex(fit_h(lambda th: target, fixture_bank())) == masses


class TestFitH:
    def test_threshold_case_exact_uniform(self, threshold_bank, quartile_beta):
        h = fit_h(quartile_beta, threshold_bank)
        assert h.objective == pytest.approx(0.0, abs=1e-9)
        assert h.probabilities == pytest.approx((1 / 3,) * 3, abs=1e-9)

    def test_single_question_bank(self):
        bank = QuestionBank((0.2, 0.8), ("only",), np.array([[0.3], [0.7]]))
        beta = StepBeta((0.0, 0.5, 1.0), (0.1, 0.9))
        h = fit_h(beta, bank)
        assert h.probabilities == (1.0,)
        assert h.objective == pytest.approx(
            abs(0.1 - 0.3) + abs(0.9 - 0.7), abs=1e-12
        )

    def test_lp_beats_simplex_grid_within_slack(self, random_bank):
        beta = StepBeta((0.0, 0.3, 0.6, 1.0), (0.1, 0.5, 0.9))
        h = fit_h(beta, random_bank)
        grid_min = simplex_grid_minimum(random_bank, beta)
        assert h.objective <= grid_min + 1e-12
        assert h.objective >= grid_min - 0.02

    def test_lp_dominates_every_vertex(self, random_bank):
        beta = StepBeta((0.0, 0.5, 1.0), (0.2, 0.8))
        h = fit_h(beta, random_bank)
        target = np.asarray(beta(np.asarray(random_bank.thetas)))
        for col in range(random_bank.n_questions):
            vertex = np.abs(target - random_bank.psi[:, col]).sum()
            assert h.objective <= vertex + 1e-12

    def test_single_question_is_best_vertex(self, random_bank):
        beta = StepBeta((0.0, 0.5, 1.0), (0.2, 0.8))
        h = fit_h(beta, random_bank, constraint="single_question")
        target = np.asarray(beta(np.asarray(random_bank.thetas)))
        gaps = np.abs(target[:, None] - random_bank.psi).sum(axis=0)
        best = int(np.argmin(gaps))
        assert h.probabilities[best] == 1.0
        assert h.objective == pytest.approx(float(gaps[best]), abs=1e-12)

    def test_single_question_tie_takes_lowest_index(self):
        psi = np.array([[0.2, 0.2], [0.9, 0.9]])
        bank = QuestionBank((0.3, 0.7), ("first", "second"), psi)
        beta = StepBeta((0.0, 0.5, 1.0), (0.1, 0.8))
        h = fit_h(beta, bank, constraint="single_question")
        assert h.probabilities == (1.0, 0.0)

    def test_restricting_never_helps(self, random_bank):
        beta = StepBeta((0.0, 0.4, 1.0), (0.15, 0.85))
        free = fit_h(beta, random_bank)
        single = fit_h(beta, random_bank, constraint="single_question")
        assert single.objective >= free.objective - 1e-12

    def test_simplex_constraints_exact(self, random_bank):
        beta = StepBeta((0.0, 0.5, 1.0), (0.0, 1.0))
        h = fit_h(beta, random_bank)
        assert abs(sum(h.probabilities) - 1.0) <= 1e-12
        assert all(p >= 0.0 for p in h.probabilities)

    def test_objective_matches_l1_gap_of_own_output(self, random_bank):
        beta = StepBeta((0.0, 0.3, 1.0), (0.2, 0.9))
        h = fit_h(beta, random_bank)
        assert l1_gap(beta, h, random_bank) == pytest.approx(
            h.objective, abs=1e-10
        )

    def test_theta_weights_change_the_tradeoff(self, random_bank):
        beta = StepBeta((0.0, 0.3, 0.6, 1.0), (0.05, 0.5, 0.95))
        plain = fit_h(beta, random_bank)
        weights = (100.0, 1.0, 1.0, 1.0, 1.0)
        skewed = fit_h(beta, random_bank, theta_weights=weights)
        assert l1_gap(beta, skewed, random_bank, theta_weights=weights) == (
            pytest.approx(skewed.objective, abs=1e-10)
        )
        # the weighted fit cannot beat the plain one on the plain objective
        assert l1_gap(beta, skewed, random_bank) >= plain.objective - 1e-12

    def test_unknown_constraint(self, random_bank):
        beta = StepBeta((0.0, 0.5, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            fit_h(beta, random_bank, constraint="pair")

    def test_infinite_target_is_refused(self, random_bank):
        with pytest.raises(ValueError, match="infinite"):
            fit_h(lambda th: np.full(len(th), np.inf), random_bank)

    def test_weight_validation(self, random_bank):
        beta = StepBeta((0.0, 0.5, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            fit_h(beta, random_bank, theta_weights=(1.0, 2.0))


class TestNaiveUniform:
    def test_equal_mass(self, random_bank):
        h = naive_uniform_h(random_bank)
        assert h.probabilities == (0.25,) * 4
        assert h.questions == random_bank.questions


class TestInducedBeta:
    def test_point_mass_recovers_column(self, random_bank):
        h = QuestionDistribution(random_bank.questions, (0.0, 1.0, 0.0, 0.0), None)
        curve = induced_beta(h, random_bank)
        thetas = np.asarray(random_bank.thetas)
        assert np.allclose(curve(thetas), random_bank.psi[:, 1])

    def test_uniform_over_thresholds_at_anchor(self):
        # theta=0.6 clears two of three cut points; with 0.6 an anchor the
        # mixture value is exactly 2/3
        thetas = (0.2, 0.4, 0.6, 0.8)
        cuts = (0.25, 0.5, 0.75)
        psi = np.array([[1.0 if th >= c else 0.0 for c in cuts] for th in thetas])
        bank = QuestionBank(thetas, ("c25", "c50", "c75"), psi)
        h = QuestionDistribution(bank.questions, (1 / 3, 1 / 3, 1 / 3), None)
        curve = induced_beta(h, bank)
        assert curve(0.6) == pytest.approx(2 / 3, abs=1e-12)

    def test_range_and_monotonicity(self, random_bank):
        h = naive_uniform_h(random_bank)
        curve = induced_beta(h, random_bank)
        grid = np.linspace(0, 1, 101)
        vals = curve(grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_question_mismatch(self, random_bank):
        h = QuestionDistribution(("x", "y"), (0.5, 0.5), None)
        with pytest.raises(ValueError):
            induced_beta(h, random_bank)

    def test_scalar_and_vector_agree(self, random_bank):
        curve = induced_beta(naive_uniform_h(random_bank), random_bank)
        assert curve(0.37) == pytest.approx(curve(np.array([0.37]))[0], abs=0)

    def test_picklable_for_worker_processes(self, random_bank):
        curve = induced_beta(naive_uniform_h(random_bank), random_bank)
        clone = pickle.loads(pickle.dumps(curve))
        assert isinstance(clone, MixtureBeta)
        grid = np.linspace(0, 1, 17)
        assert np.array_equal(clone(grid), curve(grid))


class TestL1Gap:
    def test_zero_on_exact_instance(self, threshold_bank, quartile_beta):
        h = QuestionDistribution(threshold_bank.questions, (1 / 3,) * 3, None)
        assert l1_gap(quartile_beta, h, threshold_bank) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_optimal_output_dominates_alternatives(self, random_bank):
        beta = StepBeta((0.0, 0.5, 1.0), (0.1, 0.9))
        best = fit_h(beta, random_bank)
        rng = np.random.default_rng(5)
        for _ in range(25):
            raw = rng.random(4)
            other = QuestionDistribution(
                random_bank.questions, tuple(raw / raw.sum()), None
            )
            assert l1_gap(beta, best, random_bank) <= (
                l1_gap(beta, other, random_bank) + 1e-12
            )
