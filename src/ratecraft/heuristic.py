"""Fitting an implementable question distribution to a target rating curve.

A platform cannot deploy an arbitrary rating function directly; it can
only choose which question to ask.  Given empirical response rates per
question, the best static question distribution H minimizes the L1 gap,
over the bank's anchor qualities, between the target curve and the
mixture the questions induce.  That minimization is a small linear
program.  It is solved by the simplex method, first in floats and then in
exact rational arithmetic, so each returned mass is the optimal vertex's
mass rounded correctly, the same on every CPU and numpy build.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import QuestionBank, QuestionDistribution, StepBeta, _checked_positive
from .responses import PsiInterpolator

__all__ = [
    "FitError",
    "MixtureBeta",
    "fit_h",
    "induced_beta",
    "l1_gap",
    "naive_uniform_h",
]


class FitError(RuntimeError):
    """Raised when the fit's simplex method stops without an optimal
    vertex.  In exact arithmetic it always reaches one, as the objective
    is bounded below, so this signals a defect rather than bad input."""


def _target_vector(beta, bank: QuestionBank) -> np.ndarray:
    thetas = np.asarray(bank.thetas)
    target = np.asarray(beta(thetas), dtype=float)
    if target.shape != thetas.shape:
        raise ValueError("target function must return one value per quality")
    if np.any(np.isnan(target)):
        raise ValueError("target function is undefined on an anchor quality")
    return target


def _anchor_weights(theta_weights: Sequence[float] | None, m: int) -> np.ndarray:
    """The ``m`` per-quality weights of a fit, all 1 if not given."""
    if theta_weights is None:
        return np.ones(m)
    if np.shape(theta_weights) != (m,):
        raise ValueError(f"need {m} per-quality weights")
    return _checked_positive(theta_weights, "per-quality weights")


def fit_h(
    beta: StepBeta | Callable,
    bank: QuestionBank,
    constraint: str = "free",
    theta_weights: Sequence[float] | None = None,
) -> QuestionDistribution:
    """Question distribution whose induced curve is L1-closest to ``beta``.

    Minimizes ``sum_i u_i |beta(theta_i) - (psi H)_i|`` over the simplex,
    rewritten with two deviations per anchor quality, the target's excess
    p_i over the mix and its shortfall q_i: psi H + p - q = beta(theta),
    sum(H) = 1, all nonnegative, cost u·(p + q).
    ``constraint="single_question"`` restricts H to a point mass; ties go
    to the lowest question index.
    ``theta_weights`` (optional, default equal) weight the anchors.

    The free fit solves this LP exactly by the simplex method, started
    from all mass on the first question (Bland's rule, with long steps
    across the anchors where the mix crosses the target; see
    ``_simplex``), and returns each mass of the optimal vertex correctly
    rounded to a float.  When several mixes are optimal it returns the
    first optimal vertex that path reaches; so a question whose response
    column repeats an earlier question's never gets mass, since the two
    always price the same and the earlier one enters first.

    The reported objective is recomputed from the returned H, so it is
    exact for the distribution actually handed back.
    """
    if constraint not in ("free", "single_question"):
        raise ValueError(f"unknown constraint {constraint!r}")
    target = _target_vector(beta, bank)
    m, n = bank.n_thetas, bank.n_questions
    u = _anchor_weights(theta_weights, m)
    psi = bank.psi

    if constraint == "single_question":
        gaps = (u[:, None] * np.abs(target[:, None] - psi)).sum(axis=0)
        j = int(np.argmin(gaps))
        probs = tuple(1.0 if k == j else 0.0 for k in range(n))
        return QuestionDistribution(bank.questions, probs, float(gaps[j]))

    if not np.all(np.isfinite(target)):
        raise ValueError("target function is infinite on an anchor quality")
    probs = tuple(float(x) for x in _exact_fit(psi.tolist(), target.tolist(), u.tolist()))
    objective = float((u * np.abs(target - psi @ np.array(probs))).sum())
    return QuestionDistribution(bank.questions, probs, objective)


def _solve(a: list, b: list) -> list | None:
    """x with ``a @ x == b``, by Gauss-Jordan elimination on the largest
    remaining pivot in its column; None when ``a`` is singular.  Every
    step is one scalar operation in the entries' own number type."""
    k = len(b)
    rows = [[*row, v] for row, v in zip(a, b)]
    for c in range(k):
        p = max(range(c, k), key=lambda r: abs(rows[r][c]))
        if not rows[p][c]:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for r in range(k):
            if r != c and rows[r][c]:
                f = rows[r][c] / pivot[c]
                rows[r] = [x - f * y for x, y in zip(rows[r], pivot)]
    return [row[k] / row[c] for c, row in enumerate(rows)]


def _simplex(psi: list, t: list, u: list, basis: tuple, exact: bool) -> tuple:
    """The simplex method for the fit's LP, from the feasible ``basis``.

    The LP is: minimize u·(p + q) over h, p, q >= 0 with psi h + p - q = t
    and sum(h) = 1.  A basis is ``(S, sgn)``: the questions S (ascending)
    that may carry mass, and per anchor i which deviation is basic, p
    (``sgn[i] = 1``, the mix below the target) or q (-1), or neither (0,
    the mix meets the target there).  Rows with ``sgn[i] = 0`` and the
    sum row fix the masses on S through one small square system; every
    step solves it afresh.

    Variables are numbered h_0.., p_0.., q_0..; the entering one is the
    lowest-numbered with a negative reduced cost (Bland's rule).  The step
    runs on past an anchor where the mix crosses the target, swapping that
    anchor's p and q, while the objective still falls (the long step of
    Barrodale and Roberts for L1 fits); otherwise the basic variable that
    reaches zero first leaves, the lowest-numbered among ties.  Steps of
    length zero are plain Bland steps, so the method cannot cycle.

    ``exact`` runs it in the entries' ``Fraction`` type with no tolerance
    and no step limit; otherwise in floats, with tolerance 1e-9 (``u``
    scaled to at most 1) and at most ``10 (n + 2m)`` steps.  Returns the
    last basis and the masses on its S, or None for the masses when the
    run stopped before an optimal vertex: at the step limit, on a basis
    that is singular or infeasible, or on a step with no bound.
    """
    m, n = len(t), len(psi[0])
    cols = list(zip(*psi))
    one = type(u[0])(1)
    total = sum if exact else math.fsum
    tol = 0 if exact else 1e-9
    steps = itertools.count() if exact else range(10 * (n + 2 * m))
    S, sgn = basis

    def dot(xs, ys):
        return total(map(operator.mul, xs, ys))

    for _ in steps:
        tight = [i for i in range(m) if not sgn[i]]
        free = [i for i in range(m) if sgn[i]]
        core = [[psi[i][j] for j in S] for i in tight] + [[one] * len(S)]
        masses = _solve(core, [t[i] for i in tight] + [one])
        # duals: y_i = sgn_i u_i on free anchors; the tight ones and the
        # sum row's y0 = z[-1] make every question in S price at zero
        y = [sgn[i] * u[i] for i in range(m)]
        z = _solve(list(zip(*core)), [-dot(y, cols[j]) for j in S])
        if masses is None or z is None:
            return (S, sgn), None
        basic = S + [n + i if sgn[i] > 0 else n + m + i for i in free]
        rows = [[psi[i][j] for j in S] for i in free]
        values = masses + [sgn[i] * (t[i] - dot(row, masses)) for i, row in zip(free, rows)]
        if any(v < -tol for v in values):
            return (S, sgn), None
        for i, zi in zip(tight, z):
            y[i] = zi
        reduced = itertools.chain(
            ((j, -(dot(y, cols[j]) + z[-1])) for j in range(n) if j not in S),
            ((n + i, u[i] - y[i]) for i in tight),
            ((n + m + i, u[i] + y[i]) for i in tight),
        )
        enter, slope = next(((v, d) for v, d in reduced if d < -tol), (None, None))
        if enter is None:
            return (S, sgn), masses
        if enter < n:
            a = cols[enter]
            a_core = [a[i] for i in tight] + [one]
        else:
            a = [0 * one] * m
            a[(enter - n) % m] = one if enter < n + m else -one
            a_core = [a[i] for i in tight] + [0 * one]
        w = _solve(core, a_core)
        w += [sgn[i] * (a[i] - dot(row, w)) for i, row in zip(free, rows)]
        ratios = sorted((v / wv, var, wv) for var, v, wv in zip(basic, values, w) if wv > tol)
        if not ratios:
            return (S, sgn), None
        S, sgn = list(S), list(sgn)
        for theta, leave, wv in ratios:
            if leave < n or not theta > 0:
                break
            i = (leave - n) % m
            slope = slope + 2 * u[i] * wv
            if not slope < -tol:
                break
            sgn[i] = -sgn[i]
        if leave < n:
            S.remove(leave)
        else:
            sgn[(leave - n) % m] = 0
        if enter < n:
            bisect.insort(S, enter)
        else:
            sgn[(enter - n) % m] = 1 if enter < n + m else -1
    return (S, sgn), None


def _exact_fit(psi: list, target: list, u: list) -> list:
    """The masses of the fit's optimal vertex, as exact ``Fraction``s.

    The simplex method runs first in floats from the basis h = e_1 (each
    anchor's p or q basic by the sign of target - psi[:, 0]), then again
    in exact arithmetic from the basis the float run ended on, which it
    usually confirms at once: its masses and deviations are nonnegative
    and no reduced cost is negative.  When that basis is singular or
    infeasible, the exact run starts over from h = e_1.
    """
    from fractions import Fraction

    m = len(target)
    start = ([0], [1 if target[i] >= psi[i][0] else -1 for i in range(m)])
    umax = max(u)
    basis, _ = _simplex(psi, target, [x / umax for x in u], start, exact=False)
    exact = (
        [[Fraction(x) for x in row] for row in psi],
        [Fraction(x) for x in target],
        [Fraction(x) for x in u],
    )
    (S, _), masses = _simplex(*exact, basis, exact=True)
    if masses is None:
        (S, _), masses = _simplex(*exact, start, exact=True)
    if masses is None:
        raise FitError("the simplex method stopped without an optimal vertex")
    h = [Fraction(0)] * len(psi[0])
    for j, x in zip(S, masses):
        h[j] = x
    return h


def naive_uniform_h(bank: QuestionBank) -> QuestionDistribution:
    """Equal mass on every question; the no-design baseline."""
    n = bank.n_questions
    return QuestionDistribution(bank.questions, (1.0 / n,) * n, None)


@dataclass(frozen=True)
class MixtureBeta:
    """Rating curve induced by mixing questions: the chance a random
    question from the mix draws a positive answer at quality theta.

    Picklable, so simulation replicates can ship it to worker processes.
    """

    interp: PsiInterpolator
    weights: tuple[float, ...]

    def __call__(self, theta):
        rows = self.interp.rows(np.atleast_1d(np.asarray(theta, dtype=float)))
        out = rows @ np.asarray(self.weights)
        if np.isscalar(theta) or np.asarray(theta).ndim == 0:
            return float(out[0])
        return out


def induced_beta(
    h: QuestionDistribution,
    bank: QuestionBank,
    interp: PsiInterpolator | None = None,
) -> MixtureBeta:
    """The rating curve a question distribution induces, as a function.

    Returns a vectorized callable theta -> probability, using the
    interpolated response rates.  The distribution and bank must agree on
    the question list.
    """
    if h.questions != bank.questions:
        raise ValueError("question distribution and bank list different questions")
    interp = interp or PsiInterpolator.from_bank(bank)
    if interp.values.shape[1] != len(h.questions):
        raise ValueError("interpolator and bank have different question counts")
    return MixtureBeta(interp, tuple(float(p) for p in h.probabilities))


def l1_gap(
    beta: StepBeta | Callable,
    h: QuestionDistribution,
    bank: QuestionBank,
    theta_weights: Sequence[float] | None = None,
) -> float:
    """Weighted L1 distance at the anchors between ``beta`` and the curve
    induced by ``h`` (no interpolation enters: anchors only)."""
    if h.questions != bank.questions:
        raise ValueError("question distribution and bank list different questions")
    target = _target_vector(beta, bank)
    u = _anchor_weights(theta_weights, bank.n_thetas)
    mix = bank.psi @ np.asarray(h.probabilities)
    return float((u * np.abs(target - mix)).sum())
