"""Fitting an implementable question distribution to a target rating curve.

A platform cannot deploy an arbitrary rating function directly; it can
only choose which question to ask.  Given empirical response rates per
question, the best static question distribution H minimizes the L1 gap,
over the bank's anchor qualities, between the target curve and the
mixture the questions induce.  That minimization is a small linear
program and is solved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import QuestionBank, QuestionDistribution, StepBeta
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
    """Raised when the LP solver fails to return an optimal point."""


def _target_vector(beta, bank: QuestionBank) -> np.ndarray:
    thetas = np.asarray(bank.thetas)
    target = np.asarray(beta(thetas), dtype=float)
    if target.shape != thetas.shape:
        raise ValueError("target function must return one value per quality")
    if np.any(np.isnan(target)):
        raise ValueError("target function is undefined on an anchor quality")
    return target


def _check_weights(
    theta_weights: Sequence[float] | None, m: int
) -> np.ndarray:
    if theta_weights is None:
        return np.ones(m)
    u = np.asarray(theta_weights, dtype=float)
    if u.shape != (m,):
        raise ValueError(f"need {m} per-quality weights")
    if np.any(u <= 0.0) or not np.all(np.isfinite(u)):
        raise ValueError("per-quality weights must be positive and finite")
    return u


def fit_h(
    beta: StepBeta | Callable,
    bank: QuestionBank,
    constraint: str = "free",
    theta_weights: Sequence[float] | None = None,
) -> QuestionDistribution:
    """Question distribution whose induced curve is L1-closest to ``beta``.

    Minimizes ``sum_i u_i |beta(theta_i) - (psi H)_i|`` over the simplex,
    rewritten with one auxiliary variable per anchor quality bounding the
    absolute deviation from both sides.  ``constraint="single_question"``
    restricts H to a point mass; ties go to the lowest question index.
    ``theta_weights`` (optional, default equal) weight the anchors.

    The reported objective is recomputed from the returned H, so it is
    exact for the distribution actually handed back.
    """
    if constraint not in ("free", "single_question"):
        raise ValueError(f"unknown constraint {constraint!r}")
    target = _target_vector(beta, bank)
    m, n = bank.n_thetas, bank.n_questions
    u = _check_weights(theta_weights, m)
    psi = bank.psi

    if constraint == "single_question":
        gaps = (u[:, None] * np.abs(target[:, None] - psi)).sum(axis=0)
        j = int(np.argmin(gaps))
        probs = tuple(1.0 if k == j else 0.0 for k in range(n))
        return QuestionDistribution(bank.questions, probs, float(gaps[j]))

    # scipy.optimize takes most of a second to import; only the LP needs it
    from scipy.optimize import linprog

    # variables [H_1..H_n, e_1..e_m]; e_i >= |target_i - (psi H)_i|
    cost = np.concatenate([np.zeros(n), u])
    a_ub = np.block(
        [
            [psi, -np.eye(m)],
            [-psi, -np.eye(m)],
        ]
    )
    b_ub = np.concatenate([target, -target])
    a_eq = np.concatenate([np.ones(n), np.zeros(m)])[None, :]
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * (n + m),
        method="highs",
    )
    if not res.success:
        raise FitError(f"LP solver failed: {res.message}")
    h = np.asarray(res.x[:n], dtype=float)
    if np.any(h < -1e-14):
        raise FitError(f"LP returned infeasible mass {h.min()}")
    h = np.clip(h, 0.0, None)
    h /= h.sum()
    objective = float((u * np.abs(target - psi @ h)).sum())
    return QuestionDistribution(bank.questions, tuple(h), objective)


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
    u = _check_weights(theta_weights, bank.n_thetas)
    mix = bank.psi @ np.asarray(h.probabilities)
    return float((u * np.abs(target - mix)).sum())
