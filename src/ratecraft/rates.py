"""Ranking-error exponents for step rating functions.

When two items with distinct rating levels accumulate binomial scores, the
probability that their observed ranking is wrong decays exponentially in
the number of ratings.  This module computes that decay rate: in closed
form, by direct numeric minimization (used as an independent check), and
for whole designs as the minimum over adjacent level pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    MatchProfile,
    StepBeta,
    _checked_count,
    _checked_levels,
    _checked_matching,
    _checked_unit,
)

__all__ = [
    "kl_bernoulli",
    "inf_point",
    "pair_rates",
    "pairwise_rate",
    "numeric_pairwise_rate",
    "adjacent_rates",
    "overall_rate",
    "PairRate",
    "pair_report",
]


def _checked_pair(t_lo, t_hi, g_lo, g_hi) -> tuple[float, float, float, float]:
    """One level pair's arguments as floats, checked as the levels
    (t_lo, t_hi) and then the matching intensities (g_lo, g_hi)."""
    t_lo, t_hi = _checked_levels((t_lo, t_hi)).tolist()
    g_lo, g_hi = _checked_matching((g_lo, g_hi)).tolist()
    return t_lo, t_hi, g_lo, g_hi


def kl_bernoulli(a: float, t: float) -> float:
    """Kullback-Leibler divergence between Bernoulli(a) and Bernoulli(t).

    Computes ``a log(a/t) + (1-a) log((1-a)/(1-t))`` with the usual
    conventions: ``0 log 0 = 0``, and a degenerate reference ``t`` in
    {0, 1} gives infinity unless ``a`` equals it.
    """
    a, t = float(_checked_unit(a, "a")), float(_checked_unit(t, "t"))
    if a == t:
        return 0.0
    if t == 0.0 or t == 1.0:
        return math.inf
    out = 0.0
    if a > 0.0:
        out += a * math.log(a / t)
    if a < 1.0:
        out += (1.0 - a) * math.log((1.0 - a) / (1.0 - t))
    # the two terms nearly cancel when a is near t, and rounding can leave
    # a value just below 0, which no divergence takes
    return max(out, 0.0)


def _kl_grid(a: np.ndarray, t: float) -> np.ndarray:
    """:func:`kl_bernoulli` over an array of ``a``, same conventions; the
    scalar form stays pure Python because it is called once per point."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0.0, a * np.log(a / t), 0.0) + np.where(
            a < 1.0, (1.0 - a) * np.log((1.0 - a) / (1.0 - t)), 0.0
        )


def inf_point(t_lo: float, t_hi: float, g_lo: float, g_hi: float) -> float:
    """Score value at which the weighted KL objective is smallest.

    This is the common score both items are likeliest to drift to when
    their ranking inverts: the minimizer over ``a`` of
    ``g_lo * KL(a, t_lo) + g_hi * KL(a, t_hi)``.  Closed form
    ``c / (1 + c)`` with ``c`` the geometric mean of the odds, weighted by
    the matching intensities.
    """
    t_lo, t_hi, g_lo, g_hi = _checked_pair(t_lo, t_hi, g_lo, g_hi)
    if t_lo == 0.0 and t_hi == 1.0:
        raise ValueError("objective is infinite everywhere for levels 0 and 1")
    if t_lo == 0.0:
        return 0.0
    if t_hi == 1.0:
        return 1.0
    log_c = (
        g_lo * (math.log(t_lo) - math.log1p(-t_lo))
        + g_hi * (math.log(t_hi) - math.log1p(-t_hi))
    ) / (g_lo + g_hi)
    # c/(1+c) computed stably on the log scale
    if log_c > 0:
        return 1.0 / (1.0 + math.exp(-log_c))
    c = math.exp(log_c)
    return c / (1.0 + c)


def _log_excess(ratio: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``log(ratio) - v`` where ``ratio = 1 + v``, without cancellation.

    Near 0 it sums ``-v s + 2 s^3 (1/3 + s^2/5 + ...)`` with
    ``s = v / (2 + v)``, from ``log1p(v) = 2 atanh(s)``, cut where the tail
    is below 1e-16.  Elsewhere ``ratio`` is used as given, which keeps it
    exact near 0.
    """
    s = v / (2.0 + v)
    s2 = s * s
    out = -v * s + 2.0 * s * s2 * (
        1 / 3 + s2 * (1 / 5 + s2 * (1 / 7 + s2 * (1 / 9 + s2 / 11)))
    )
    far = np.abs(v) >= 0.05
    out[far] = np.log(ratio[far]) - v[far]
    return out


def _amgm_gap(x, y, d, wa, wb) -> np.ndarray:
    """Weighted AM minus GM of ``x`` and ``y = x + d``, in relative terms.

    With ``A = wa x + wb y`` and ``u = d / A`` the ratio GM/AM is
    ``exp(wa log(x/A) + wb log(y/A))`` where ``x/A = 1 - wb u`` and
    ``y/A = 1 + wa u``.  The first-order terms of the two logarithms
    cancel exactly, so the exponent is summed from parts of one sign.
    """
    A = wa * x + wb * y
    u = d / A
    return -A * np.expm1(
        wa * _log_excess(x / A, -wb * u) + wb * _log_excess(y / A, wa * u)
    )


_BLOCK = 2048  # pairs per kernel pass: temporaries stay small at any M


def _block_rates(a, b, ca, cb, d, ga, gb) -> np.ndarray:
    total = ga + gb
    wa = ga / total
    wb = gb / total
    gap = _amgm_gap(ca, cb, -d, wa, wb) + _amgm_gap(a, b, d, wa, wb)
    out = -total * np.log1p(-gap)
    # far apart, B is small and its direct sum loses nothing
    i = gap > 0.5
    out[i] = -total[i] * np.log(
        ca[i] ** wa[i] * cb[i] ** wb[i] + a[i] ** wa[i] * b[i] ** wb[i]
    )
    # one-sided forms, each from whichever of t and 1 - t is nearer 0
    i = a == 0.0
    out[i] = -gb[i] * np.where(b[i] < 0.5, np.log1p(-b[i]), np.log(cb[i]))
    i = b == 1.0
    out[i] = -ga[i] * np.where(a[i] < 0.5, np.log(a[i]), np.log1p(-ca[i]))
    out[(a == 0.0) & (b == 1.0)] = np.inf
    out[d == 0.0] = 0.0
    return out


def pair_rates(t_lo, t_hi, g_lo, g_hi, c_lo=None, c_hi=None, d=None) -> np.ndarray:
    """Pair exponents of arrays of level pairs, without validation.

    The exponent is ``-(g_lo + g_hi) log B``, ``B`` the sum of the weighted
    geometric means of the failure and the success probabilities.  ``1 - B``
    is summed as two weighted AM-GM gaps computed from ``d = t_hi - t_lo``,
    so the exponent keeps its relative accuracy however close the levels
    are; a small ``B`` is summed directly, and pairs touching 0 or 1 take
    their one-sided forms.  ``c_lo = 1 - t_lo``, ``c_hi = 1 - t_hi`` and
    ``d`` may be passed, as arrays of the broadcast shape, by a caller that
    knows them more accurately than the subtraction (the level solver).
    Callers guarantee ``0 <= t_lo <= t_hi <= 1`` and positive intensities.
    The result has at least one dimension.
    """
    a, b, ga, gb = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (t_lo, t_hi, g_lo, g_hi))
    )
    ca = 1.0 - a if c_lo is None else c_lo
    cb = 1.0 - b if c_hi is None else c_hi
    d = b - a if d is None else d
    out = np.empty(a.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(0, len(out), _BLOCK):
            part = slice(k, k + _BLOCK)
            out[part] = _block_rates(
                a[part], b[part], ca[part], cb[part], d[part], ga[part], gb[part]
            )
    return out


def pairwise_rate(t_lo: float, t_hi: float, g_lo: float, g_hi: float) -> float:
    """Error exponent for an adjacent pair of rating levels.

    Parameters
    ----------
    t_lo, t_hi : float
        Rating levels of the lower- and higher-quality item, with
        ``0 <= t_lo <= t_hi <= 1``.
    g_lo, g_hi : float
        Matching intensities of the two items (positive).

    Returns
    -------
    float
        The decay rate of the misranking probability per matching round.
        Zero when the levels coincide, infinite when they are 0 and 1.

    Notes
    -----
    The closed form is ``-(g_lo + g_hi) * log(B)`` where ``B`` is the sum
    of the weighted geometric means of the failure and success
    probabilities.  Levels on the boundary reduce to one-sided forms:
    ``-g_hi log(1 - t_hi)`` when ``t_lo == 0`` and ``-g_lo log(t_lo)``
    when ``t_hi == 1``.  This validates its arguments and evaluates
    :func:`pair_rates`.
    """
    t_lo, t_hi, g_lo, g_hi = _checked_pair(t_lo, t_hi, g_lo, g_hi)
    return float(pair_rates(t_lo, t_hi, g_lo, g_hi)[0])


def numeric_pairwise_rate(
    t_lo: float,
    t_hi: float,
    g_lo: float,
    g_hi: float,
    grid: int = 10_000,
) -> float:
    """Pair exponent by direct minimization of the weighted KL objective.

    Scans ``grid + 1`` equally spaced score values, then refines around the
    best one by ternary search (the objective is strictly convex).  Serves
    as an independent check on :func:`pairwise_rate`; it never calls the
    closed form.
    """
    t_lo, t_hi, g_lo, g_hi = _checked_pair(t_lo, t_hi, g_lo, g_hi)
    grid = _checked_count(grid, "grid", 2)

    def objective(a: float) -> float:
        return g_lo * kl_bernoulli(a, t_lo) + g_hi * kl_bernoulli(a, t_hi)

    points = np.linspace(0.0, 1.0, grid + 1)
    values = g_lo * _kl_grid(points, t_lo) + g_hi * _kl_grid(points, t_hi)
    best = int(np.argmin(values))
    if math.isinf(values[best]):
        return math.inf
    lo_edge = points[max(best - 1, 0)]
    hi_edge = points[min(best + 1, grid)]
    # degenerate reference levels pin the minimizer to an endpoint, where
    # the grid value is already exact
    if t_lo in (0.0, 1.0) or t_hi in (0.0, 1.0):
        return float(values[best])
    lo_edge = max(lo_edge, 1e-300)
    hi_edge = min(hi_edge, 1.0 - 1e-16)
    for _ in range(120):
        third = (hi_edge - lo_edge) / 3.0
        m1 = lo_edge + third
        m2 = hi_edge - third
        if objective(m1) <= objective(m2):
            hi_edge = m2
        else:
            lo_edge = m1
        if hi_edge - lo_edge < 1e-14:
            break
    return float(objective(0.5 * (lo_edge + hi_edge)))


def _levels_and_g(
    beta: StepBeta | Sequence[float], g: MatchProfile | Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    t, w = _checked_levels(beta), _checked_matching(g)
    if len(w) != len(t):
        raise ValueError(f"matching profile has {len(w)} entries for {len(t)} levels")
    if len(t) < 2:
        raise ValueError("need at least two levels")
    return t, w


def adjacent_rates(
    beta: StepBeta | Sequence[float], g: MatchProfile | Sequence[float]
) -> list[float]:
    """Exponent of every adjacent level pair, bottom to top."""
    t, w = _levels_and_g(beta, g)
    return pair_rates(t[:-1], t[1:], w[:-1], w[1:]).tolist()


def overall_rate(
    beta: StepBeta | Sequence[float], g: MatchProfile | Sequence[float]
) -> float:
    """Design-level error exponent: the worst adjacent pair governs.

    Non-adjacent pairs are separated by at least one adjacent gap, so the
    minimum over adjacent pairs is the binding one.
    """
    return min(adjacent_rates(beta, g))


@dataclass(frozen=True)
class PairRate:
    """One adjacent pair's exponent and its most likely crossing score."""

    index: int
    t_lo: float
    t_hi: float
    g_lo: float
    g_hi: float
    rate: float
    a_star: float | None


def pair_report(
    beta: StepBeta | Sequence[float], g: MatchProfile | Sequence[float]
) -> list[PairRate]:
    """Per-pair breakdown used by diagnostics and the command line."""
    t, w = _levels_and_g(beta, g)
    rates = pair_rates(t[:-1], t[1:], w[:-1], w[1:]).tolist()
    levels, weights = t.tolist(), w.tolist()
    out = []
    for i, rate in enumerate(rates):
        t_lo, t_hi = levels[i], levels[i + 1]
        g_lo, g_hi = weights[i], weights[i + 1]
        if t_lo == 0.0 and t_hi == 1.0:
            a_star = None
        else:
            a_star = inf_point(t_lo, t_hi, g_lo, g_hi)
        out.append(PairRate(i, t_lo, t_hi, g_lo, g_hi, rate, a_star))
    return out
