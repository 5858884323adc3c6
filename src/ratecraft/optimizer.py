"""Level solver: choose rating levels that equalize adjacent pair exponents.

The overall error exponent of a design is the minimum over adjacent level
pairs, so at the optimum every adjacent pair decays at the same rate.  The
solver pins the outer levels at 0 and 1 and writes every level as
``t = sin(phi)^2``.  With equal matching on both sides, a pair's bracket
is the Bhattacharyya coefficient ``cos(phi_b - phi_a)``, so equal angle
steps are exact for constant matching.  For any other matching they are
the start of one damped Newton solve for all interior angles at once,
whose tridiagonal Jacobian makes each step a single banded solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MatchProfile, Partition, StepBeta, _checked_levels, _checked_partition
from .core import _checked_count, _checked_matching, _checked_positive
from .partition import equispaced_partition
from .rates import adjacent_rates, pair_rates

__all__ = [
    "SolverConfig",
    "SolverResult",
    "ConvergenceError",
    "equalize_chain",
    "nested_bisection",
    "double_levels",
    "EqualizationReport",
    "verify_equalization",
]


class ConvergenceError(RuntimeError):
    """Raised when an iteration cap is hit before the tolerance is met."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver tolerances.

    tol bounds the largest angle step of the last Newton iteration.
    max_outer caps the Newton iterations and max_inner the step halvings
    that keep the levels strictly increasing within one iteration.  All
    three apply only to the Newton solve, which constant matching skips.
    Each cap is stored as an int; anything but an integer of at least 1
    raises ``ValueError("max_outer must be an integer of at least 1, got
    0")``, or the same message naming ``max_inner``.
    residual_tol is the allowed spread among adjacent pair rates in a
    solved design, scaled by max(1, largest adjacent rate).
    use_last_level_bound is accepted for compatibility and has no effect.
    """

    tol: float = 1e-13
    residual_tol: float = 1e-9
    max_outer: int = 200
    max_inner: int = 200
    use_last_level_bound: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < 1e-2:
            raise ValueError("tol must lie in (0, 1e-2)")
        residual_tol = float(_checked_positive(self.residual_tol, "residual_tol"))
        object.__setattr__(self, "residual_tol", residual_tol)
        for name in ("max_outer", "max_inner"):
            object.__setattr__(self, name, _checked_count(getattr(self, name), name))


def _log_rate_slopes(
    t: np.ndarray, c: np.ndarray, phi: np.ndarray, g: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slopes of each pair's log exponent in its upper angle (pairs 0..n-1)
    and in its lower angle (pairs 1..n), from all levels ``t``, their
    complements ``c``, the interior angles and the exponents ``r``.  The
    exponent is ``-(ga + gb) log(P + Q)`` with ``P = a^wa b^wb`` and
    ``Q = (1-a)^wa (1-b)^wb``, and ``dt/dphi = sin(2 phi)``.
    """
    ga, gb = g[:-1], g[1:]
    wa = ga / (ga + gb)
    wb = 1.0 - wa
    P = t[:-1] ** wa * t[1:] ** wb
    Q = c[:-1] ** wa * c[1:] ** wb
    scale = -2.0 / ((P + Q) * r)
    cot = np.cos(phi) / np.sin(phi)
    tan = 1.0 / cot
    upper = scale[:-1] * gb[:-1] * (P[:-1] * cot - Q[:-1] * tan)
    lower = scale[1:] * ga[1:] * (P[1:] * cot - Q[1:] * tan)
    return upper, lower


def equalize_chain(
    lo: float,
    hi: float,
    count: int,
    g: Sequence[float] | MatchProfile,
    cfg: SolverConfig | None = None,
) -> list[float]:
    """Interior levels between two pinned ones with all pair rates equal.

    Under constant matching the answer is closed form: equal steps in the
    angle ``phi`` of ``t = sin(phi)^2``, returned without iterating, so
    ``cfg`` is not read.  Otherwise one damped Newton solve for the angles
    starts from those steps.  Each step is halved, at most
    ``cfg.max_inner`` times, until the levels stay strictly increasing.
    The solve stops when no angle step exceeds ``cfg.tol`` and raises
    :class:`ConvergenceError` once it would take more than
    ``cfg.max_outer`` steps.

    Parameters
    ----------
    lo, hi : float
        The fixed bottom and top levels, ``0 <= lo < hi <= 1``.
    count : int
        Number of interior levels to place.
    g : sequence of float or MatchProfile
        Matching intensity per level, bottom to top; ``count + 2``
        entries aligned with ``[lo, t_1, ..., t_count, hi]``.

    Returns
    -------
    list of float
        ``[t_1, ..., t_count]``, strictly between lo and hi, with all
        ``count + 1`` adjacent pair rates equal up to rounding.
    """
    cfg = cfg or SolverConfig()
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError("need 0 <= lo < hi <= 1")
    count = _checked_count(count, "count")
    gw = _checked_matching(g)
    if len(gw) != count + 2:
        raise ValueError(f"need {count + 2} matching entries, got {len(gw)}")

    edges = np.arcsin(np.sqrt([lo, hi]))
    phi = np.linspace(edges[0], edges[1], count + 2)[1:-1]
    if (gw == gw[0]).all():
        return (np.sin(phi) ** 2).tolist()

    # scipy.linalg is imported here so that constant matching never loads it
    from scipy.linalg import solve_banded

    def chain(angles: np.ndarray):
        # levels, their complements and pair differences, all from angles
        # so that none loses digits near 0 or 1
        sin2 = np.sin(angles) ** 2
        psi = np.concatenate((edges[:1], angles, edges[1:]))
        t = np.concatenate(([lo], sin2, [hi]))
        c = np.concatenate(([1.0 - lo], np.cos(angles) ** 2, [1.0 - hi]))
        d = np.sin(np.diff(psi)) * np.sin(psi[1:] + psi[:-1])
        ok = bool(np.all(np.diff(psi) > 0.0) and np.all(np.diff(t) > 0.0))
        return t, c, d, ok

    t, c, d, _ = chain(phi)
    for iteration in range(cfg.max_outer + 1):
        r = pair_rates(t[:-1], t[1:], gw[:-1], gw[1:], c[:-1], c[1:], d)
        log_r = np.log(r)
        upper, lower = _log_rate_slopes(t, c, phi, gw, r)
        bands = np.zeros((3, count))
        bands[0, 1:] = -upper[1:]
        bands[1] = upper - lower
        bands[2, :-1] = lower[:-1]
        step = solve_banded((1, 1), bands, log_r[1:] - log_r[:-1])
        if np.max(np.abs(step)) <= cfg.tol:
            return t[1:-1].tolist()
        if iteration == cfg.max_outer:
            raise ConvergenceError("Newton level solve hit its iteration cap")
        for _ in range(cfg.max_inner):
            t_new, c_new, d_new, ok = chain(phi + step)
            if ok:
                break
            step = 0.5 * step
        else:
            raise ConvergenceError("Newton step could not keep the levels increasing")
        phi, t, c, d = phi + step, t_new, c_new, d_new


@dataclass(frozen=True)
class SolverResult:
    """A solved design: step function, matching, achieved exponent."""

    beta: StepBeta
    g: MatchProfile
    rate: float
    residual: float
    degenerate: bool = False


def nested_bisection(
    M: int,
    g: MatchProfile | Sequence[float] | None = None,
    cfg: SolverConfig | None = None,
    breakpoints: Partition | Sequence[float] | None = None,
) -> SolverResult:
    """Optimal rating levels for M intervals.

    The outer levels are 0 and 1; the M - 2 interior levels are solved by
    :func:`equalize_chain`, one Newton solve in angle space.  Under
    constant matching the levels are ``sin(pi k / (2 (M - 1)))^2`` and the
    exponent is ``-2 log cos(pi / (2 (M - 1)))``.

    ``breakpoints`` only decorate the returned step function; they do not
    enter the level computation.  M = 2 is degenerate: the two levels are
    0 and 1, a single never-confusable pair, and the exponent is infinite.
    """
    cfg = cfg or SolverConfig()
    M = _checked_count(M, "M", 2)
    if g is None:
        g = MatchProfile.uniform(M)
    elif not isinstance(g, MatchProfile):
        g = MatchProfile.from_table(g)
    if g.M != M:
        raise ValueError(f"matching profile has {g.M} entries for M={M}")
    s = equispaced_partition(M) if breakpoints is None else _checked_partition(breakpoints)
    if s.M != M:
        raise ValueError("breakpoints do not match M")

    if M == 2:
        beta = StepBeta(s, (0.0, 1.0))
        return SolverResult(beta, g, math.inf, 0.0, degenerate=True)

    interior = equalize_chain(0.0, 1.0, M - 2, g, cfg)
    beta = StepBeta(s, (0.0, *interior, 1.0))
    report = verify_equalization(beta, g, cfg)
    return SolverResult(beta, g, report.rate, report.spread)


def double_levels(
    beta: StepBeta | Sequence[float], g: MatchProfile | None = None
) -> StepBeta:
    """Map an M-level solved design to the 2M - 1 level one, closed form.

    Under constant matching intensity equal rates mean equal steps in
    the angle ``phi`` of ``t = sin(phi)^2``, so the optimal levels for
    2M - 1 intervals interleave the M-interval ones: even positions copy
    the old levels bit for bit, and each new level is
    ``sin((phi_i + phi_{i+1}) / 2)^2``.  Valid only for constant
    matching; the interleaving fails otherwise.

    The returned step function sits on equispaced breakpoints.
    """
    if g is not None and not g.is_constant:
        raise ValueError("level doubling requires constant matching intensity")
    t = _checked_levels(beta)
    if len(t) < 2:
        raise ValueError("need at least two levels")
    if t[0] != 0.0 or t[-1] != 1.0:
        raise ValueError("levels must run from 0 to 1")
    if not (t[1:] > t[:-1]).all():
        raise ValueError("levels must be strictly increasing")

    phi = np.arcsin(np.sqrt(t))
    out = np.empty(2 * len(t) - 1)
    out[0::2] = t
    out[1::2] = np.sin(0.5 * (phi[:-1] + phi[1:])) ** 2
    return StepBeta(equispaced_partition(len(out)), out.tolist())


@dataclass(frozen=True)
class EqualizationReport:
    """Adjacent pair rates of a design and whether they are equalized."""

    rates: tuple[float, ...]
    rate: float
    spread: float
    passed: bool


def verify_equalization(
    beta: StepBeta | Sequence[float],
    g: MatchProfile | Sequence[float],
    cfg: SolverConfig | None = None,
) -> EqualizationReport:
    """Check that all adjacent pair rates agree.

    The spread is compared against ``cfg.residual_tol`` scaled by
    max(1, largest rate), so the bar is absolute for ordinary rates and
    relative for large ones.  A single-pair design passes trivially.
    """
    cfg = cfg or SolverConfig()
    rates = tuple(adjacent_rates(beta, g))
    if len(rates) == 1:
        return EqualizationReport(rates, rates[0], 0.0, True)
    top = max(rates)
    spread = top - min(rates)
    passed = spread <= cfg.residual_tol * max(1.0, top)
    return EqualizationReport(rates, min(rates), spread, passed)
