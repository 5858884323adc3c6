"""Quality-interval selection.

A step rating function can only distinguish items in different intervals,
so for a pair weighting w the intervals should be chosen to maximize the
cross-interval weight; equivalently, to minimize the weight mass of pairs
falling inside a common interval.  For the rank-agreement weightings
(kendall, spearman) equal-width intervals are optimal.  Other weightings
are solved by dynamic programming over a breakpoint grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import WeightSpec, _checked_breakpoints

__all__ = [
    "Partition",
    "equispaced_partition",
    "interval_mass",
    "within_mass",
    "asymptotic_value",
    "optimize_partition",
    "MAX_GRID",
]

# Largest breakpoint grid the dynamic program accepts: its mass table holds
# about grid**2 / 2 floats, 67 MB at this limit.
MAX_GRID = 4096
# Rows of the mass table stored per block; also bounds the per-sweep buffer.
_ROW_BLOCK = 32


@dataclass(frozen=True)
class Partition:
    """Interval breakpoints over [0, 1]: ``s[0] == 0 < ... < s[M] == 1``."""

    s: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _checked_breakpoints(self.s))

    @property
    def M(self) -> int:
        return len(self.s) - 1


def equispaced_partition(M: int) -> Partition:
    """M intervals of equal width."""
    if M < 1:
        raise ValueError("M must be at least 1")
    return Partition(tuple(i / M for i in range(M + 1)))


def _breakpoints(partition: Partition | Sequence[float]) -> tuple[float, ...]:
    if isinstance(partition, Partition):
        return partition.s
    return Partition(tuple(partition)).s


def _named_interval_mass(kind: str, a, b):
    """Normalized weight mass of {a <= theta2 < theta1 <= b}, closed form.

    Each named weight is polynomial, so the triangle integral factors as
    a power of (b - a) times a symmetric polynomial in a and b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    if kind == "kendall":
        return d**2
    if kind == "spearman":
        return d**3
    if kind == "top":
        return d**3 * (a * a + 3.0 * a * b + b * b)
    if kind == "bottom":
        return d**3 * (a * a + 3.0 * a * b + b * b - 5.0 * (a + b) + 5.0)
    if kind == "extremes":
        poly = (
            8.0 * a**4
            + 24.0 * a**3 * b
            - 28.0 * a**3
            + 48.0 * a**2 * b**2
            - 84.0 * a**2 * b
            + 42.0 * a**2
            + 24.0 * a * b**3
            - 84.0 * a * b**2
            + 84.0 * a * b
            - 28.0 * a
            + 8.0 * b**4
            - 28.0 * b**3
            + 42.0 * b**2
            - 28.0 * b
            + 7.0
        )
        return d**3 * poly
    raise ValueError(f"no closed-form interval mass for kind {kind!r}")


def _quadrature_interval_mass(w: WeightSpec, a: float, b: float, grid: int = 1000) -> float:
    # midpoint cells plus centroid-evaluated diagonal halves, scaled to [a, b]
    cells = max(2, int(math.ceil(grid * (b - a))))
    h = (b - a) / cells
    mids = a + (np.arange(cells) + 0.5) * h
    wmat = np.asarray(w.raw(mids[:, None], mids[None, :]), dtype=float)
    lower = np.tril(wmat, k=-1).sum() * h * h
    base = a + np.arange(cells) * h
    diag = np.asarray(w.raw(base + 2.0 * h / 3.0, base + h / 3.0), dtype=float).sum()
    return float(w.constant * (lower + diag * h * h / 2.0))


def interval_mass(w: WeightSpec, a: float, b: float, grid: int = 1000) -> float:
    """Normalized mass of pairs with both qualities in [a, b]."""
    if not 0.0 <= a < b <= 1.0:
        raise ValueError("need 0 <= a < b <= 1")
    if w.kind == "custom":
        return _quadrature_interval_mass(w, a, b, grid)
    return float(_named_interval_mass(w.kind, a, b))


def within_mass(
    w: WeightSpec, partition: Partition | Sequence[float], grid: int = 1000
) -> float:
    """Total weight mass lost to same-interval pairs."""
    s = _breakpoints(partition)
    return float(sum(interval_mass(w, a, b, grid) for a, b in zip(s, s[1:])))


def asymptotic_value(
    w: WeightSpec, partition: Partition | Sequence[float], grid: int = 1000
) -> float:
    """Best achievable weighted rank agreement for these intervals.

    Cross-interval pairs are eventually ordered correctly by any strictly
    increasing level assignment, while same-interval pairs contribute
    nothing, so the limit value is one minus the within-interval mass.
    """
    return 1.0 - within_mass(w, partition, grid)


class _GridMass:
    """Within mass between grid breakpoints, O(1) or vectorized per query.

    Named kinds evaluate their closed form.  Custom weights are integrated
    once by midpoint quadrature on the grid; prefix arrays then give any
    grid-aligned triangle by inclusion-exclusion: the triangle on [a, b]
    equals the triangle up to b, minus the triangle up to a, minus the
    rectangle {theta1 in [a, b], theta2 in [0, a]}.
    """

    def __init__(self, w: WeightSpec, grid: int):
        self.w = w
        self.grid = grid
        self.analytic = w.kind != "custom"
        if self.analytic:
            return
        h = 1.0 / grid
        mids = (np.arange(grid) + 0.5) * h
        wmat = np.asarray(w.raw(mids[:, None], mids[None, :]), dtype=float) * (
            w.constant * h * h
        )
        if np.any(np.tril(wmat, k=-1) < 0.0):
            raise ValueError("weight must be nonnegative below the diagonal")
        strict_rows = np.array([wmat[i, :i].sum() for i in range(grid)])
        base = np.arange(grid) * h
        diag_cells = (
            np.asarray(w.raw(base + 2.0 * h / 3.0, base + h / 3.0), dtype=float)
            * (w.constant * h * h / 2.0)
        )
        # triangle prefix: strict lower cells plus diagonal halves
        self._tri = np.concatenate([[0.0], np.cumsum(strict_rows + diag_cells)])
        self._rect = np.zeros((grid + 1, grid + 1))
        self._rect[1:, 1:] = np.cumsum(np.cumsum(wmat, axis=0), axis=1)

    def span(self, a: int, bs: np.ndarray) -> np.ndarray:
        """Mass of triangles from fixed grid index a to each index in bs."""
        if self.analytic:
            g = self.grid
            return np.asarray(
                _named_interval_mass(self.w.kind, a / g, bs / g), dtype=float
            )
        tri = self._tri[bs] - self._tri[a]
        rect = self._rect[bs, a] - self._rect[a, a]
        return tri - rect


def _mass_blocks(mass: _GridMass) -> list[tuple[int, np.ndarray]]:
    """Upper triangle of T[a, b], the within mass of [a/G, b/G], by row blocks.

    The block starting at row a0 holds rows a0..a0+_ROW_BLOCK-1 over columns
    a0+1..G, so together the blocks take about G**2/2 floats.  Entries with
    b <= a are +inf, so a min-plus step never picks them.
    """
    G = mass.grid
    blocks = []
    for a0 in range(0, G, _ROW_BLOCK):
        rows = min(_ROW_BLOCK, G - a0)
        block = np.full((rows, G - a0), np.inf)
        for r in range(rows):
            a = a0 + r
            block[r, r:] = mass.span(a, np.arange(a + 1, G + 1))
        blocks.append((a0, block))
    return blocks


def optimize_partition(
    w: WeightSpec,
    M: int,
    grid: int = 1000,
    method: str = "auto",
) -> Partition:
    """Choose M interval breakpoints maximizing cross-interval weight.

    The rank-agreement kinds (kendall, spearman) are returned equispaced,
    which is exactly optimal for them.  Other kinds are solved by dynamic
    programming with breakpoints restricted to multiples of ``1/grid``.
    The within masses T[a, b] of [a/grid, b/grid] are tabulated once,
    upper triangle only (about grid**2 / 2 floats), and each further
    interval adds one min-plus sweep over that table, O(grid**2) time.
    The table's memory is why ``grid`` may not exceed ``MAX_GRID`` on
    this route.  Each sweep keeps the first minimizing breakpoint, so ties
    go to the lexicographically smallest breakpoint vector.

    Parameters
    ----------
    method : {"auto", "dp"}
        "auto" uses the equispaced shortcut where exact; "dp" forces the
        grid search (useful for cross-checking one route against the
        other).

    Raises
    ------
    ValueError
        If ``grid`` exceeds ``MAX_GRID`` on the dynamic-programming route,
        or is smaller than ``M``.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    if method not in ("auto", "dp"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and w.kind in ("kendall", "spearman"):
        return equispaced_partition(M)
    if grid > MAX_GRID:
        raise ValueError(
            f"grid {grid} exceeds the limit of {MAX_GRID} for the partition "
            "dynamic program"
        )
    if M > grid:
        raise ValueError(f"grid {grid} too coarse for {M} intervals")
    if M == 1:
        return Partition((0.0, 1.0))

    G = grid
    mass = _GridMass(w, G)
    blocks = _mass_blocks(mass)
    # cost[a]: least within-interval mass splitting [a/G, 1] into j
    # intervals, +inf where that is impossible.  For j = 1 it is T[a, G],
    # the table's last column; layer j is
    # cost_j[a] = min over b of T[a, b] + cost_{j-1}[b].  step[j, a] keeps
    # the first minimizing b, so reading the breakpoints forward from a = 0
    # gives the lexicographically smallest optimal vector.
    cost = np.append(np.concatenate([block[:, -1] for _, block in blocks]), np.inf)
    # int16 holds every index up to MAX_GRID
    step = np.zeros((M + 1, G + 1), dtype=np.int16)
    buf = np.empty((_ROW_BLOCK, G))
    for j in range(2, M + 1):
        nxt = np.full(G + 1, np.inf)
        for a0, block in blocks:
            rows, width = block.shape
            seg = np.add(block, cost[a0 + 1 :], out=buf[:rows, :width])
            k = seg.argmin(axis=1)
            nxt[a0 : a0 + rows] = seg[np.arange(rows), k]
            step[j, a0 : a0 + rows] = k + (a0 + 1)
        cost = nxt

    bounds = [0]
    for j in range(M, 1, -1):
        bounds.append(int(step[j, bounds[-1]]))
    bounds.append(G)
    return Partition(tuple(k / G for k in bounds))
