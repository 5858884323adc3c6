"""Quality-interval selection.

A step rating function can only distinguish items in different intervals,
so for a pair weighting w the intervals should be chosen to maximize the
cross-interval weight; equivalently, to minimize the weight mass of pairs
falling inside a common interval.  For the kinds marked ``equal_width`` in
``core._NAMED_WEIGHTS`` (the rank-agreement weightings) equal-width
intervals are optimal.  Other weightings are solved by dynamic programming
over a breakpoint grid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import _NAMED_WEIGHTS, Partition, WeightSpec, _checked_breakpoints, _checked_count

__all__ = [
    "Partition",
    "equispaced_partition",
    "interval_mass",
    "within_mass",
    "asymptotic_value",
    "optimize_partition",
    "MAX_GRID",
]

# Largest breakpoint grid the dynamic program accepts: its tiled mass table
# holds about grid**2 / 2 floats, and the search peaks at 74.2 MiB
# (tracemalloc, bottom weight, M=3) at this limit.
MAX_GRID = 4096
# Columns per tile of the mass table; the sweep bounds and skips whole tiles.
_TILE = 32
# Tiles the sweep evaluates at once; bounds its temporaries to 2 * 128 KiB.
_EVAL_TILES = 512


def equispaced_partition(M: int) -> Partition:
    """M intervals of equal width."""
    M = _checked_count(M, "M")
    # numpy divides exactly as Python's i / M does, bit for bit
    return Partition((np.arange(M + 1) / M).tolist())


def interval_mass(w: WeightSpec, a: float, b: float, grid: int = 1000) -> float:
    """Normalized mass of pairs with both qualities in [a, b].  A custom
    weight reads its mass table at ``grid``, so a and b must be multiples
    of ``1/grid``; named kinds take any a and b."""
    grid = _checked_count(grid, "grid")
    if not 0.0 <= a < b <= 1.0:
        raise ValueError("need 0 <= a < b <= 1")
    named = _NAMED_WEIGHTS.get(w.kind)
    if named is not None:
        return float(named.interval_mass(a, b))
    ka, kb = int(round(a * grid)), int(round(b * grid))
    if ka / grid != a or kb / grid != b:
        raise ValueError(f"custom weight needs interval ends on the grid of {grid} cells")
    return float(w._grid_mass(grid, ka, kb))


def within_mass(
    w: WeightSpec, partition: Partition | Sequence[float], grid: int = 1000
) -> float:
    """Total weight mass lost to same-interval pairs; a custom weight
    needs breakpoints on the grid (see :func:`interval_mass`)."""
    grid = _checked_count(grid, "grid")
    s = _checked_breakpoints(partition).tolist()
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


def _mass_tiles(w: WeightSpec, G: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper triangle of T[a, b], the within mass of [a/G, b/G], in tiles.

    Tile t covers columns b = t*_TILE + 1 .. (t+1)*_TILE.  Row a keeps its
    tiles a // _TILE onward, one after another in ``tiles``, an
    (n_tiles, _TILE) array of about G**2/2 floats; tile t of row a is
    ``tiles[base[a] + t]``.  Entries with b <= a or b > G are +inf, so a
    min-plus step never picks them.  ``tile_min[a, t]`` is the least entry
    of that tile, +inf for tiles row a does not keep.

    The rows of one band, those with the same first tile f, keep the same
    tiles and lie next to each other, so the band is one (rows, columns)
    view of ``tiles`` and is filled by one ``_grid_mass`` call.
    """
    n_cols = -(-G // _TILE)
    first = np.arange(G) // _TILE
    kept = n_cols - first
    base = np.concatenate([[0], np.cumsum(kept[:-1])]) - first
    tiles = np.full((int(kept.sum()), _TILE), np.inf)
    for f in range(n_cols):
        a = np.arange(f * _TILE, min(f * _TILE + _TILE, G))[:, None]
        b = np.arange(f * _TILE + 1, n_cols * _TILE + 1)
        start = base[f * _TILE] + f
        band = tiles[start : start + len(a) * (n_cols - f)].reshape(len(a), -1)
        # columns past G read T[a, G] and are then left +inf
        mass = w._grid_mass(G, a, np.minimum(b, G)[None, :])
        np.copyto(band, mass, where=(a < b) & (b <= G))
    tile_min = np.full((G, n_cols), np.inf)
    tile_min[np.arange(n_cols) >= first[:, None]] = tiles.min(axis=1)
    return tiles, base, tile_min


def _tile_argmin(
    tiles: np.ndarray, cost_tiles: np.ndarray, at: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First minimum of fl(T + cost) within each listed tile, and its offset.

    ``at`` indexes ``tiles`` and ``cols`` the matching cost tile.  The sums
    are gathered _EVAL_TILES tiles at a time, which bounds the temporaries;
    ``take`` and argmin run about twice as fast as fancy indexing and
    ``min(axis=1)`` on rows this short.
    """
    k = np.empty(len(at), dtype=np.intp)
    val = np.empty(len(at))
    for p in range(0, len(at), _EVAL_TILES):
        q = slice(p, p + _EVAL_TILES)
        sums = tiles.take(at[q], axis=0)
        sums += cost_tiles.take(cols[q], axis=0)
        k[q] = sums.argmin(axis=1)
        val[q] = sums[np.arange(len(sums)), k[q]]
    return k, val


def optimize_partition(
    w: WeightSpec,
    M: int,
    grid: int = 1000,
    method: str = "auto",
) -> Partition:
    """Choose M interval breakpoints maximizing cross-interval weight.

    The kinds marked ``equal_width`` in ``core._NAMED_WEIGHTS`` (the
    rank-agreement kinds) are returned equispaced, which is exactly
    optimal for them.  Other kinds are solved by dynamic
    programming with breakpoints restricted to multiples of ``1/grid``:
    with T[a, b] the within mass of [a/grid, b/grid], the least mass
    cost_j[a] of splitting [a/grid, 1] into j intervals is
    min over b of T[a, b] + cost_{j-1}[b], one min-plus layer per interval.

    Table.  T is tabulated once, upper triangle only, in tiles of
    ``_TILE`` (32) columns aligned on absolute b: tile t holds
    b = 32t+1 .. 32t+32, and row a keeps its tiles from a // 32 on, in
    one flat array.  That is about grid**2 / 2 floats plus grid * 32 of
    padding, and beside it the least entry of every (row, tile),
    grid**2 / 32 floats.  The 32 rows of a band, a // 32 alike, keep the
    same tiles side by side, so each band is filled by one grid-mass call
    on a (rows, columns) grid: grid / 32 calls in all.  Elementwise
    ufuncs give the same floats on that grid as on one row, so the table
    is the row-by-row table bit for bit.  The table's memory is why
    ``grid`` may not exceed ``MAX_GRID`` on this route; there the search
    peaks at 74.2 MiB (tracemalloc, M = 3), and at 5.4 MiB for
    grid = 1000 and M = 200.

    Rows.  Layer j sweeps only starts a in [M - j, grid - j]: a smaller a
    cannot be reached from 0 by M - j intervals of at least one cell, and
    from a larger a fewer than j cells remain.

    Pruning.  For each row a and tile t, lb = fl(min T[a, tile] +
    min cost_{j-1}[tile]) is no larger than any sum fl(T[a, b] + cost[b])
    with b in the tile, exactly, because rounding is monotone.  The tile
    with the least lb is evaluated first; its minimum ub is a value the
    row reaches, so a tile with lb > ub holds no minimizer and is
    skipped.  The other tiles with lb <= ub, ties with ub included, are
    evaluated next, each once, with the very sums a dense sweep forms.
    Every evaluated tile gives its minimum and the first b reaching it;
    the row's minimum is the least of these, and its least b among the
    tiles that reach it is kept.  Costs and breakpoints are therefore
    those of the dense sweep bit for bit, and ties go to the
    lexicographically smallest breakpoint vector.

    Cost.  A layer takes R * grid / 32 bound entries, R = grid - M + 1
    rows, plus 32 entries for each evaluated tile of a row.  At M = 200
    and grid = 1000 a row evaluates 1.3, 1.6 and 1.8 tiles on average
    (bottom, top, extremes), so a layer touches 7-9% of the entries the
    dense O(grid**2) layer does; the layers together read 31-54% of the
    table's tiles.  Its temporaries are R * grid / 32 floats for the
    bounds and 2 * ``_EVAL_TILES`` tiles.

    Parameters
    ----------
    method : {"auto", "dp"}
        "auto" uses the equispaced shortcut where exact; "dp" forces the
        grid search (useful for cross-checking one route against the
        other).

    Raises
    ------
    ValueError
        If ``M`` or ``grid`` is not an integer of at least 1, or if ``grid``
        on the dynamic-programming route exceeds ``MAX_GRID`` or is
        smaller than ``M``.
    """
    M = _checked_count(M, "M")
    if method not in ("auto", "dp"):
        raise ValueError(f"unknown method {method!r}")
    grid = _checked_count(grid, "grid")
    named = _NAMED_WEIGHTS.get(w.kind)
    if method == "auto" and named is not None and named.equal_width:
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
    tiles, base, tile_min = _mass_tiles(w, G)
    n_cols = tile_min.shape[1]
    # cost[b]: least within-interval mass splitting [b/G, 1] into j
    # intervals, +inf where that is impossible or not needed, and +inf past
    # G so that cost[1:] splits into tiles like the table's columns.  For
    # j = 1 it is T[b, G]; layer j is
    # cost_j[a] = min over b of T[a, b] + cost_{j-1}[b].  step[j, a] keeps
    # the first minimizing b, so reading the breakpoints forward from a = 0
    # gives the lexicographically smallest optimal vector.
    cost = np.full(n_cols * _TILE + 1, np.inf)
    cost[:G] = tiles[base[:G] + (G - 1) // _TILE, (G - 1) % _TILE]
    # int16 holds every index up to MAX_GRID
    step = np.zeros((M + 1, G + 1), dtype=np.int16)
    for j in range(2, M + 1):
        # only starts reachable from 0 by M - j intervals that can still
        # be split into j intervals
        lo, hi = M - j, G - j
        row_base = base[lo : hi + 1]
        cost_tiles = cost[1:].reshape(n_cols, _TILE)
        # fl() is monotone, so lb bounds every sum fl(T + cost) in a tile
        lb = tile_min[lo : hi + 1] + cost_tiles.min(axis=1)
        best = lb.argmin(axis=1)
        k_best, ub = _tile_argmin(tiles, cost_tiles, row_base + best, best)
        # a tile with lb > ub holds no minimizer; ties with ub survive, and
        # the best tile, evaluated already, is not evaluated again
        keep = lb <= ub[:, None]
        keep[np.arange(len(best)), best] = False
        keep = np.flatnonzero(keep)
        del lb  # (G - M + 1) x n_cols floats, freed before the second gather
        rows, cols = np.divmod(keep, n_cols)
        k, val = _tile_argmin(tiles, cost_tiles, row_base[rows] + cols, cols)
        row_min = ub.copy()
        np.minimum.at(row_min, rows, val)
        # each evaluated tile gives its first minimizer, so the least b
        # among the tiles reaching the row's minimum is the row's first
        # minimizer; some tile always reaches it, so G + 1 never stays
        first_b = np.where(ub == row_min, best * _TILE + k_best + 1, G + 1)
        hits = val == row_min[rows]
        np.minimum.at(first_b, rows[hits], cols[hits] * _TILE + k[hits] + 1)
        cost = np.full_like(cost, np.inf)
        cost[lo : hi + 1] = row_min
        step[j, lo : hi + 1] = first_b

    bounds = [0]
    for j in range(M, 1, -1):
        bounds.append(int(step[j, bounds[-1]]))
    bounds.append(G)
    return Partition(tuple(k / G for k in bounds))
