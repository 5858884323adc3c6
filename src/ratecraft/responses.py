"""Estimating response probabilities from ratings data.

A question bank holds, per anchor quality, the probability that each
question is answered positively.  Two estimation procedures build such a
bank from raw binary ratings: one for items of known quality, one that
first ranks items by their overall rating and assigns rank quantiles as
quality anchors.  A small interpolator extends the anchored probabilities
to all of [0, 1].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import QuestionBank, _as_float_tuple, _checked_unit, _count_csv_rows, _float_array
from .core import _checked_count, _read_csv, _Rebuilt, _write_csv

__all__ = [
    "PsiInterpolator",
    "estimate_known",
    "estimate_unknown",
    "read_ratings_csv",
    "read_qualities_csv",
    "write_ratings_csv",
    "write_qualities_csv",
]

Rating = tuple[str, str, int]


@dataclass(frozen=True)
class PsiInterpolator(_Rebuilt):
    """Piecewise-linear extension of anchored response probabilities.

    Between neighboring anchor qualities the rows blend linearly; outside
    the anchor range the nearest row extends as a constant, which keeps
    every value a probability.
    """

    anchors: tuple[float, ...]
    values: np.ndarray
    _anchors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        anchors = _as_float_tuple(self.anchors)
        arr, values = _float_array(anchors), np.array(self.values, dtype=float)
        vars(self).update(anchors=anchors, values=values, _anchors=arr)
        if values.ndim != 2 or values.shape[0] != len(anchors):
            raise ValueError("one value row per anchor required")
        if len(anchors) == 0:
            raise ValueError("need at least one anchor")
        # written so that NaN fails: it compares false with everything
        if not (arr[1:] > arr[:-1]).all():
            raise ValueError("anchors must be strictly increasing")
        _checked_unit(arr, "quality")
        _checked_unit(values, "anchored values")

    @staticmethod
    def from_bank(bank: QuestionBank) -> "PsiInterpolator":
        return PsiInterpolator(bank.thetas, bank.psi)

    def row(self, theta: float) -> np.ndarray:
        """Interpolated probability vector at one quality."""
        return self.rows(np.asarray([theta]))[0]

    def rows(self, thetas) -> np.ndarray:
        """Interpolated probability rows for an array of qualities."""
        th = _checked_unit(thetas, "quality")
        anchors = self._anchors
        clipped = np.minimum(np.maximum(th, anchors[0]), anchors[-1])
        if len(anchors) == 1:
            return np.repeat(self.values, len(th), axis=0)
        hi = np.searchsorted(anchors, clipped, side="left")
        hi = np.minimum(np.maximum(hi, 1), len(anchors) - 1)
        lo = hi - 1
        span = anchors[hi] - anchors[lo]
        alpha = (clipped - anchors[lo]) / span
        return (1.0 - alpha)[:, None] * self.values[lo] + alpha[:, None] * self.values[hi]


def _tally(ratings: Iterable[Rating]) -> Counter:
    """Counts per (item, question, response), taken in one pass over the
    ratings; keys keep first-appearance order."""
    return Counter((str(row[0]), str(row[1]), row[2]) for row in ratings)


def _checked_response(response) -> int:
    """``response`` as the int 0 or 1; anything equal to neither raises."""
    if response not in (0, 1):
        raise ValueError(f"response must be 0 or 1, got {response!r}")
    return int(response)


def _items_and_questions(tally: Counter) -> tuple[list[str], list[str]]:
    """The items and questions of a tally in first-appearance order.  Every
    response must equal 0 or 1."""
    if not tally:
        raise ValueError("no ratings given")
    # keys keep first-appearance order, so the first bad key is the first
    # bad rating
    for _, _, response in tally:
        _checked_response(response)
    items = list(dict.fromkeys(item for item, _, _ in tally))
    questions = list(dict.fromkeys(question for _, question, _ in tally))
    return items, questions


def _bank(anchors: Sequence[float], questions: list[str], tally: Counter,
          rows: Iterable[tuple[str, int]]) -> QuestionBank:
    """Bank whose row k pools the counts of every item that ``rows`` pairs
    with k.  The first (item, question) cell without ratings, in the order
    of ``rows`` and then ``questions``, raises."""
    pos = np.zeros((len(anchors), len(questions)), dtype=np.int64)
    tot = np.zeros_like(pos)
    for item, row in rows:
        for col, question in enumerate(questions):
            positives = tally[item, question, 1]
            total = positives + tally[item, question, 0]
            if total == 0:
                raise ValueError(f"no responses for item {item!r}, question {question!r}")
            pos[row, col] += positives
            tot[row, col] += total
    return QuestionBank(tuple(anchors), tuple(questions), pos / tot, pos, tot)


def estimate_known(
    ratings: Iterable[Rating], qualities: Mapping[str, float]
) -> QuestionBank:
    """Bank of empirical response rates for items of known quality.

    Every rated item must appear in ``qualities``; items sharing a quality
    pool their counts.  Each (quality, question) cell needs at least one
    observation.
    """
    return _known_from_tally(_tally(ratings), qualities)


def _known_from_tally(tally: Counter, qualities: Mapping[str, float]) -> QuestionBank:
    items, questions = _items_and_questions(tally)
    for item in items:
        if item not in qualities:
            raise ValueError(f"no quality given for item {item!r}")
    thetas = sorted({float(qualities[i]) for i in items})
    index = {th: k for k, th in enumerate(thetas)}
    return _bank(thetas, questions, tally, ((i, index[float(qualities[i])]) for i in items))


def estimate_unknown(ratings: Iterable[Rating], L: int, N: int) -> QuestionBank:
    """Bank built by ranking items on their overall positive fraction.

    The L items are ranked ascending (ties by item id); the item at rank i
    covers the quantile interval ((i-1)/L, i/L] and is anchored at its
    midpoint.  Every item must carry exactly N responses, as the ranking
    construction assumes.
    """
    L = _checked_count(L, "L")
    N = _checked_count(N, "N")
    return _unknown_from_tally(_tally(ratings), L, N)


def _unknown_from_tally(tally: Counter, L: int, N: int) -> QuestionBank:
    items, questions = _items_and_questions(tally)
    if len(items) != L:
        raise ValueError(f"expected {L} items, found {len(items)}")
    positives, totals = dict.fromkeys(items, 0), dict.fromkeys(items, 0)
    for (item, _, response), n in tally.items():
        totals[item] += n
        if response:
            positives[item] += n
    for item in items:
        if totals[item] != N:
            raise ValueError(
                f"item {item!r} has {totals[item]} responses, expected {N}"
            )
    ranked = sorted(items, key=lambda i: (positives[i] / totals[i], i))
    anchors = tuple((rank + 0.5) / L for rank in range(L))
    return _bank(anchors, questions, tally, ((item, rank) for rank, item in enumerate(ranked)))


_RESPONSES = {"0": 0, "1": 1}


def _rating(row: list[str]) -> Rating:
    response = _RESPONSES.get(row[2])
    if response is None:
        raise ValueError("response must be 0 or 1")
    return row[0], row[1], response


_RATINGS = {("item_id", "question", "response"): _rating}


def read_ratings_csv(path: str | Path) -> list[Rating]:
    """Rows of ``item_id,question,response`` with response in {0, 1}."""
    return _read_csv(path, _RATINGS)[1]


def _count_ratings_csv(path: str | Path) -> Counter:
    """``_tally(read_ratings_csv(path))``, with each distinct line of the
    file parsed once and no list of rows built."""
    return _count_csv_rows(path, _RATINGS)[1]


def write_ratings_csv(path: str | Path, ratings: Iterable[Rating]) -> None:
    """Write ratings as ``read_ratings_csv`` reads them; a response equal to
    neither 0 nor 1 raises before the file is opened."""
    rows = [[item, question, _checked_response(response)]
            for item, question, response in ratings]
    _write_csv(path, ("item_id", "question", "response"), rows)


def read_qualities_csv(path: str | Path) -> dict[str, float]:
    """Rows of ``item_id,theta``, each theta strictly inside (0, 1)."""
    out: dict[str, float] = {}

    def add(row: list[str]) -> None:
        if row[0] in out:
            raise ValueError(f"duplicate item id {row[0]!r}")
        out[row[0]] = _checked_theta(row[1])

    _read_csv(path, {("item_id", "theta"): add})
    return out


def _checked_theta(text: str) -> float:
    """The quality ``text`` spells, which must lie strictly inside (0, 1)."""
    theta = float(text)
    # written so that NaN fails: it compares false with everything
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie strictly inside (0, 1), got {text!r}")
    return theta


def write_qualities_csv(path: str | Path, qualities: Mapping[str, float]) -> None:
    """Write qualities as ``read_qualities_csv`` reads them; a quality it
    would refuse raises its message before the file is opened."""
    rows = [[item, repr(float(theta))] for item, theta in qualities.items()]
    for _, text in rows:
        _checked_theta(text)
    _write_csv(path, ("item_id", "theta"), rows)
