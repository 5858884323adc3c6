"""Shared types for rating-system designs.

A design is a step rating function on item quality, together with the
matching intensity per quality interval and the pair-weighting used to
score rankings.  Everything downstream (rate computation, level solving,
question fitting, simulation) consumes these types.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "StepBeta",
    "MatchProfile",
    "WeightSpec",
    "QuestionBank",
    "QuestionDistribution",
    "normalize_weight",
    "save_design",
    "load_design",
    "WEIGHT_KINDS",
    "MATCH_KINDS",
]

# Matching intensity at quality (or rank quantile) x for the kinds that a
# formula defines; a "table" profile carries its values explicitly.
_MATCH_INTENSITY = {
    "uniform": np.ones_like,
    "linear": lambda x: (1.0 + 10.0 * x) / 11.0,
}
MATCH_KINDS = (*_MATCH_INTENSITY, "table")


@dataclass(frozen=True)
class _NamedWeight:
    """One named pair weight, defined here and nowhere else.

    ``raw(a, b)`` is the unnormalized weight of a pair a > b; every named
    kind but Kendall has raw(a, b) == (a - b) * P(a) * P(b) with P >= 0 on
    [0, 1], and Kendall weighs every pair by 1 with P = 1.  That form lets
    the simulator score a ranking in O(n log n) instead of summing over
    all n^2 pairs.  ``constant`` is 1 / the integral of raw over
    {a > b}.  ``within(a, b)`` is the normalized mass of
    {a <= theta2 < theta1 <= b} in closed form: each raw weight is
    polynomial, so the triangle integral factors as a power of (b - a)
    times a symmetric polynomial in a and b.  ``equal_width`` marks the
    kinds for which equal-width intervals are exactly optimal.
    """

    constant: float
    raw: Callable[[np.ndarray, np.ndarray], np.ndarray]
    P: Callable[[np.ndarray], np.ndarray]
    within: Callable[[np.ndarray, np.ndarray], np.ndarray]
    equal_width: bool = False

    def interval_mass(self, a, b) -> np.ndarray:
        """``within`` at a and b converted to float arrays first: a Python
        float ``a`` would change the last bits of some ``**`` results."""
        return self.within(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


# Raw integrals over {a > b} are 1/2, 1/6, 1/30, 1/30 and 1/672.
_NAMED_WEIGHTS = {
    "kendall": _NamedWeight(
        2.0,
        lambda a, b: np.broadcast_arrays(
            np.ones_like(np.asarray(a, dtype=float)), np.asarray(b, dtype=float)
        )[0].copy(),
        np.ones_like,
        lambda a, b: (b - a) ** 2,
        equal_width=True,
    ),
    "spearman": _NamedWeight(
        6.0,
        lambda a, b: a - b,
        np.ones_like,
        lambda a, b: (b - a) ** 3,
        equal_width=True,
    ),
    "top": _NamedWeight(
        30.0,
        lambda a, b: a * b * (a - b),
        lambda t: t,
        lambda a, b: (b - a) ** 3 * (a * a + 3.0 * a * b + b * b),
    ),
    "bottom": _NamedWeight(
        30.0,
        lambda a, b: (1.0 - a) * (1.0 - b) * (a - b),
        lambda t: 1.0 - t,
        lambda a, b: (b - a) ** 3 * (a * a + 3.0 * a * b + b * b - 5.0 * (a + b) + 5.0),
    ),
    "extremes": _NamedWeight(
        672.0,
        lambda a, b: (0.5 - a) ** 2 * (0.5 - b) ** 2 * (a - b),
        lambda t: (0.5 - t) ** 2,
        lambda a, b: (b - a) ** 3 * (
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
        ),
    ),
}
WEIGHT_KINDS = (*_NAMED_WEIGHTS, "custom")


def _as_float_tuple(values: Iterable[float]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _checked_breakpoints(values: Iterable[float]) -> tuple[float, ...]:
    """Interval breakpoints as floats, finite with 0 = s[0] < ... < s[-1] = 1."""
    s = _as_float_tuple(values)
    if len(s) < 2:
        raise ValueError("need at least one interval (two breakpoints)")
    if not all(math.isfinite(v) for v in s):
        raise ValueError("breakpoints must be finite")
    if s[0] != 0.0 or s[-1] != 1.0:
        raise ValueError("breakpoints must start at 0 and end at 1")
    if any(b <= a for a, b in zip(s, s[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    return s


def _checked_qualities(theta) -> np.ndarray:
    """Qualities as a float array; NaN or a value outside [0, 1] raises."""
    arr = np.asarray(theta, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("quality must lie within [0, 1]")
    return arr


@dataclass(frozen=True)
class StepBeta:
    """Step rating function: probability of a positive rating per quality.

    Parameters
    ----------
    s : tuple of float
        Interval breakpoints, ``s[0] == 0 < s[1] < ... < s[M] == 1``.
    t : tuple of float
        Rating level per interval, nondecreasing, within [0, 1].  Interval
        ``i`` is ``[s[i], s[i+1])``; the last interval also contains 1.
    """

    s: tuple[float, ...]
    t: tuple[float, ...]

    def __post_init__(self) -> None:
        s = _checked_breakpoints(self.s)
        t = _as_float_tuple(self.t)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        if len(t) != len(s) - 1:
            raise ValueError(
                f"got {len(t)} levels for {len(s) - 1} intervals"
            )
        if any(b < a for a, b in zip(t, t[1:])):
            raise ValueError("levels must be nondecreasing")
        if t[0] < 0.0 or t[-1] > 1.0:
            raise ValueError("levels must lie within [0, 1]")

    @property
    def M(self) -> int:
        """Number of intervals."""
        return len(self.t)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # breakpoints and levels as arrays, built once for every lookup
        return np.array(self.s), np.array(self.t)

    def __getstate__(self) -> dict:
        # pickle the fields only; the lookup arrays are rebuilt on demand
        return {"s": self.s, "t": self.t}

    def _index(self, arr: np.ndarray):
        idx = np.searchsorted(self._arrays[0], arr, side="right") - 1
        return np.minimum(np.maximum(idx, 0), self.M - 1)

    def __call__(self, theta):
        """Evaluate at quality ``theta`` (scalar or array) in [0, 1]."""
        arr = _checked_qualities(theta)
        out = self._arrays[1][self._index(arr)]
        if np.isscalar(theta) or arr.ndim == 0:
            return float(out)
        return out

    def interval_index(self, theta) -> np.ndarray | int:
        """Index of the interval containing ``theta`` (in [0, 1])."""
        arr = _checked_qualities(theta)
        idx = self._index(arr)
        if np.isscalar(theta) or arr.ndim == 0:
            return int(idx)
        return idx


@dataclass(frozen=True)
class MatchProfile:
    """Per-interval matching intensity.

    ``values[i]`` is the relative rate at which items in interval ``i``
    are matched; all entries are positive.  ``kind`` records how the
    profile was built so a design file can be reproduced.
    """

    kind: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in MATCH_KINDS:
            raise ValueError(f"unknown matching kind {self.kind!r}")
        vals = _as_float_tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) == 0:
            raise ValueError("empty matching profile")
        if any((not math.isfinite(v)) or v <= 0.0 for v in vals):
            raise ValueError("matching values must be positive and finite")

    @property
    def M(self) -> int:
        return len(self.values)

    @property
    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    @staticmethod
    def uniform(M: int) -> "MatchProfile":
        """Constant intensity 1 on every interval."""
        if M < 1:
            raise ValueError("M must be at least 1")
        return MatchProfile("uniform", (1.0,) * M)

    @staticmethod
    def from_table(values: Sequence[float]) -> "MatchProfile":
        return MatchProfile("table", tuple(values))

    @staticmethod
    def from_kind(kind: str, breakpoints: Sequence[float]) -> "MatchProfile":
        """Sample a formula kind's intensity once per interval.

        Each interval gets the intensity at its left endpoint, which for
        the nondecreasing formulas is the interval's infimum.
        """
        if kind not in _MATCH_INTENSITY:
            raise ValueError(f"cannot build kind {kind!r} without explicit values")
        left = np.array(breakpoints[:-1], dtype=float)
        if left.size == 0:
            raise ValueError("need at least two breakpoints")
        return MatchProfile(kind, _MATCH_INTENSITY[kind](left).tolist())


@dataclass(frozen=True)
class WeightSpec:
    """Pair weight w(theta1, theta2) on {theta1 > theta2}, normalized so the
    integral over that triangle is 1.

    Named kinds take their constant from ``_NAMED_WEIGHTS``; custom
    weights are normalized by quadrature (see :func:`normalize_weight`).
    """

    kind: str
    constant: float
    raw: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(compare=False)

    def __post_init__(self) -> None:
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not math.isfinite(self.constant) or self.constant <= 0.0:
            raise ValueError("normalizing constant must be positive")

    def __call__(self, theta1, theta2):
        """Evaluate the normalized weight; defined for theta1 >= theta2."""
        a = np.asarray(theta1, dtype=float)
        b = np.asarray(theta2, dtype=float)
        out = self.constant * self.raw(a, b)
        if np.isscalar(theta1) and np.isscalar(theta2):
            return float(out)
        return out

    def mass(self, theta) -> np.ndarray:
        """The factor P of the raw weight at the qualities ``theta``.

        Every named kind but Kendall has raw(a, b) == (a - b) * P(a) * P(b)
        with P >= 0 on [0, 1]; Kendall's P is 1.  Custom weights have no
        such form and raise ``ValueError``.
        """
        if self.kind not in _NAMED_WEIGHTS:
            raise ValueError(f"{self.kind} weight has no separable form")
        t = np.asarray(theta, dtype=float)
        return np.array(_NAMED_WEIGHTS[self.kind].P(t), dtype=float)

    def quadrature_integral(self, grid: int = 1000) -> float:
        """Integral over {theta1 > theta2} by composite midpoint quadrature
        on ``grid`` cells per side (see :func:`_midpoint_mass`)."""
        return float(self.constant * _midpoint_mass(self.raw, 0.0, 1.0, grid))


def _midpoint_mass(
    raw: Callable[[np.ndarray, np.ndarray], np.ndarray], a: float, b: float, cells: int
) -> float:
    """Raw weight mass of {a <= theta2 < theta1 <= b}, unnormalized, by
    composite midpoint quadrature on ``cells`` cells per side.

    Cells below the diagonal use their midpoint; diagonal cells contribute
    their lower-triangular half, evaluated at its centroid.  Exact for
    weights that are affine within every cell.
    """
    h = (b - a) / cells
    mids = a + (np.arange(cells) + 0.5) * h
    w = np.asarray(raw(mids[:, None], mids[None, :]), dtype=float)
    lower = np.tril(w, k=-1).sum() * h * h
    base = a + np.arange(cells) * h
    diag = np.asarray(raw(base + 2.0 * h / 3.0, base + h / 3.0), dtype=float)
    return lower + diag.sum() * (h * h / 2.0)


def normalize_weight(
    kind: str,
    raw: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    grid: int = 1000,
) -> WeightSpec:
    """Build a normalized :class:`WeightSpec`.

    Named kinds ignore ``raw`` and use their analytic constants.  A custom
    weight supplies ``raw`` (vectorized, defined for theta1 >= theta2,
    nonnegative, strictly positive somewhere) and is normalized so its
    midpoint-quadrature integral at the given grid is exactly 1.
    """
    if kind in _NAMED_WEIGHTS:
        return WeightSpec(kind, _NAMED_WEIGHTS[kind].constant, _NAMED_WEIGHTS[kind].raw)
    if kind != "custom":
        raise ValueError(f"unknown weight kind {kind!r}")
    if raw is None:
        raise ValueError("custom weight needs a raw callable")
    h = 1.0 / grid
    mids = (np.arange(grid) + 0.5) * h
    sample = np.asarray(raw(mids[:, None], mids[None, :]), dtype=float)
    if np.any(np.tril(sample, k=-1) < 0.0):
        raise ValueError("custom weight must be nonnegative on theta1 > theta2")
    total = float(_midpoint_mass(raw, 0.0, 1.0, grid))
    if not math.isfinite(total) or total <= 0.0:
        raise ValueError("custom weight must have positive integral")
    return WeightSpec("custom", 1.0 / total, raw)


@dataclass(frozen=True)
class QuestionBank:
    """Empirical response probabilities on a grid of anchor qualities.

    ``psi[i, j]`` is the probability that an item of quality ``thetas[i]``
    answers question ``questions[j]`` positively.  Optional ``positives``
    and ``totals`` carry the raw counts the probabilities came from.
    """

    thetas: tuple[float, ...]
    questions: tuple[str, ...]
    psi: np.ndarray = field(compare=False)
    positives: np.ndarray | None = field(default=None, compare=False)
    totals: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        thetas = _as_float_tuple(self.thetas)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "questions", tuple(str(q) for q in self.questions))
        psi = np.array(self.psi, dtype=float)
        object.__setattr__(self, "psi", psi)
        if len(thetas) == 0 or len(self.questions) == 0:
            raise ValueError("bank must have at least one quality and question")
        # written so that NaN fails: it compares false with everything
        if not all(0.0 < v < 1.0 for v in thetas):
            raise ValueError("anchor qualities must lie strictly inside (0, 1)")
        if not all(a < b for a, b in zip(thetas, thetas[1:])):
            raise ValueError("anchor qualities must be strictly increasing")
        if len(set(self.questions)) != len(self.questions):
            raise ValueError("duplicate question ids")
        if psi.shape != (len(thetas), len(self.questions)):
            raise ValueError(
                f"psi shape {psi.shape} does not match "
                f"({len(thetas)}, {len(self.questions)})"
            )
        if not np.all((psi >= 0.0) & (psi <= 1.0)):
            raise ValueError("response probabilities must lie within [0, 1]")
        for name in ("positives", "totals"):
            counts = getattr(self, name)
            if counts is not None:
                counts = np.array(counts, dtype=np.int64)
                object.__setattr__(self, name, counts)
                if counts.shape != psi.shape:
                    raise ValueError(f"{name} shape does not match psi")
                if np.any(counts < 0):
                    raise ValueError(f"{name} must be nonnegative")
        if (self.positives is None) != (self.totals is None):
            raise ValueError("positives and totals must be given together")
        if self.totals is not None:
            if np.any(self.totals <= 0):
                raise ValueError("totals must be positive")
            if np.any(self.positives > self.totals):
                raise ValueError("positives cannot exceed totals")
            if not np.allclose(psi, self.positives / self.totals, atol=1e-12):
                raise ValueError("response rates disagree with the counts")

    @property
    def n_thetas(self) -> int:
        return len(self.thetas)

    @property
    def n_questions(self) -> int:
        return len(self.questions)

    def to_csv(self, path: str | Path) -> None:
        """Write one row per (quality, question) cell, counts if present."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if self.totals is not None:
                writer.writerow(["theta", "question", "positives", "total"])
                for i, th in enumerate(self.thetas):
                    for j, q in enumerate(self.questions):
                        writer.writerow(
                            [repr(th), q, int(self.positives[i, j]), int(self.totals[i, j])]
                        )
            else:
                writer.writerow(["theta", "question", "psi"])
                for i, th in enumerate(self.thetas):
                    for j, q in enumerate(self.questions):
                        writer.writerow([repr(th), q, repr(float(self.psi[i, j]))])

    @staticmethod
    def from_csv(path: str | Path) -> "QuestionBank":
        """Read a bank written by :meth:`to_csv` (either header form)."""
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return QuestionBank._parse_csv(fh)

    @staticmethod
    def from_csv_text(text: str) -> "QuestionBank":
        return QuestionBank._parse_csv(io.StringIO(text))

    @staticmethod
    def _parse_csv(fh) -> "QuestionBank":
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty question bank file") from None
        header = [h.strip() for h in header]
        if header == ["theta", "question", "psi"]:
            with_counts = False
        elif header == ["theta", "question", "positives", "total"]:
            with_counts = True
        else:
            raise ValueError(f"unrecognized question bank header {header!r}")
        cells: dict[tuple[float, str], tuple] = {}
        thetas: list[float] = []
        questions: list[str] = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"question bank line {reader.line_num} has {len(row)} "
                    f"fields, the header has {len(header)}"
                )
            theta = float(row[0])
            q = row[1]
            if theta not in thetas:
                thetas.append(theta)
            if q not in questions:
                questions.append(q)
            key = (theta, q)
            if key in cells:
                raise ValueError(f"duplicate cell for theta={theta}, question={q!r}")
            if with_counts:
                cells[key] = (int(row[2]), int(row[3]))
            else:
                cells[key] = (float(row[2]),)
        thetas.sort()
        shape = (len(thetas), len(questions))
        missing = [
            (th, q) for th in thetas for q in questions if (th, q) not in cells
        ]
        if missing:
            raise ValueError(f"bank is missing {len(missing)} cells, e.g. {missing[0]}")
        if with_counts:
            pos = np.zeros(shape, dtype=np.int64)
            tot = np.zeros(shape, dtype=np.int64)
            for i, th in enumerate(thetas):
                for j, q in enumerate(questions):
                    pos[i, j], tot[i, j] = cells[(th, q)]
            psi = pos / tot
            return QuestionBank(tuple(thetas), tuple(questions), psi, pos, tot)
        psi = np.zeros(shape)
        for i, th in enumerate(thetas):
            for j, q in enumerate(questions):
                psi[i, j] = cells[(th, q)][0]
        return QuestionBank(tuple(thetas), tuple(questions), psi)


@dataclass(frozen=True)
class QuestionDistribution:
    """Distribution over a question bank's questions."""

    questions: tuple[str, ...]
    probabilities: tuple[float, ...]
    objective: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "questions", tuple(str(q) for q in self.questions))
        probs = _as_float_tuple(self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if len(probs) != len(self.questions):
            raise ValueError("one probability per question required")
        if any(p < 0.0 for p in probs):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")

    def to_json(self, path: str | Path) -> None:
        payload = {
            "questions": list(self.questions),
            "probabilities": list(self.probabilities),
            "objective": self.objective,
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    @staticmethod
    def from_json(path: str | Path) -> "QuestionDistribution":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return QuestionDistribution(
            tuple(payload["questions"]),
            tuple(payload["probabilities"]),
            payload.get("objective"),
        )


def save_design(
    path: str | Path,
    beta: StepBeta,
    g: MatchProfile,
    w_kind: str,
    rate: float | None = None,
    residual: float | None = None,
) -> None:
    """Write a design file: step function, matching profile, weight kind,
    and solver metadata.  An unbounded rate is stored as a flag, since JSON
    has no spelling for infinity."""
    if g.M != beta.M:
        raise ValueError("matching profile does not match the number of intervals")
    rate_infinite = rate is not None and math.isinf(rate)
    payload = {
        "M": beta.M,
        "s": list(beta.s),
        "t": list(beta.t),
        "g": {"kind": g.kind, "values": list(g.values)},
        "w": {"kind": w_kind},
        "rate": None if rate_infinite else rate,
        "residual": residual,
    }
    if rate_infinite:
        payload["rate_infinite"] = True
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _number_list(payload: dict, key: str) -> list:
    values = payload[key]
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ValueError(f"design file {key!r} must be a list of numbers")
    return values


def load_design(path: str | Path) -> dict:
    """Read a design file back into live objects.

    Returns a dict with keys ``beta``, ``g``, ``w_kind``, ``rate``,
    ``residual``.
    """
    payload = _json_object(json.loads(Path(path).read_text(encoding="utf-8")), "design file")
    beta = StepBeta(_number_list(payload, "s"), _number_list(payload, "t"))
    if payload["M"] != beta.M:
        raise ValueError("design file M does not match its own levels")
    g_entry = _json_object(payload["g"], "design file 'g'")
    g = MatchProfile(g_entry["kind"], tuple(_number_list(g_entry, "values")))
    if g.M != beta.M:
        raise ValueError("design file matching profile has the wrong length")
    rate = payload.get("rate")
    if payload.get("rate_infinite"):
        rate = math.inf
    return {
        "beta": beta,
        "g": g,
        "w_kind": _json_object(payload["w"], "design file 'w'")["kind"],
        "rate": rate,
        "residual": payload.get("residual"),
    }
