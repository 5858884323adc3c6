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
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Partition",
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

    ``raw(a, b)``, the unnormalized weight of a pair a > b, is
    P(a) * P(b) * (a - b) with P >= 0 on [0, 1] for a ``gapped`` kind,
    which lets the simulator score a ranking in O(n log n); Kendall weighs
    every pair by 1 with P = 1.  ``constant`` is 1 / the integral of raw
    over {a > b}.  ``within(a, b)`` is the normalized mass of
    {a <= theta2 < theta1 <= b} in closed form: each raw weight is
    polynomial, so the triangle integral factors as a power of (b - a)
    times a symmetric polynomial in a and b.  ``equal_width`` marks the
    kinds for which equal-width intervals are exactly optimal.
    """

    constant: float
    P: Callable[[np.ndarray], np.ndarray]
    within: Callable[[np.ndarray, np.ndarray], np.ndarray]
    equal_width: bool = False
    gapped: bool = True

    def raw(self, a, b) -> np.ndarray:
        if self.gapped:
            return self.P(a) * self.P(b) * (a - b)
        return np.ones(np.broadcast(a, b).shape)

    def interval_mass(self, a, b) -> np.ndarray:
        """``within`` at a and b converted to float arrays first: a Python
        float ``a`` would change the last bits of some ``**`` results."""
        return self.within(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


# Raw integrals over {a > b} are 1/2, 1/6, 1/30, 1/30 and 1/672.
_NAMED_WEIGHTS = {
    "kendall": _NamedWeight(
        2.0, np.ones_like, lambda a, b: (b - a) ** 2, equal_width=True, gapped=False
    ),
    "spearman": _NamedWeight(6.0, np.ones_like, lambda a, b: (b - a) ** 3, equal_width=True),
    "top": _NamedWeight(
        30.0,
        lambda t: t,
        lambda a, b: (b - a) ** 3 * (a * a + 3.0 * a * b + b * b),
    ),
    "bottom": _NamedWeight(
        30.0,
        lambda t: 1.0 - t,
        lambda a, b: (b - a) ** 3 * (a * a + 3.0 * a * b + b * b - 5.0 * (a + b) + 5.0),
    ),
    "extremes": _NamedWeight(
        672.0,
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
    # float(x) is x for a float x: a typed field shares the caller's floats
    return tuple(map(float, values))


def _float_array(values: Iterable[float]) -> np.ndarray:
    """``values`` as a new read-only float array."""
    arr = np.fromiter(values, dtype=float)
    arr.flags.writeable = False
    return arr


class _Rebuilt:
    """Pickled as a constructor call on the init fields, which rebuilds the
    stored arrays read-only; numpy would pickle them writeable."""

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


# One check per design vector; a typed input is returned as it is.
def _checked_partition(values: Partition | StepBeta | Iterable[float]) -> Partition | StepBeta:
    """Breakpoints as a typed input or a new, checked ``Partition``."""
    return values if isinstance(values, (Partition, StepBeta)) else Partition(values)


def _checked_breakpoints(values: Partition | StepBeta | Iterable[float]) -> np.ndarray:
    """Interval breakpoints as a float array, checked by :class:`Partition`."""
    return _checked_partition(values)._s


def _checked_levels(beta: StepBeta | Iterable[float]) -> np.ndarray:
    """Rating levels as a float array, nondecreasing within [0, 1]."""
    if isinstance(beta, StepBeta):
        return beta._t
    t = _float_array(beta)
    # written so that NaN fails: it compares false with everything
    if not (t[1:] >= t[:-1]).all():
        raise ValueError("levels must be nondecreasing")
    return _checked_unit(t, "levels")


def _checked_matching(g: MatchProfile | Iterable[float]) -> np.ndarray:
    """Matching intensities as a float array, positive and finite."""
    if isinstance(g, MatchProfile):
        return g._values
    return _checked_positive(_float_array(g), "matching intensities")


def _checked_count(value, name: str, least: int = 1, most: int | None = None) -> int:
    """``value``, an integer of at least ``least`` and, if given, at most
    ``most``, as an int.  The package's one count check: every integer
    size, count or seed argument is read through it.  A bool is not a
    count, and a float, string or NaN fails with the same message as a
    count below ``least``, never a ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be an integer of at most {most}, got {value!r}")
    return int(value)


# One check per value rule: every probability, level or quality is read
# through _checked_unit and every positive weight through _checked_positive.
def _checked_unit(values, name: str) -> np.ndarray:
    """``values`` as a float array; NaN or a value outside [0, 1] raises."""
    arr = np.asarray(values, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise ValueError(f"{name} must lie within [0, 1]")
    return arr


def _checked_positive(values, name: str) -> np.ndarray:
    """``values`` as a float array; NaN, inf or a value <= 0 raises."""
    arr = np.asarray(values, dtype=float)
    if not (np.isfinite(arr) & (arr > 0.0)).all():
        raise ValueError(f"{name} must be positive and finite")
    return arr


@dataclass(frozen=True)
class Partition(_Rebuilt):
    """Interval breakpoints over [0, 1]: ``s[0] == 0 < ... < s[M] == 1``."""

    s: tuple[float, ...]
    _s: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # float() refuses None and a nested vector
        s = _as_float_tuple(self.s)
        if len(s) < 2:
            raise ValueError("need at least one interval (two breakpoints)")
        arr = _float_array(s)
        if not np.isfinite(arr).all():
            raise ValueError("breakpoints must be finite")
        if s[0] != 0.0 or s[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if not (arr[1:] > arr[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        # frozen: the fields are set in the instance dict, past __setattr__
        vars(self).update(s=s, _s=arr)

    @property
    def M(self) -> int:
        return len(self.s) - 1


@dataclass(frozen=True)
class StepBeta(_Rebuilt):
    """Step rating function: probability of a positive rating per quality.

    Parameters
    ----------
    s : tuple of float, or Partition
        Interval breakpoints, ``s[0] == 0 < s[1] < ... < s[M] == 1``.
    t : tuple of float
        Rating level per interval, nondecreasing, within [0, 1].  Interval
        ``i`` is ``[s[i], s[i+1])``; the last interval also contains 1.
    """

    s: tuple[float, ...]
    t: tuple[float, ...]
    _s: np.ndarray = field(init=False, repr=False, compare=False)
    _t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        part = _checked_partition(self.s)
        t = _as_float_tuple(self.t)
        if len(t) != part.M:
            raise ValueError(f"got {len(t)} levels for {part.M} intervals")
        vars(self).update(s=part.s, t=t, _s=part._s, _t=_checked_levels(t))

    @property
    def M(self) -> int:
        """Number of intervals."""
        return len(self.t)

    def _index(self, theta) -> tuple[np.ndarray, bool]:
        arr = _checked_unit(theta, "quality")
        idx = np.searchsorted(self._s, arr, side="right") - 1
        return np.minimum(np.maximum(idx, 0), self.M - 1), np.isscalar(theta) or arr.ndim == 0

    def __call__(self, theta):
        """Evaluate at quality ``theta`` (scalar or array) in [0, 1]."""
        idx, scalar = self._index(theta)
        return float(self._t[idx]) if scalar else self._t[idx]

    def interval_index(self, theta) -> np.ndarray | int:
        """Index of the interval containing ``theta`` (in [0, 1])."""
        idx, scalar = self._index(theta)
        return int(idx) if scalar else idx


@dataclass(frozen=True)
class MatchProfile(_Rebuilt):
    """Per-interval matching intensity.

    ``values[i]`` is the relative rate at which items in interval ``i``
    are matched; all entries are positive and finite.  ``kind`` records how the
    profile was built so a design file can be reproduced.
    """

    kind: str
    values: tuple[float, ...]
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in MATCH_KINDS:
            raise ValueError(f"unknown matching kind {self.kind!r}")
        vals = _as_float_tuple(self.values)
        if len(vals) == 0:
            raise ValueError("empty matching profile")
        vars(self).update(values=vals, _values=_checked_matching(vals))

    @property
    def M(self) -> int:
        return len(self.values)

    @property
    def is_constant(self) -> bool:
        return bool((self._values == self._values[0]).all())

    @staticmethod
    def uniform(M: int) -> "MatchProfile":
        """Constant intensity 1 on every interval."""
        return MatchProfile("uniform", (1.0,) * _checked_count(M, "M"))

    @staticmethod
    def from_table(values: Sequence[float]) -> "MatchProfile":
        return MatchProfile("table", values)

    @staticmethod
    def from_kind(kind: str, breakpoints: Partition | StepBeta | Sequence[float]) -> "MatchProfile":
        """Sample a formula kind's intensity once per interval of checked breakpoints.

        Each interval gets the intensity at its left endpoint, which for
        the nondecreasing formulas is the interval's infimum.
        """
        if kind not in _MATCH_INTENSITY:
            raise ValueError(f"cannot build kind {kind!r} without explicit values")
        left = _checked_breakpoints(breakpoints)[:-1]
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
    _tables: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        constant = float(_checked_positive(self.constant, "normalizing constant"))
        object.__setattr__(self, "constant", constant)

    def __call__(self, theta1, theta2):
        """Evaluate the normalized weight; defined for theta1 >= theta2."""
        a, b = _checked_unit(theta1, "quality"), _checked_unit(theta2, "quality")
        out = self.constant * self.raw(a, b)
        if np.isscalar(theta1) and np.isscalar(theta2):
            return float(out)
        return out

    def mass(self, theta) -> np.ndarray:
        """P of a named kind's raw weight (see ``_NamedWeight``) at ``theta``;
        a custom weight has none and raises ``ValueError``."""
        if self.kind not in _NAMED_WEIGHTS:
            raise ValueError(f"{self.kind} weight has no separable form")
        t = _checked_unit(theta, "quality")
        return np.array(_NAMED_WEIGHTS[self.kind].P(t), dtype=float)

    def _table(self, grid: int) -> np.ndarray:
        """The packed raw mass table at ``grid`` (see :func:`_mass_table`),
        built on first use and kept."""
        grid = _checked_count(grid, "grid")
        if grid not in self._tables:
            self._tables[grid] = _mass_table(self.raw, grid)
        return self._tables[grid]

    def _grid_mass(self, grid: int, a, b) -> np.ndarray:
        """Within mass of [a/grid, b/grid], grid indices a < b: a named kind's
        closed form, or a custom weight's mass table at ``grid``.  Pairs with
        b <= a give finite values that mean nothing."""
        named = _NAMED_WEIGHTS.get(self.kind)
        if named is not None:
            return named.interval_mass(a / grid, b / grid)
        return self.constant * self._table(grid)[_packed_index(a, b)]

    def quadrature_integral(self, grid: int = 1000) -> float:
        """Integral over {theta1 > theta2} by the midpoint rule on ``grid``
        cells per side: the total of the grid's mass table, normalized."""
        return float(self.constant * self._table(grid)[_packed_index(0, grid)])


def _mass_table(
    raw: Callable[[np.ndarray, np.ndarray], np.ndarray], grid: int
) -> np.ndarray:
    """T[a, b], a <= b: the raw mass of {a/grid <= theta2 < theta1 <= b/grid}
    by the midpoint rule, which is exact for weights affine in every cell.

    ``raw`` is called once per cell and only where theta1 > theta2: at the
    midpoint of a cell below the diagonal, and at the centroid of a
    diagonal cell's lower half.  Column b + 1 is column b plus row b's
    running sum of cells taken from the diagonal leftward, so every row
    of T is nondecreasing in b even in floating point.  Only a <= b is
    stored: column b, T[0..b, b], is packed at ``_packed_index(0, b)``,
    (grid + 1) * (grid + 2) / 2 floats in all.
    """
    h = 1.0 / grid
    mids = (np.arange(grid) + 0.5) * h
    base = np.arange(grid) * h
    upper, lower = base + 2.0 * h / 3.0, base + h / 3.0
    packed = np.zeros(_packed_index(0, grid + 1))
    for b in range(grid):
        theta1 = np.append(np.full(b, mids[b]), upper[b])
        cells = np.asarray(raw(theta1, np.append(mids[:b], lower[b])), dtype=float) * (h * h)
        cells[b] *= 0.5
        if not (np.isfinite(cells) & (cells >= 0.0)).all():
            if (cells < 0.0).any():
                raise ValueError("custom weight must be nonnegative on theta1 > theta2")
            raise ValueError("weight must be finite on the grid")
        column, after = _packed_index(0, b), _packed_index(0, b + 1)
        packed[after : after + b + 1] = packed[column:after] + np.cumsum(cells[::-1])[::-1]
    return packed


def _packed_index(a, b):
    """Where ``_mass_table`` stores T[a, b], a <= b."""
    return b * (b + 1) // 2 + a


def normalize_weight(
    kind: str,
    raw: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    grid: int = 1000,
) -> WeightSpec:
    """Build a normalized :class:`WeightSpec`.

    Named kinds ignore ``raw`` and use their analytic constants.  A custom
    weight supplies ``raw`` (vectorized, defined for theta1 > theta2,
    nonnegative, strictly positive somewhere) and is normalized so the
    total of its mass table at ``grid`` (see :func:`_mass_table`), which
    the weight keeps, is exactly 1.
    """
    if kind in _NAMED_WEIGHTS:
        return WeightSpec(kind, _NAMED_WEIGHTS[kind].constant, _NAMED_WEIGHTS[kind].raw)
    if kind != "custom":
        raise ValueError(f"unknown weight kind {kind!r}")
    if raw is None:
        raise ValueError("custom weight needs a raw callable")
    grid = _checked_count(grid, "grid")
    table = _mass_table(raw, grid)
    total = float(table[_packed_index(0, grid)])
    if not math.isfinite(total) or total <= 0.0:
        raise ValueError("custom weight must have positive integral")
    return WeightSpec("custom", 1.0 / total, raw, {grid: table})


# File formats.  Every file the package reads or writes goes through the
# four helpers below; each format's keys or columns are stated once.


@contextmanager
def _named_errors(name: str):
    """Prefix every ``ValueError`` raised inside with ``name``; an integer
    too large for a float or an int64 raises one too."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _read_csv(path: str | Path, forms: dict, text: str | None = None) -> tuple[tuple, list]:
    """The header and parsed rows of a CSV table whose header is a key of
    ``forms``.  Each nonblank row must have the header's field count and
    goes through the parser ``forms`` maps that header to.  ``text``, if
    given, replaces the file, which ``path`` then only names.  Every
    problem, a parser's ``ValueError`` too, raises one ``ValueError``
    of the form ``<path>:<line>: <problem>``."""
    try:
        fh = open(path, newline="", encoding="utf-8") if text is None else io.StringIO(text, "")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip() for h in next(reader, ()))
            if header not in forms:
                raise ValueError("expected header " + " or ".join(map(",".join, forms)))
            parse, width, rows = forms[header], len(header), []
            for row in reader:
                if row:
                    if len(row) != width:
                        raise ValueError(f"expected {width} fields, got {len(row)}")
                    rows.append(parse(row))
        except UnicodeDecodeError:
            # the file is decoded in blocks, so find the bad byte's line apart
            decoded = Path(path).read_bytes().decode("utf-8", "replace")
            line = decoded.count("\n", 0, decoded.find("\ufffd")) + 1
            raise ValueError(f"{path}:{line}: not UTF-8 text") from None
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}:{max(reader.line_num, 1)}: {exc}") from None
    return header, rows


def _count_csv_rows(path: str | Path, forms: dict) -> tuple[tuple, Counter]:
    """``_read_csv(path, forms)`` with equal rows counted: the header and a
    ``Counter`` of the parsed rows, whose keys keep first-appearance order.
    Each distinct line is parsed once, so every parser must be a pure
    function of its row.  A file that is not one row per line, or that
    ``_read_csv`` refuses, is read again by ``_read_csv``, which raises
    its own message."""
    counted = _count_lines(path, forms)
    if counted is None:
        header, rows = _read_csv(path, forms)
        counted = header, Counter(rows)
    return counted


def _count_lines(path: str | Path, forms: dict) -> tuple[tuple, Counter] | None:
    """What ``_count_csv_rows`` returns, if each line of the file is one row
    that ``_read_csv`` accepts; otherwise None."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first, lines = fh.readline(), Counter(fh)
        # a quoted field may span lines, so only a file without quotes is one
        # row per line; line ends other than \n are left to the row reader
        if any('"' in line or "\r" in line for line in (first, *lines)):
            return None
        header = tuple(h.strip() for h in next(csv.reader([first])))
        if header not in forms:
            return None
        parse, width, rows = forms[header], len(header), Counter()
        for line, n in lines.items():
            row = next(csv.reader([line]))
            if row:
                if len(row) != width:
                    return None
                rows[parse(row)] += n
    except (OSError, ValueError, csv.Error):
        return None
    return header, rows


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as UTF-8 CSV, lines ending in LF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the file ``path``.  Every problem raises one
    ``ValueError`` of the form ``<what> '<path>': <problem>``."""
    with _named_errors(f"{what} {str(path)!r}"):
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValueError(f"cannot read: {exc.strerror}") from None
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
        return payload


def _write_json(path: str | Path, payload: dict) -> None:
    """Write the bytes of ``json.dumps(payload, indent=2) + "\\n"``."""
    Path(path).write_text(_json_text(payload, "") + "\n", encoding="utf-8")


def _json_text(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` for a value nested at indent ``pad``.

    ``indent`` makes ``json`` use its pure-Python encoder, so dicts with
    string keys and lists are walked here, and a list of finite floats
    is joined from ``float.__repr__``, the spelling ``json`` uses.  Every
    other value, empty containers and float subclasses too, goes to
    ``json.dumps``; no string it returns holds a raw newline, so padding
    after each newline nests it.
    """
    inner = ",\n" + pad + "  "
    if type(value) is dict and value and set(map(type, value)) == {str}:
        body = inner.join(json.dumps(k) + ": " + _json_text(v, pad + "  ")
                          for k, v in value.items())
        return "{" + inner[1:] + body + "\n" + pad + "}"
    if type(value) in (list, tuple) and value:
        floats = set(map(type, value)) == {float}
        body = inner.join(map(float.__repr__, value)) if floats else ""
        # "nan" and "inf" are the only float spellings with an "n"; json
        # writes them as NaN and Infinity
        if not floats or "n" in body:
            body = inner.join(_json_text(v, pad + "  ") for v in value)
        return "[" + inner[1:] + body + "\n" + pad + "]"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


# A schema maps each key of a JSON object, dotted for a nested object and
# ending in "?" if it may be missing or null, to the exact types json.loads
# returns for an accepted value (so a bool is no integer), the value's
# description and, for a list, the types of its items.
_INTEGER = ((int,), "an integer")
_NUMBER = ((int, float), "a finite number")
_STRING = ((str,), "a string")
_OBJECT = ((dict,), "a JSON object")
_NUMBERS = ((list,), "a list of numbers", {int, float})

_DESIGN_SCHEMA = {
    "M": _INTEGER, "s": _NUMBERS, "t": _NUMBERS,
    "g": _OBJECT, "g.kind": _STRING, "g.values": _NUMBERS, "w": _OBJECT, "w.kind": _STRING,
    "rate?": _NUMBER, "residual?": _NUMBER, "rate_infinite?": ((bool,), "true or false"),
}
_MIX_SCHEMA = {"questions": ((list,), "a list of strings", {str}), "probabilities": _NUMBERS,
               "objective?": _NUMBER}
_BANK_HEADERS = (("theta", "question", "psi"), ("theta", "question", "positives", "total"))


def _check_schema(payload: dict, schema: dict) -> None:
    """Raise ``ValueError`` naming the first key of ``payload`` that does
    not match ``schema``; a number must also be finite."""
    for key, (types, what, *items) in schema.items():
        name, value = key.rstrip("?"), payload
        for part in name.split("."):
            value = value.get(part)
        if value is None and key.endswith("?"):
            continue
        if value is None:
            raise ValueError(f"{name!r} is missing")
        if (type(value) not in types or (items and not set(map(type, value)) <= items[0])
                or (type(value) is float and not math.isfinite(value))):
            raise ValueError(f"{name!r} must be {what}")


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
        thetas, psi = _as_float_tuple(self.thetas), np.array(self.psi, dtype=float)
        vars(self).update(thetas=thetas, questions=tuple(map(str, self.questions)), psi=psi)
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
        _checked_unit(psi, "response probabilities")
        for name in ("positives", "totals"):
            counts = getattr(self, name)
            if counts is not None:
                counts = np.array(counts, dtype=np.int64)
                vars(self)[name] = counts
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
        counts = self.totals is not None
        _write_csv(path, _BANK_HEADERS[counts], (
            [repr(th), q, int(self.positives[i, j]), int(self.totals[i, j])] if counts
            else [repr(th), q, repr(float(self.psi[i, j]))]
            for i, th in enumerate(self.thetas)
            for j, q in enumerate(self.questions)
        ))

    @staticmethod
    def from_csv(path: str | Path) -> "QuestionBank":
        """Read a bank written by :meth:`to_csv` (either header form)."""
        return QuestionBank._from_csv(path)

    @staticmethod
    def from_csv_text(text: str) -> "QuestionBank":
        return QuestionBank._from_csv("<string>", text)

    @staticmethod
    def _from_csv(path: str | Path, text: str | None = None) -> "QuestionBank":
        cells: dict[tuple[float, str], tuple] = {}

        def cell(row):
            key = (float(row[0]), row[1])
            if key in cells:
                raise ValueError(f"duplicate cell for theta={key[0]}, question={row[1]!r}")
            cells[key] = (float(row[2]),) if len(row) == 3 else (int(row[2]), int(row[3]))

        header, _ = _read_csv(path, dict.fromkeys(_BANK_HEADERS, cell), text)
        thetas = sorted({th for th, _ in cells})
        questions = list(dict.fromkeys(q for _, q in cells))
        keys = [(th, q) for th in thetas for q in questions]
        missing = [k for k in keys if k not in cells]
        # a zero total is reported by the constructor, not as a warning
        with _named_errors(str(path)), np.errstate(divide="ignore", invalid="ignore"):
            if missing:
                raise ValueError(f"bank is missing {len(missing)} cells, e.g. {missing[0]}")
            table = np.array([cells[k] for k in keys])
            table = table.reshape(len(thetas), len(questions), len(header) - 2)
            if header == _BANK_HEADERS[1]:
                pos, tot = table[..., 0], table[..., 1]
                return QuestionBank(tuple(thetas), tuple(questions), pos / tot, pos, tot)
            return QuestionBank(tuple(thetas), tuple(questions), table[..., 0])


@dataclass(frozen=True)
class QuestionDistribution:
    """Distribution over a question bank's questions."""

    questions: tuple[str, ...]
    probabilities: tuple[float, ...]
    objective: float | None = None

    def __post_init__(self) -> None:
        probs = _as_float_tuple(self.probabilities)
        vars(self).update(questions=tuple(map(str, self.questions)), probabilities=probs)
        if len(probs) != len(self.questions):
            raise ValueError("one probability per question required")
        if len(set(self.questions)) != len(self.questions):
            raise ValueError("duplicate question ids")
        # written so that NaN fails: it compares false with everything
        if not all(p >= 0.0 for p in probs):
            raise ValueError("probabilities must be nonnegative")
        if not abs(sum(probs) - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")

    def to_json(self, path: str | Path) -> None:
        _write_json(path, asdict(self))

    @staticmethod
    def from_json(path: str | Path) -> "QuestionDistribution":
        return _mix_from_json(_read_json(path, "question mix"), path)


def _mix_from_json(payload: dict, path: str | Path) -> QuestionDistribution:
    """A question mix from the decoded JSON object of the file ``path``."""
    with _named_errors(f"question mix {str(path)!r}"):
        _check_schema(payload, _MIX_SCHEMA)
        return QuestionDistribution(
            payload["questions"], payload["probabilities"], payload.get("objective"))


def _checked_weight_kind(kind: str) -> str:
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}")
    return kind


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
        "w": {"kind": _checked_weight_kind(w_kind)},
        "rate": None if rate_infinite else rate,
        "residual": residual,
    }
    if rate_infinite:
        payload["rate_infinite"] = True
    _write_json(path, payload)


def load_design(path: str | Path) -> dict:
    """Read a design file back into live objects.

    Returns a dict with keys ``beta``, ``g``, ``w_kind``, ``rate``,
    ``residual``.
    """
    return _design_from_json(_read_json(path, "design file"), path)


def _design_from_json(payload: dict, path: str | Path) -> dict:
    """:func:`load_design` on the decoded JSON object of the file ``path``."""
    with _named_errors(f"design file {str(path)!r}"):
        _check_schema(payload, _DESIGN_SCHEMA)
        beta = StepBeta(payload["s"], payload["t"])
        if payload["M"] != beta.M:
            raise ValueError("'M' does not match the number of levels")
        g = MatchProfile(payload["g"]["kind"], payload["g"]["values"])
        if g.M != beta.M:
            raise ValueError("the matching profile has the wrong length")
        w_kind = _checked_weight_kind(payload["w"]["kind"])
    return {
        "beta": beta,
        "g": g,
        "w_kind": w_kind,
        "rate": math.inf if payload.get("rate_infinite") else payload.get("rate"),
        "residual": payload.get("residual"),
    }
