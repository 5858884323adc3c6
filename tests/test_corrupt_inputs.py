"""Corrupted input files: every subcommand that reads one exits cleanly.

Each of the input formats starts from a valid file, which is then
corrupted at the byte level (truncation, flipped bits, inserted bytes
such as non-UTF-8 sequences or NaN/Infinity tokens) or at the level of
its structure (keys and columns dropped or renamed, values replaced by
ones of another type, rows dropped or repeated).  Every subcommand that
reads the format must then return normally; a failure is exit code 1
(or 2 for a solver), exactly one line on stderr and no output file.
"""

import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratecraft import QuestionBank, QuestionDistribution, save_design
from ratecraft.cli import main
from ratecraft.optimizer import nested_bisection
from ratecraft.responses import write_qualities_csv, write_ratings_csv

SIM = ["--steps", "2", "--items", "10", "--buyers", "3", "--record-at", "2"]

# the subcommands that read each format, with {f} the corrupted file, {o}
# the output file and the other inputs valid
COMMANDS = {
    "design": [
        ["rate", "--design", "{f}"],
        ["double", "--design", "{f}", "--out", "{o}"],
        ["fit-h", "--beta", "{f}", "--psi", "{psi}", "--out", "{o}"],
        ["simulate", "--design", "{f}", *SIM, "--out", "{o}"],
    ],
    "mix": [["simulate", "--design", "{f}", "--psi", "{psi}", *SIM, "--out", "{o}"]],
    "psi": [
        ["fit-h", "--beta", "{design}", "--psi", "{f}", "--out", "{o}"],
        ["simulate", "--design", "{mix}", "--psi", "{f}", *SIM, "--out", "{o}"],
    ],
    "counts": [["fit-h", "--beta", "{design}", "--psi", "{f}", "--out", "{o}"]],
    "ratings": [
        ["estimate-psi", "--mode", "known", "--ratings", "{f}",
         "--qualities", "{qualities}", "--out", "{o}"],
        ["estimate-psi", "--mode", "unknown", "--ratings", "{f}",
         "--items", "4", "--per-item", "4", "--out", "{o}"],
    ],
    "qualities": [
        ["estimate-psi", "--mode", "known", "--ratings", "{ratings}",
         "--qualities", "{f}", "--out", "{o}"],
    ],
}
JSON_KEYS = {
    "design": ["M", "s", "s.1", "t", "t.1", "t.0", "g", "g.kind", "g.values",
               "g.values.0", "w", "w.kind", "rate", "residual"],
    "mix": ["questions", "questions.0", "probabilities", "probabilities.1", "objective"],
}
JSON_VALUES = [5, -1, 0.5, 10**6, 10**400, "x", "", True, None, [], [1, "a"], {},
               {"kind": 5}, math.nan, math.inf, -math.inf]
CSV_VALUES = ["", " ", "abc", "nan", "inf", "-inf", "-1", "0", "1", "2", "0.5",
              "1e309", "9" * 25, '"', "1.5", "d"]
BYTES = [b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x00", b"NaN", b"Infinity",
         b"-Infinity", b'"', b",", b"\n", b"\r", b"{", b"]"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The path of one valid file per format, keyed by format."""
    root = tmp_path_factory.mktemp("valid")
    paths = {name: root / f"{name}.{'json' if name in JSON_KEYS else 'csv'}"
             for name in COMMANDS}
    design = nested_bisection(4)
    save_design(paths["design"], design.beta, design.g, "kendall",
                design.rate, design.residual)
    QuestionDistribution(("a", "b"), (0.25, 0.75), 0.1).to_json(paths["mix"])
    QuestionBank((0.2, 0.5, 0.8), ("a", "b"),
                 np.array([[0.1, 0.3], [0.4, 0.6], [0.7, 0.9]])).to_csv(paths["psi"])
    QuestionBank((0.2, 0.8), ("a", "b"), np.array([[0.25, 0.5], [0.5, 0.75]]),
                 np.array([[1, 2], [2, 3]]), np.array([[4, 4], [4, 4]])).to_csv(paths["counts"])
    write_ratings_csv(paths["ratings"], [
        (item, q, (k + n) % 2) for k, item in enumerate("abcd")
        for q in ("a", "b") for n in range(2)
    ])
    write_qualities_csv(paths["qualities"], {"a": 0.2, "b": 0.4, "c": 0.6, "d": 0.8})
    return paths


def _json_corruption(fmt):
    key = st.sampled_from(JSON_KEYS[fmt])
    return st.one_of(
        st.tuples(st.just("drop"), key),
        st.tuples(st.just("rename"), key),
        st.tuples(st.just("set"), key, st.sampled_from(JSON_VALUES)),
    )


def _csv_corruption(fmt):
    index = st.integers(0, 20)
    return st.one_of(
        st.tuples(st.just("drop_column"), index),
        st.tuples(st.just("rename_column"), index),
        st.tuples(st.just("set"), index, index, st.sampled_from(CSV_VALUES)),
        st.tuples(st.just("drop_row"), index),
        st.tuples(st.just("repeat_row"), index),
    )


def _corruption(fmt):
    where = st.floats(0.0, 1.0)
    structural = _json_corruption(fmt) if fmt in JSON_KEYS else _csv_corruption(fmt)
    return st.tuples(st.just(fmt), st.one_of(
        st.tuples(st.just("truncate"), where),
        st.tuples(st.just("flip"), where, st.integers(1, 255)),
        st.tuples(st.just("insert"), where, st.sampled_from(BYTES)),
        structural,
    ))


def _corrupt_json(payload, op, key, value=None):
    *parents, last = [int(p) if p.isdigit() else p for p in key.split(".")]
    for part in parents:
        payload = payload[part]
    if op == "set":
        payload[last] = value
    elif isinstance(payload, list):
        payload.pop(last)
    else:
        moved = payload.pop(last)
        if op == "rename":
            payload[last + "_x"] = moved


def _corrupt_csv(rows, op, a, b=None, value=None):
    row = rows[a % len(rows)]
    if op == "drop_column":
        for r in rows:
            r.pop(a % len(r))
    elif op == "rename_column":
        rows[0][a % len(rows[0])] += "_x"
    elif op == "set":
        row[b % len(row)] = value
    elif op == "drop_row":
        rows.remove(row)
    else:
        rows.insert(a % len(rows), list(row))


def corrupt(valid: bytes, fmt: str, change: tuple) -> bytes:
    op, *args = change
    if op in ("truncate", "flip", "insert"):
        at = int(args[0] * len(valid))
        if op == "truncate":
            return valid[:at]
        if op == "insert":
            return valid[:at] + args[1] + valid[at:]
        at = min(at, len(valid) - 1)
        return valid[:at] + bytes([valid[at] ^ args[1]]) + valid[at + 1:]
    if fmt in JSON_KEYS:
        payload = json.loads(valid)
        _corrupt_json(payload, op, *args)
        return json.dumps(payload).encode()
    rows = list(csv.reader(io.StringIO(valid.decode())))
    _corrupt_csv(rows, op, *args)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(sorted(COMMANDS)).flatmap(_corruption))
@example(case=("mix", ("set", "questions.1", "a")))
@example(case=("mix", ("set", "probabilities", 5)))
@example(case=("mix", ("set", "questions", 5)))
@example(case=("design", ("drop", "M")))
@example(case=("design", ("set", "w.kind", "bogus")))
@example(case=("psi", ("set", 2, 0, "abc")))
@example(case=("counts", ("set", 1, 3, "0")))
@example(case=("ratings", ("insert", 0.5, b"\xff")))
def test_corrupted_file_never_escapes_main(files, case):
    fmt, change = case
    bad = files[fmt].with_name(f"bad-{files[fmt].name}")
    bad.write_bytes(corrupt(files[fmt].read_bytes(), fmt, change))
    out = bad.with_name("out")
    for template in COMMANDS[fmt]:
        argv = [arg.format(f=bad, o=out, **files) for arg in template]
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        # outside pytest a warning the default filters show goes to stderr
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, code)
        shown = [w for w in caught if not issubclass(
            w.category, (DeprecationWarning, PendingDeprecationWarning, ImportWarning))]
        if code != 0:
            assert err.count("\n") + len(shown) == 1, (argv, err, shown)
            assert err.startswith("error: " if code == 1 else "solver failed: "), err
            assert not out.exists(), argv


def test_duplicate_question_ids_name_the_mix_file(files, tmp_path, capsys):
    """A mix file listing one question twice fails where it is read, with
    an error naming the file, not later in the simulator."""
    payload = json.loads(files["mix"].read_bytes())
    payload["questions"][1] = payload["questions"][0]
    bad = tmp_path / "dup-mix.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "out"
    argv = [arg.format(f=bad, o=out, **files) for arg in COMMANDS["mix"][0]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: question mix {str(bad)!r}: duplicate question ids")
    assert err.count("\n") == 1 and not out.exists()
