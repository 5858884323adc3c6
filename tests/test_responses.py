import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratecraft.core import QuestionBank
from ratecraft.responses import (
    PsiInterpolator,
    estimate_known,
    estimate_unknown,
    read_qualities_csv,
    read_ratings_csv,
    write_qualities_csv,
    write_ratings_csv,
)

POWERS = {"root": 0.5, "plain": 1.0, "square": 2.0}


def power_psi(theta, question):
    return theta ** POWERS[question]


def synth_ratings(rng, qualities, questions, n_per_cell):
    """Bulk Bernoulli draws expanded to rating tuples."""
    out = []
    for item, theta in qualities.items():
        for q in questions:
            k = int(rng.binomial(n_per_cell, power_psi(theta, q)))
            out.extend([(item, q, 1)] * k)
            out.extend([(item, q, 0)] * (n_per_cell - k))
    return out


class TestEstimateKnown:
    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(42)
        qualities = {"low": 0.2, "mid": 0.5, "high": 0.8}
        ratings = synth_ratings(rng, qualities, list(POWERS), 100_000)
        bank = estimate_known(ratings, qualities)
        true = np.array(
            [[power_psi(th, q) for q in bank.questions] for th in bank.thetas]
        )
        assert np.abs(bank.psi - true).max() < 0.01

    def test_exact_counts_small_case(self):
        ratings = [
            ("a", "q", 1),
            ("a", "q", 0),
            ("a", "q", 1),
            ("b", "q", 0),
        ]
        bank = estimate_known(ratings, {"a": 0.3, "b": 0.7})
        assert bank.thetas == (0.3, 0.7)
        assert bank.positives.tolist() == [[2], [0]]
        assert bank.totals.tolist() == [[3], [1]]

    def test_items_sharing_quality_pool_counts(self):
        ratings = [
            ("a", "q", 1),
            ("a", "q", 0),
            ("b", "q", 1),
            ("b", "q", 1),
        ]
        bank = estimate_known(ratings, {"a": 0.5, "b": 0.5})
        assert bank.thetas == (0.5,)
        assert bank.positives.tolist() == [[3]]
        assert bank.totals.tolist() == [[4]]

    def test_order_invariance_up_to_question_order(self):
        # question columns follow first appearance; content is order-free
        rng = np.random.default_rng(7)
        qualities = {"a": 0.25, "b": 0.6}
        ratings = synth_ratings(rng, qualities, list(POWERS), 40)
        bank1 = estimate_known(ratings, qualities)
        shuffled = list(ratings)
        rng.shuffle(shuffled)
        bank2 = estimate_known(shuffled, qualities)
        assert bank1.thetas == bank2.thetas
        assert sorted(bank1.questions) == sorted(bank2.questions)
        align = [bank2.questions.index(q) for q in bank1.questions]
        assert np.array_equal(bank1.positives, bank2.positives[:, align])

    def test_unknown_item_rejected(self):
        with pytest.raises(ValueError, match="quality"):
            estimate_known([("ghost", "q", 1)], {"a": 0.5})

    def test_missing_cell_rejected_in_item_order(self):
        # cells (b, q2) and (a, q1) are missing; b appears first
        ratings = [("b", "q1", 1), ("a", "q2", 0)]
        with pytest.raises(ValueError, match=r"^no responses for item 'b', question 'q2'$"):
            estimate_known(ratings, {"a": 0.7, "b": 0.3})

    @pytest.mark.parametrize("estimate", (
        lambda r: estimate_known(r, {"a": 0.5}),
        lambda r: estimate_unknown(r, 1, 2),
    ), ids=("known", "unknown"))
    @pytest.mark.parametrize("bad", (0.7, "1", 2, None, math.nan), ids=repr)
    def test_bad_response_value_rejected(self, estimate, bad):
        with pytest.raises(ValueError, match=rf"^response must be 0 or 1, got {re.escape(repr(bad))}$"):
            estimate([("a", "q", 1), ("a", "q", bad)])

    def test_responses_equal_to_0_or_1_count(self):
        ratings = [("a", "q", 1.0), ("a", "q", True), ("a", "q", np.int64(0)), ("a", "q", 1)]
        bank = estimate_known(ratings, {"a": 0.5})
        assert bank.positives.tolist() == [[3]]
        assert bank.totals.tolist() == [[4]]


class TestEstimateUnknown:
    def test_rank_recovery_with_plenty_of_data(self):
        rng = np.random.default_rng(123)
        thetas = np.linspace(0.05, 0.95, 10)
        qualities = {f"item{i}": float(t) for i, t in enumerate(thetas)}
        questions = list(POWERS)
        per_cell = 10_000 // len(questions)
        ratings = synth_ratings(rng, qualities, questions, per_cell)
        bank = estimate_unknown(ratings, L=10, N=per_cell * len(questions))
        # anchors are rank midpoints; with this much data the induced rank
        # order matches the true quality order exactly
        assert bank.thetas == tuple((i + 0.5) / 10 for i in range(10))
        true = np.array(
            [[power_psi(t, q) for q in bank.questions] for t in thetas]
        )
        assert np.abs(bank.psi - true).max() < 0.05

    def test_ranking_error_shrinks_with_more_data(self):
        questions = list(POWERS)
        thetas = np.linspace(0.42, 0.58, 8)
        true_order = np.arange(8)

        def mean_kendall_error(n_per_item, trials, seed):
            rng = np.random.default_rng(seed)
            errs = []
            per_cell = n_per_item // len(questions)
            for _ in range(trials):
                qualities = {f"i{j:02d}": float(t) for j, t in enumerate(thetas)}
                ratings = synth_ratings(rng, qualities, questions, per_cell)
                bank = estimate_unknown(
                    ratings, L=8, N=per_cell * len(questions)
                )
                # recover the item order from pooled positives: the bank
                # rows are rank-ordered, so compare implied vs true order
                fractions = {}
                for item, _, resp in ratings:
                    pos, tot = fractions.get(item, (0, 0))
                    fractions[item] = (pos + resp, tot + 1)
                order = np.argsort(
                    [fractions[f"i{j:02d}"][0] for j in range(8)], kind="stable"
                )
                disc = sum(
                    1
                    for x in range(8)
                    for y in range(x + 1, 8)
                    if (order[x] < order[y]) != (true_order[x] < true_order[y])
                )
                errs.append(disc / 28)
            return float(np.mean(errs))

        errors = [
            mean_kendall_error(n, trials=20, seed=1) for n in (99, 999, 9999)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_wrong_item_count_rejected(self):
        with pytest.raises(ValueError):
            estimate_unknown([("a", "q", 1)], L=2, N=1)

    def test_uneven_response_counts_rejected(self):
        ratings = [("a", "q", 1), ("a", "q", 0), ("b", "q", 1)]
        with pytest.raises(ValueError):
            estimate_unknown(ratings, L=2, N=2)

    def test_missing_cell_rejected_in_rank_order(self):
        # cells (b, q2) and (a, q1) are missing; a ranks below b
        ratings = [("b", "q1", 1), ("a", "q2", 0)]
        with pytest.raises(ValueError, match=r"^no responses for item 'a', question 'q1'$"):
            estimate_unknown(ratings, L=2, N=1)

    @pytest.mark.parametrize("L, N, message", [
        (0, 2, "L must be an integer of at least 1, got 0"),
        (True, 2, "L must be an integer of at least 1, got True"),
        (1.0, 2, "L must be an integer of at least 1, got 1.0"),
        (1, 0, "N must be an integer of at least 1, got 0"),
        (1, False, "N must be an integer of at least 1, got False"),
        (1, math.nan, "N must be an integer of at least 1, got nan"),
        (np.int64(1), np.int32(2), None),
    ])
    def test_counts_checked_before_the_ratings(self, L, N, message):
        ratings = [("a", "q", 1), ("a", "q", 0)]
        if message is None:
            assert estimate_unknown(ratings, L, N).totals.tolist() == [[2]]
            return

        def unread():
            raise AssertionError("the ratings were read")
            yield

        with pytest.raises(ValueError) as err:
            estimate_unknown(unread(), L, N)
        assert str(err.value) == message

    def test_tie_broken_by_item_id(self):
        ratings = [("zz", "q", 1), ("aa", "q", 1)]
        bank = estimate_unknown(ratings, L=2, N=1)
        assert bank.thetas == (0.25, 0.75)
        # equal fractions: lexicographically smaller id takes the lower rank
        assert bank.positives.tolist() == [[1], [1]]


def reference_tables(ratings, qualities=None, L=None, N=None):
    """Plain-dict estimator: (thetas, questions, positives, totals) as lists,
    at known qualities, or at rank anchors when ``qualities`` is None."""
    items, questions, counts = [], [], {}
    for item, question, response in ratings:
        if item not in items:
            items.append(item)
        if question not in questions:
            questions.append(question)
        cell = counts.setdefault((item, question), [0, 0])
        cell[0] += response
        cell[1] += 1
    if qualities is not None:
        thetas = sorted({qualities[i] for i in items})
        rows = [(item, thetas.index(qualities[item])) for item in items]
    else:
        if len(items) != L:
            raise ValueError(f"expected {L} items, found {len(items)}")
        pos = {i: sum(c[0] for (j, _), c in counts.items() if j == i) for i in items}
        tot = {i: sum(c[1] for (j, _), c in counts.items() if j == i) for i in items}
        for item in items:
            if tot[item] != N:
                raise ValueError(f"item {item!r} has {tot[item]} responses, expected {N}")
        ranked = sorted(items, key=lambda i: (pos[i] / tot[i], i))
        thetas = [(rank + 0.5) / L for rank in range(L)]
        rows = [(item, rank) for rank, item in enumerate(ranked)]
    positives = [[0] * len(questions) for _ in thetas]
    totals = [[0] * len(questions) for _ in thetas]
    for item, row in rows:
        for col, question in enumerate(questions):
            if (item, question) not in counts:
                raise ValueError(f"no responses for item {item!r}, question {question!r}")
            positives[row][col] += counts[item, question][0]
            totals[row][col] += counts[item, question][1]
    return list(thetas), questions, positives, totals


def tables_or_error(estimate, *args):
    try:
        out = estimate(*args)
    except ValueError as exc:
        return str(exc)
    if isinstance(out, QuestionBank):
        return list(out.thetas), list(out.questions), out.positives.tolist(), out.totals.tolist()
    return out


@st.composite
def rating_lists(draw):
    """Each item draws its questions from a shared pool, so cells can be
    missing; one extra rating may break equal per-item counts."""
    items = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True))
    questions = draw(st.lists(st.sampled_from(("q1", "q2", "q3")), min_size=1,
                              max_size=3, unique=True))
    per_item = draw(st.integers(1, 6))
    ratings = [
        (item, draw(st.sampled_from(questions)), draw(st.integers(0, 1)))
        for item in items for _ in range(per_item)
    ]
    if draw(st.booleans()):
        ratings.append((draw(st.sampled_from(items)), questions[0], 1))
    ratings = draw(st.permutations(ratings))
    qualities = {item: draw(st.sampled_from((0.25, 0.5, 0.75))) for item in items}
    return ratings, qualities, len(items), per_item


@settings(max_examples=300, deadline=None)
@given(rating_lists())
def test_estimators_match_plain_dict_reference(case):
    ratings, qualities, L, N = case
    assert tables_or_error(estimate_known, ratings, qualities) == (
        tables_or_error(reference_tables, ratings, qualities)
    )
    assert tables_or_error(estimate_unknown, ratings, L, N) == (
        tables_or_error(reference_tables, ratings, None, L, N)
    )


class TestPsiInterpolator:
    def test_anchor_exactness(self, random_bank):
        interp = PsiInterpolator.from_bank(random_bank)
        rows = interp.rows(np.asarray(random_bank.thetas))
        assert np.array_equal(rows, random_bank.psi)

    def test_clamps_outside_anchor_range(self, random_bank):
        interp = PsiInterpolator.from_bank(random_bank)
        lo = interp.row(0.0)
        hi = interp.row(1.0)
        assert np.array_equal(lo, random_bank.psi[0])
        assert np.array_equal(hi, random_bank.psi[-1])

    @pytest.mark.parametrize("bad", (math.nan, -0.1, 1.5))
    def test_rejects_quality_outside_unit_or_nan(self, random_bank, bad):
        interp = PsiInterpolator.from_bank(random_bank)
        with pytest.raises(ValueError, match="quality"):
            interp.rows(np.array([0.3, bad]))

    def test_lookups_leave_pickles_alone(self, random_bank):
        interp = PsiInterpolator.from_bank(random_bank)
        before = pickle.dumps(interp)
        rows = interp.rows(np.array([0.0, 0.5, 1.0]))
        assert pickle.dumps(interp) == before
        assert np.array_equal(pickle.loads(before).rows(np.array([0.0, 0.5, 1.0])), rows)

    def test_midpoint_is_average(self):
        bank = QuestionBank(
            (0.2, 0.6), ("q",), np.array([[0.1], [0.5]])
        )
        interp = PsiInterpolator.from_bank(bank)
        assert interp.row(0.4)[0] == pytest.approx(0.3, abs=1e-12)

    def test_values_between_neighbor_anchors(self, random_bank):
        interp = PsiInterpolator.from_bank(random_bank)
        thetas = random_bank.thetas
        for i in range(len(thetas) - 1):
            mid = 0.5 * (thetas[i] + thetas[i + 1])
            row = interp.row(mid)
            lo = np.minimum(random_bank.psi[i], random_bank.psi[i + 1])
            hi = np.maximum(random_bank.psi[i], random_bank.psi[i + 1])
            assert np.all(row >= lo - 1e-12)
            assert np.all(row <= hi + 1e-12)

    def test_single_anchor_is_constant(self):
        bank = QuestionBank((0.5,), ("q",), np.array([[0.4]]))
        interp = PsiInterpolator.from_bank(bank)
        assert interp.row(0.1)[0] == 0.4
        assert interp.row(0.9)[0] == 0.4


class TestCsvIO:
    def test_ratings_round_trip(self, tmp_path):
        ratings = [("a", "q1", 1), ("b", "q2", 0), ("a", "q2", 1)]
        path = tmp_path / "ratings.csv"
        write_ratings_csv(path, ratings)
        assert read_ratings_csv(path) == ratings
        assert path.read_text().splitlines()[0] == "item_id,question,response"

    def test_qualities_round_trip(self, tmp_path):
        qualities = {"a": 0.25, "b": 0.75}
        path = tmp_path / "q.csv"
        write_qualities_csv(path, qualities)
        assert read_qualities_csv(path) == qualities

    @pytest.mark.parametrize("response", [0.7, "1", 2, -1, math.nan, None])
    def test_ratings_writer_refuses_what_the_estimators_refuse(self, tmp_path, response):
        ratings = [("a", "q", 1), ("a", "q", response)]
        path = tmp_path / "ratings.csv"
        with pytest.raises(ValueError) as written:
            write_ratings_csv(path, ratings)
        with pytest.raises(ValueError) as estimated:
            estimate_unknown(ratings, 1, 2)
        assert str(written.value) == str(estimated.value) == (
            f"response must be 0 or 1, got {response!r}"
        )
        assert not path.exists()

    def test_ratings_writer_writes_responses_as_digits(self, tmp_path):
        path = tmp_path / "ratings.csv"
        write_ratings_csv(path, [("a", "q", True), ("a", "q", 1.0), ("b", "q", np.int64(0))])
        assert path.read_text() == "item_id,question,response\na,q,1\na,q,1\nb,q,0\n"

    @pytest.mark.parametrize("theta", [math.nan, 1.5, 0.0, 1.0, -0.25, math.inf])
    def test_qualities_writer_refuses_what_the_reader_refuses(self, tmp_path, theta):
        path = tmp_path / "q.csv"
        with pytest.raises(ValueError) as written:
            write_qualities_csv(path, {"a": 0.5, "b": theta})
        assert not path.exists()
        path.write_text(f"item_id,theta\na,0.5\nb,{theta!r}\n")
        with pytest.raises(ValueError) as read:
            read_qualities_csv(path)
        assert str(read.value) == f"{path}:3: {written.value}"

    def test_bad_response_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("item_id,question,response\na,q,yes\n")
        with pytest.raises(ValueError, match=":2:"):
            read_ratings_csv(path)

    def test_bad_quality_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("item_id,theta\na,high\n")
        with pytest.raises(ValueError, match=":2:"):
            read_qualities_csv(path)
