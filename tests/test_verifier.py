import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrolls.invariants import ScrollData, build_report
from scrolls.verifier import (
    FAMILY_DEGREE_NOTE,
    InequalityRecord,
    conjecture_family_report,
    inequality_check,
    sweep,
    sweep_records,
    termwise_check,
    very_ample_bound,
)


def test_inequality_examples():
    rec = inequality_check(1, 2)
    assert (rec.lhs, rec.rhs, rec.relation) == (10, 10, "eq")
    rec = inequality_check(2, 2)
    assert (rec.lhs, rec.rhs, rec.relation) == (42, 42, "eq")
    rec = inequality_check(3, 2)
    assert (rec.lhs, rec.rhs, rec.relation) == (216, 168, "gt")


def test_termwise_examples():
    rec = termwise_check(3, 2)
    assert [(t.l, t.lhs, t.rhs, t.holds) for t in rec.terms] == [
        (2, 8, 8, True),
        (3, 9, 7, True),
    ]
    assert termwise_check(2, 5).terms == ()
    (term,) = [t for t in termwise_check(5, 1).terms if t.l == 5]
    assert (term.lhs, term.rhs, term.holds) == (10, 7, True)


def test_termwise_equivalence_with_span_condition():
    for n in range(3, 41):
        for k in range(1, 41):
            for term in termwise_check(n, k).terms:
                assert term.holds == term.equiv_holds
                assert term.equiv_holds == (n + k >= term.l)


def test_termwise_soundness_implies_inequality():
    for n in range(3, 31):
        for k in range(1, 31):
            record = termwise_check(n, k)
            if all(term.holds for term in record.terms):
                assert inequality_check(n, k).relation in ("eq", "gt")


def test_sweep_orders_and_classifies():
    result = sweep(range(1, 4), range(1, 2))
    assert [(r.n, r.k) for r in result.records] == [(1, 1), (2, 1), (3, 1)]
    assert [r.relation for r in result.records] == ["eq", "eq", "gt"]
    assert result.equality_set == ((1, 1), (2, 1))


def test_sweep_unordered_input_is_sorted():
    result = sweep([3, 1, 2], [2, 1])
    assert [(r.n, r.k) for r in result.records] == [
        (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)
    ]


def test_sweep_empty_range_rejected():
    with pytest.raises(ValueError):
        sweep(range(1, 1), range(1, 5))


# unsorted, repeated, with gaps; n = 1 and k = 1 drawn often
grid_values = st.lists(st.one_of(st.integers(1, 3), st.integers(1, 60)), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(grid_values, grid_values)
@example([7, 1, 3, 1], [9, 1, 4, 5, 2])
def test_sweep_records_match_per_pair_oracle(ns, ks):
    pairs = [(n, k) for n in sorted(set(ns)) for k in sorted(set(ks))]
    expected = []
    for n, k in pairs:
        lhs = math.comb(n + k - 1, k - 1) * (2 * n + 2 * k - 1) * math.factorial(n)
        rhs = k * math.comb(2 * n + 2 * k - 1, n)
        expected.append((n, k, lhs, rhs, "eq" if lhs == rhs else ("gt" if lhs > rhs else "lt")))
    assert list(sweep_records(ns, ks)) == expected
    assert [inequality_check(n, k) for n, k in pairs] == expected


def test_sweep_records_are_immutable_inequality_records():
    records = list(sweep_records(range(1, 4), range(1, 3)))
    # tuple equality alone would also accept plain 5-tuples
    assert all(isinstance(rec, InequalityRecord) for rec in records)
    assert isinstance(inequality_check(3, 2), InequalityRecord)
    rec = records[0]
    assert rec._fields == ("n", "k", "lhs", "rhs", "relation")
    assert rec == (1, 1, 3, 3, "eq")
    with pytest.raises(AttributeError):
        rec.relation = "gt"
    tampered = rec._replace(relation="gt")
    assert isinstance(tampered, InequalityRecord)
    assert tampered == (1, 1, 3, 3, "gt") and rec.relation == "eq"


@pytest.mark.parametrize(("ns", "ks", "message"), [
    ([2, 0, 3], [1, 2], "got n=0, k=1"),
    ([1, 2], [4, 0], "got n=1, k=0"),
    ([], [1], "nonempty"),
    ([1], range(3, 1), "nonempty"),
    ([1, sys.maxsize + 1], [1], f"need n <= {sys.maxsize}, got n={sys.maxsize + 1}"),
])
def test_sweep_records_validates_at_call_time(ns, ks, message):
    with pytest.raises(ValueError, match=message):
        sweep_records(ns, ks)  # no next(): the error must not wait for the first record


def test_equality_exactly_for_n_at_most_two():
    result = sweep(range(1, 21), range(1, 21))
    for rec in result.records:
        assert rec.relation == ("eq" if rec.n <= 2 else "gt")


def test_double_point_sign_matches_inequality_gap():
    import math

    for n in range(1, 9):
        for k in range(1, 9):
            l = 2 * n + 2 * k - 1
            dp = build_report(ScrollData(n, k, l, math.factorial(n) * l)).double_point
            rec = inequality_check(n, k)
            gap = rec.lhs - rec.rhs
            assert (dp > 0) == (gap > 0)
            assert (dp == 0) == (gap == 0)


def test_very_ample_bound_examples():
    assert very_ample_bound(3, 13) == 5
    assert very_ample_bound(3, 8) == 1
    assert very_ample_bound(4, 10) == 1
    assert very_ample_bound(3, 10) == 3  # k < 4, largest odd is 3


def test_very_ample_bound_rejections():
    with pytest.raises(ValueError):
        very_ample_bound(2, 13)
    with pytest.raises(ValueError):
        very_ample_bound(3, 7)  # l must exceed 2n+1


def test_very_ample_bound_at_cap_three():
    # cap = l - 2n = 3, the least odd cap the l > 2n+1 refusal leaves (l = 8 is cap 2)
    assert very_ample_bound(3, 9) == 1


@pytest.mark.parametrize("n, k", [(0, 1), (1, 0)])
def test_termwise_check_refuses_n_or_k_below_one(n, k):
    with pytest.raises(ValueError, match=f"need n >= 1 and k >= 1, got n={n}, k={k}"):
        termwise_check(n, k)


def test_family_reports():
    reports = conjecture_family_report(10)
    assert len(reports) == 9
    for k, report in zip(range(2, 11), reports):
        assert report.data.n == 2
        assert report.data.k == k
        assert report.data.l == 2 * k + 3
        assert report.data.cn == 2 * (2 * k + 3)
        assert report.data.linear_system == "complete"
        assert report.double_point == 0
        assert report.deg_Y == (k + 1) * (2 * k + 3)
    assert reports[0].deg_Y == 21  # the degree-21 threefold anchor


def test_family_requires_at_least_order_two():
    with pytest.raises(ValueError):
        conjecture_family_report(1)


def test_family_degree_note_mentions_convention():
    assert "2*(2k+3)" in FAMILY_DEGREE_NOTE
