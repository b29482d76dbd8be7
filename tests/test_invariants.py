import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrolls import invariants, ring
from scrolls.invariants import (
    ScrollData,
    VERDICT_DOUBLE_POINTS,
    VERDICT_SMOOTH,
    build_report,
    hyperplane_power_coefficient,
    top_chern_normal,
)


def test_hyperplane_power_examples():
    assert hyperplane_power_coefficient(2, 2) == 3
    assert hyperplane_power_coefficient(1, 2) == 2
    for n in (1, 2, 5, 9):
        assert hyperplane_power_coefficient(n, 1) == 1


def test_hyperplane_power_grid_agrees_with_binomial():
    for n in range(1, 11):
        for k in range(1, 11):
            assert hyperplane_power_coefficient(n, k) == math.comb(n + k - 1, k - 1)
    for n, k in ((300, 300), (1000, 1), (1, 1000)):
        assert hyperplane_power_coefficient(n, k) == math.comb(n + k - 1, k - 1)


def test_top_chern_examples():
    assert top_chern_normal(1, 2, 5) == 10
    assert top_chern_normal(2, 2, 7) == 63
    assert top_chern_normal(3, 2, 9) == 336


def test_top_chern_rejects_small_ambient():
    with pytest.raises(ValueError):
        top_chern_normal(2, 2, 3)


@pytest.mark.parametrize("extraction, args", [
    (hyperplane_power_coefficient, (0, 2)),
    (top_chern_normal, (2, 0, 5)),
])
def test_engine_extractions_refuse_n_or_k_below_one(extraction, args):
    with pytest.raises(ValueError, match=r"need n >= 1 and k >= 1, got "):
        extraction(*args)


def test_top_chern_general_l_closed_form():
    # independent recomputation of C(l, n) * [h^(k-1)] (1+h)^(l-n-k)
    for n in range(1, 7):
        for k in range(1, 7):
            for l in (n + k, n + k + 1, 2 * n + 2 * k - 1, 2 * n + 2 * k + 3):
                expected = math.comb(l, n) * math.comb(l - n - k, k - 1)
                assert top_chern_normal(n, k, l) == expected


def double_point(data):
    return build_report(data).double_point


def test_scroll_degree_examples():
    assert build_report(ScrollData(1, 2, 5, 5)).deg_Y == 5
    assert build_report(ScrollData(2, 2, 7, 14)).deg_Y == 21
    assert build_report(ScrollData(2, 3, 9, 18)).deg_Y == 36


def test_double_point_examples():
    assert double_point(ScrollData(1, 2, 5, 5)) == 0
    assert double_point(ScrollData(2, 2, 7, 14)) == 0
    assert double_point(ScrollData(3, 2, 9, 54)) == 2592


def test_rr_min_degree_examples():
    # the Riemann-Roch floor n! * l is the complete case, one below it impossible
    for n, k, l, floor in ((1, 2, 5, 5), (2, 2, 7, 14), (3, 2, 9, 54)):
        assert ScrollData(n, k, l, floor).linear_system == "complete"
        assert ScrollData(n, k, l, floor - 1).linear_system == "impossible"


def test_scroll_data_validation():
    with pytest.raises(ValueError):
        ScrollData(0, 2, 5, 5)
    with pytest.raises(ValueError):
        ScrollData(1, 2, 2, 5)  # l < n + k
    with pytest.raises(ValueError):
        ScrollData(1, 2, 5, 0)


def test_linear_system_flag():
    assert ScrollData(2, 2, 7, 14).linear_system == "complete"
    assert ScrollData(2, 2, 7, 15).linear_system == "incomplete"
    assert ScrollData(2, 2, 7, 13).linear_system == "impossible"


def test_build_report_examples():
    smooth = build_report(ScrollData(2, 2, 7, 14))
    assert smooth.verdict == VERDICT_SMOOTH
    assert smooth.deg_Y == 21
    assert smooth.top_chern_normal == 63 * 14
    assert smooth.flags == ()

    forced = build_report(ScrollData(3, 2, 9, 54))
    assert forced.verdict == VERDICT_DOUBLE_POINTS
    assert forced.double_point == 2592

    quintic = build_report(ScrollData(1, 2, 5, 5))
    assert quintic.verdict == VERDICT_SMOOTH
    assert quintic.deg_Y == 5


def test_build_report_runs_each_engine_extraction_once(monkeypatch):
    calls = Counter()
    for name in ("top_chern_normal", "hyperplane_power_coefficient"):
        def counted(*args, _name=name, _original=getattr(invariants, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(invariants, name, counted)
    data = ScrollData(3, 2, 9, 54)
    report = build_report(data)
    assert calls == {"top_chern_normal": 1, "hyperplane_power_coefficient": 1}
    # the closed forms, with b = C(n+k-1, k-1) = 4 and t = C(l, n) C(l-n-k, k-1) = 336:
    # deg (1/k) b cn and double points (1/k) cn [(1/k) b^2 cn - t]
    b, t = math.comb(4, 1), math.comb(9, 3) * math.comb(4, 1)
    assert report.deg_Y == Fraction(b * 54, 2) == 108
    assert report.double_point == Fraction(54, 2) * (Fraction(b * b * 54, 2) - t) == 2592


def test_top_chern_normal_makes_no_ring_products(monkeypatch):
    calls = Counter()
    original = ring.mul

    def counted(a, b):
        calls["mul"] += 1
        return original(a, b)

    monkeypatch.setattr(ring, "mul", counted)
    assert top_chern_normal(30, 30, 119) == math.comb(119, 30) * math.comb(59, 29)
    assert calls["mul"] == 0
    # nor does the whole report: C(n+k-1, k-1) is read from (1+h)^(n+k-1),
    # another power of a unit
    for n, k in ((1, 1), (2, 1), (1, 5), (30, 30)):
        l = 2 * n + 2 * k - 1
        report = build_report(ScrollData(n, k, l, math.factorial(n) * l))
        assert report.deg_Y == Fraction(math.comb(n + k - 1, k - 1) * math.factorial(n) * l, k)
    assert calls["mul"] == 0


def test_build_report_flags_impossible_and_fractional():
    report = build_report(ScrollData(2, 2, 7, 13))
    assert report.deg_Y == Fraction(39, 2)
    assert "non-integral scroll degree" in report.flags
    assert any("Riemann-Roch" in flag for flag in report.flags)


def test_half_dimensional_complete_case_zero_iff_n_small():
    # with l = 2n+2k-1 and the complete-system degree, the double point
    # number vanishes exactly for n in {1, 2}
    for n in range(1, 9):
        for k in range(1, 9):
            l = 2 * n + 2 * k - 1
            dp = double_point(ScrollData(n, k, l, math.factorial(n) * l))
            assert (dp == 0) == (n in (1, 2))
            assert dp >= 0


def test_double_point_strictly_increasing_in_cn():
    for n in range(1, 7):
        for k in range(1, 7):
            l = 2 * n + 2 * k - 1
            floor = math.factorial(n) * l
            values = [double_point(ScrollData(n, k, l, floor + t)) for t in range(4)]
            assert all(earlier < later for earlier, later in zip(values, values[1:]))


def test_projection_forces_double_points_even_for_small_n():
    # cn above the complete-system value: smoothness impossible also at n = 1, 2
    assert double_point(ScrollData(1, 2, 5, 6)) > 0
    assert double_point(ScrollData(2, 2, 7, 15)) > 0


@settings(derandomize=True, max_examples=120)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 12),
    st.integers(1, 400),
)
def test_k_squared_double_point_is_integral(n, k, l_extra, cn):
    data = ScrollData(n, k, n + k + l_extra, cn)
    assert (k * k * double_point(data)).denominator == 1


def test_van_de_ven_setting_k_equals_one():
    # trivial subgroup: the variety itself in P^(l-1); the classical surface
    # of degree 10 in P^4 is the unique smooth-consistent n = 2 case
    assert double_point(ScrollData(2, 1, 5, 10)) == 0
    assert double_point(ScrollData(3, 1, 7, 42)) == 294
    assert build_report(ScrollData(2, 1, 5, 10)).verdict == VERDICT_SMOOTH
