from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrolls.invariants import ScrollData, ScrollReport
from scrolls.ring import (
    ExponentRangeError,
    NotInvertibleError,
    RingShape,
    ShapeMismatchError,
    TruncPoly,
    add,
    binomial,
    inverse,
    make_poly,
    mul,
    one,
    power_signed,
    product_coefficient,
    zero,
)


def restrict(p: TruncPoly, shape: RingShape) -> TruncPoly:
    """Discard monomials outside a smaller shape (test-side truncation)."""
    return TruncPoly(
        shape,
        {m: v for m, v in p.coeffs.items() if m[0] <= shape.c_cap and m[1] <= shape.h_cap},
    )


def naive_product(shape: RingShape, a: TruncPoly, b: TruncPoly) -> TruncPoly:
    """Oracle: full untruncated convolution, then discard out-of-range terms."""
    out = {}
    for (i1, j1), v1 in a.coeffs.items():
        for (i2, j2), v2 in b.coeffs.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + v1 * v2
    kept = {m: v for m, v in out.items() if m[0] <= shape.c_cap and m[1] <= shape.h_cap and v != 0}
    return TruncPoly(shape, kept)


# ----------------------------------------------------------------- examples

def test_make_poly_hyperplane_class():
    p = make_poly(RingShape(1, 1), [(1, 0, 1), (0, 1, 1)])
    assert p.coeffs == {(1, 0): 1, (0, 1): 1}


def test_make_poly_cancellation_gives_zero():
    p = make_poly(RingShape(2, 0), [(0, 0, 1), (0, 0, -1)])
    assert p.coeffs == {}
    assert p == zero(RingShape(2, 0))


def test_make_poly_rejects_out_of_range():
    with pytest.raises(ExponentRangeError, match=r"\(2, 0\)"):
        make_poly(RingShape(1, 1), [(2, 0, 1)])


def test_elements_are_plain_data():
    # equality is that of the (shape, coeffs) fields; the dict keeps them unhashable
    shape = RingShape(1, 1)
    p = make_poly(shape, [(1, 0, 1), (0, 1, Fraction(1, 2))])
    assert p == TruncPoly(shape, {(1, 0): 1, (0, 1): Fraction(1, 2)})
    assert zero(shape) != zero(RingShape(1, 2))
    total = add(p, make_poly(shape, [(0, 1, Fraction(1, 2))]))  # canonicalised by make_poly
    assert total.coeffs == {(1, 0): 1, (0, 1): 1} and type(total.coeffs[0, 1]) is int
    with pytest.raises(TypeError, match="unhashable"):
        hash(p)
    # no arithmetic operators: in particular no tuple concatenation or repetition
    for operate in (lambda: p * p, lambda: p + p, lambda: p - p, lambda: -p, lambda: p * 2):
        with pytest.raises(TypeError):
            operate()
    assert p != (p.shape, p.coeffs) and (p.shape, p.coeffs) != p
    # the refusals of the value types, verbatim
    with pytest.raises(ValueError) as refused:
        RingShape(-1, 0)
    assert str(refused.value) == "caps must be non-negative, got RingShape(c_cap=-1, h_cap=0)"
    for fields, message in [  # checked in this order
        ((0, 1, 0, 0), "need n >= 1 and k >= 1, got n=0, k=1"),
        ((2, 2, 3, 0), "need l >= n + k = 4, got l=3"),
        ((2, 2, 4, 0), "need cn >= 1, got cn=0"),
    ]:
        with pytest.raises(ValueError) as refused:
            ScrollData(*fields)
        assert str(refused.value) == message
    data = ScrollData(n=2, k=2, l=7, cn=14)
    assert ScrollReport(data, Fraction(21), 0, Fraction(0), "consistent-with-smooth").flags == ()


def test_mul_truncates_squares():
    shape = RingShape(1, 1)
    p = make_poly(shape, [(1, 0, 1), (0, 1, 1)])
    assert mul(p, p) == make_poly(shape, [(1, 1, 2)])


def test_mul_identity():
    shape = RingShape(3, 2)
    p = make_poly(shape, [(1, 0, Fraction(2, 3)), (2, 2, -5), (0, 0, 7)])
    assert mul(one(shape), p) == p
    assert mul(p, one(shape)) == p


def test_mul_geometric_cancellation():
    # (1+h)(1-h+h^2) = 1+h^3 = 1 once h^3 is truncated away
    shape = RingShape(0, 2)
    a = make_poly(shape, [(0, 0, 1), (0, 1, 1)])
    b = make_poly(shape, [(0, 0, 1), (0, 1, -1), (0, 2, 1)])
    assert mul(a, b) == one(shape)


def test_mul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        mul(one(RingShape(1, 1)), one(RingShape(1, 2)))


@pytest.mark.parametrize("make, error, message", [
    (lambda: RingShape(-1, 0), ValueError, "caps must be non-negative, "),
    (lambda: add(one(RingShape(1, 1)), one(RingShape(2, 1))), ShapeMismatchError, "shapes differ"),
])
def test_negative_caps_and_mixed_shapes_are_refused(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_inverse_geometric_series():
    shape = RingShape(0, 2)
    p = make_poly(shape, [(0, 0, 1), (0, 1, 1)])
    expected = make_poly(shape, [(0, 0, 1), (0, 1, -1), (0, 2, 1)])
    assert power_signed(p, -1) == expected
    assert inverse(p) == expected


def test_series_binomial_negative_exponent():
    # (1+h)^(-2) = 1 - 2h + 3h^2 - 4h^3 + 5h^4 once h^5 is truncated away
    shape = RingShape(0, 4)
    p = make_poly(shape, [(0, 0, 1), (0, 1, 1)])
    expected = make_poly(shape, [(0, j, (-1) ** j * (j + 1)) for j in range(5)])
    assert power_signed(p, -2) == expected


def test_power_trinomial_coefficient():
    # coefficient of c*h in (1+c+h)^5 is 5!/(1!*1!*3!) = 20
    shape = RingShape(1, 1)
    p = make_poly(shape, [(0, 0, 1), (1, 0, 1), (0, 1, 1)])
    assert power_signed(p, 5).coeffs[1, 1] == 20


def test_power_zero_is_one():
    shape = RingShape(2, 2)
    p = make_poly(shape, [(0, 0, Fraction(3, 2)), (1, 1, 4)])
    assert power_signed(p, 0) == one(shape)


def test_negative_power_needs_unit():
    shape = RingShape(2, 1)
    p = make_poly(shape, [(1, 0, 1)])
    with pytest.raises(NotInvertibleError):
        power_signed(p, -1)


def test_power_rejects_non_integer_exponent():
    p = make_poly(RingShape(2, 1), [(0, 0, 1), (1, 0, 1)])
    for e in (-1.0, 1.0, 2.0):
        with pytest.raises(TypeError):
            power_signed(p, e)


def test_nilpotent_power_past_the_caps_is_zero():
    shape = RingShape(3, 2)
    p = make_poly(shape, [(1, 0, 1), (0, 1, 1)])
    assert power_signed(p, 10**9) == zero(shape)


def test_coefficient_examples():
    # a coefficient is read as the product with one, which checks the index
    shape = RingShape(1, 1)
    p = make_poly(shape, [(1, 0, 1), (0, 1, 1)])
    assert product_coefficient(p, one(shape), 1, 0) == 1
    assert product_coefficient(zero(shape), one(shape), 1, 1) == 0
    q = power_signed(make_poly(RingShape(2, 1), [(1, 0, 1), (0, 1, 1)]), 3)
    assert product_coefficient(q, one(q.shape), 2, 1) == 3  # C(3, 1) for (n, k) = (2, 2)
    with pytest.raises(ExponentRangeError):
        product_coefficient(p, one(shape), 2, 0)


def test_product_coefficient_checks_shape_and_range():
    with pytest.raises(ShapeMismatchError):
        product_coefficient(one(RingShape(1, 1)), one(RingShape(1, 2)), 0, 0)
    shape = RingShape(1, 1)
    p = make_poly(shape, [(1, 0, 1), (0, 1, 1)])
    for i, j in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(ExponentRangeError):
            product_coefficient(p, p, i, j)


def test_binomial_values():
    assert binomial(7, 2) == 21
    assert binomial(5, 0) == 1
    assert binomial(9, 3) == 84
    assert binomial(4, 7) == 0
    assert binomial(4, -2) == 0
    assert binomial(240, 60) > 10**57  # no overflow
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_repr_mentions_generators():
    shape = RingShape(2, 2)
    p = make_poly(shape, [(2, 1, -3), (0, 0, 1)])
    assert "c^2" in repr(p) and "h" in repr(p)
    assert repr(zero(shape)) == "0"


# --------------------------------------------------------------- properties

coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
)


@st.composite
def shaped_polys(draw, count=2, max_cap=4, max_terms=5):
    shape = RingShape(draw(st.integers(0, max_cap)), draw(st.integers(0, max_cap)))
    polys = []
    for _ in range(count):
        terms = draw(
            st.lists(
                st.tuples(
                    st.integers(0, shape.c_cap), st.integers(0, shape.h_cap), coefficients
                ),
                max_size=max_terms,
            )
        )
        polys.append(make_poly(shape, terms))
    return (shape, *polys)


@st.composite
def shaped_units(draw, max_cap=3, max_terms=4):
    shape = RingShape(draw(st.integers(0, max_cap)), draw(st.integers(0, max_cap)))
    terms = draw(
        st.lists(
            st.tuples(st.integers(0, shape.c_cap), st.integers(0, shape.h_cap), coefficients),
            max_size=max_terms,
        )
    )
    constant = draw(coefficients.filter(lambda v: v != 0))
    p = add(make_poly(shape, terms), make_poly(shape, [(0, 0, constant)]))
    if p.constant_term() == 0:
        p = add(p, make_poly(shape, [(0, 0, 1)]))
    return shape, p


@settings(derandomize=True, max_examples=80)
@given(shaped_polys(count=3))
def test_ring_axioms(data):
    shape, a, b, c = data
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, one(shape)) == a


@settings(derandomize=True, max_examples=80)
@given(shaped_polys(count=2))
def test_mul_matches_naive_oracle(data):
    shape, a, b = data
    assert mul(a, b) == naive_product(shape, a, b)


@settings(derandomize=True, max_examples=80)
@given(shaped_polys(count=2), st.data())
def test_product_coefficient_matches_full_product(polys, data):
    shape, a, b = polys
    i = data.draw(st.integers(0, shape.c_cap))
    j = data.draw(st.integers(0, shape.h_cap))
    value = product_coefficient(a, b, i, j)
    expected = mul(a, b).coeffs.get((i, j), 0)
    assert value == expected
    assert type(value) is type(expected)  # canonical: integral values are ints


@settings(derandomize=True, max_examples=80)
@given(shaped_units())
def test_unit_times_inverse_is_one(data):
    shape, p = data
    assert mul(p, power_signed(p, -1)) == one(shape)


@settings(derandomize=True, max_examples=50)
@given(shaped_units(), st.integers(-3, 3), st.integers(-3, 3))
def test_power_addition_law(data, a, b):
    shape, p = data
    assert power_signed(p, a + b) == mul(power_signed(p, a), power_signed(p, b))


def iterated_mul(shape: RingShape, p: TruncPoly, e: int) -> TruncPoly:
    out = one(shape)
    for _ in range(e):
        out = mul(out, p)
    return out


@settings(derandomize=True, max_examples=120)
@given(shaped_polys(count=1, max_cap=6, max_terms=6), coefficients, st.integers(-9, 9))
def test_power_matches_iterated_mul(data, constant, e):
    # the added constant term may be 0 (p not a unit), +-1 or any other rational
    shape, p = data
    p = add(p, make_poly(shape, [(0, 0, constant)]))
    if e < 0 and p.constant_term() == 0:
        with pytest.raises(NotInvertibleError):
            power_signed(p, e)
        return
    q = power_signed(p, e)
    if e >= 0:
        assert q == iterated_mul(shape, p, e)
    else:
        assert mul(q, iterated_mul(shape, p, -e)) == one(shape)
    for v in q.coeffs.values():  # canonical: no zeros, integral values are ints
        assert type(v) is int and v != 0 or type(v) is Fraction and v.denominator != 1


@settings(derandomize=True, max_examples=60)
@given(shaped_polys(count=2, max_cap=3))
def test_truncation_consistency(data):
    small, a, b = data
    big = RingShape(small.c_cap + 2, small.h_cap + 2)
    a_big = make_poly(big, [(i, j, v) for (i, j), v in a.coeffs.items()])
    b_big = make_poly(big, [(i, j, v) for (i, j), v in b.coeffs.items()])
    assert restrict(mul(a_big, b_big), small) == mul(a, b)
    assert restrict(power_signed(a_big, 3), small) == power_signed(a, 3)


def test_canonical_form_drops_zero_and_collapses_integers():
    shape = RingShape(2, 2)
    p = make_poly(shape, [(1, 1, Fraction(1, 2)), (1, 1, Fraction(1, 2)), (2, 0, 0)])
    assert p.coeffs == {(1, 1): 1}
    assert isinstance(p.coeffs[(1, 1)], int)
