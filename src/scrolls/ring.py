"""Exact arithmetic in the truncated bigraded ring Q[c, h] / (c^(cc+1), h^(hc+1)).

Elements are stored sparsely as a dict mapping exponent pairs (i, j) to exact
coefficients, with 0 <= i <= c_cap and 0 <= j <= h_cap.  Integer coefficients
are kept as Python ints and everything else as Fraction, so arithmetic is
exact at arbitrary precision.  Zero coefficients are never stored, which makes
equality structural.

The two generators model the first Chern class of a polarization (c, nilpotent
of order c_cap+1) and the hyperplane class of a projective-space factor (h,
nilpotent of order h_cap+1).  Both caps cut off monomials during every
product, so all operations stay within the (c_cap+1) x (h_cap+1) grid.

Every signed power, inverses included, comes from power_signed: Miller's power
recurrence degree by degree for a unit (Knuth, TAOCP vol. 2, section 4.7), and
at most c_cap + h_cap + 1 factors multiplied out for a nilpotent element.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

Rational = Union[int, Fraction]


class ExponentRangeError(ValueError):
    """An exponent pair lies outside the ring shape."""


class ShapeMismatchError(ValueError):
    """Operands built over different ring shapes."""


class NotInvertibleError(ValueError):
    """Negative power requested for an element with zero constant term."""


class RingShape(NamedTuple("RingShape", [("c_cap", int), ("h_cap", int)])):
    """Truncation data: c^(c_cap+1) = 0 and h^(h_cap+1) = 0."""

    __slots__ = ()

    def __new__(cls, c_cap: int, h_cap: int) -> RingShape:
        self = super().__new__(cls, c_cap, h_cap)
        if c_cap < 0 or h_cap < 0:
            raise ValueError(f"caps must be non-negative, got {self}")
        return self


def _canon(value: Rational) -> Rational:
    """Normalize a coefficient: ints stay ints, integral Fractions collapse."""
    if isinstance(value, int):
        return value
    frac = Fraction(value)
    return frac.numerator if frac.denominator == 1 else frac


class TruncPoly:
    """Element of the truncated ring in canonical sparse form, never mutated.

    Construct through :func:`make_poly`; the constructor assumes the
    coefficient map is already canonical (validated, no zeros), so equality of
    the (shape, coeffs) fields is equality in the ring.  The dict field keeps
    an element unhashable.  It is not a tuple, so p + q raises.
    """

    __slots__ = ("shape", "coeffs")
    __hash__ = None

    def __init__(self, shape: RingShape, coeffs: dict) -> None:
        self.shape, self.coeffs = shape, coeffs

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.shape, self.coeffs) == (other.shape, other.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), v in sorted(self.coeffs.items()):
            mono = "*".join(
                sym if e == 1 else f"{sym}^{e}" for sym, e in (("c", i), ("h", j)) if e
            )
            parts.append(f"{v}*{mono}" if mono else f"{v}")
        return " + ".join(parts)

    def constant_term(self) -> Rational:
        return self.coeffs.get((0, 0), 0)


def _check_index(shape: RingShape, i: int, j: int) -> None:
    if not (0 <= i <= shape.c_cap and 0 <= j <= shape.h_cap):
        raise ExponentRangeError(
            f"index ({i}, {j}) outside shape c_cap={shape.c_cap}, h_cap={shape.h_cap}"
        )


def make_poly(shape: RingShape, terms: Iterable[tuple[int, int, Rational]]) -> TruncPoly:
    """Build a polynomial from (i, j, coefficient) terms; duplicates are summed.

    Raises ExponentRangeError naming the offending exponent pair if any term
    lies outside the shape.
    """
    acc: dict = {}
    for i, j, value in terms:
        _check_index(shape, i, j)
        acc[i, j] = acc.get((i, j), 0) + _canon(value)
    return TruncPoly(shape, {k: _canon(v) for k, v in acc.items() if v != 0})


def zero(shape: RingShape) -> TruncPoly:
    return TruncPoly(shape, {})


def one(shape: RingShape) -> TruncPoly:
    return TruncPoly(shape, {(0, 0): 1})


def add(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    terms = itertools.chain(a.coeffs.items(), b.coeffs.items())
    return make_poly(a.shape, ((i, j, v) for (i, j), v in terms))


def mul(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    """Exact product; monomials exceeding either cap are discarded."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    cc, hc = a.shape.c_cap, a.shape.h_cap
    out: dict = {}
    b_items = list(b.coeffs.items())
    for (i1, j1), v1 in a.coeffs.items():
        for (i2, j2), v2 in b_items:
            i = i1 + i2
            if i > cc:
                continue
            j = j1 + j2
            if j > hc:
                continue
            key = (i, j)
            out[key] = out.get(key, 0) + v1 * v2
    return TruncPoly(a.shape, {k: _canon(v) for k, v in out.items() if v != 0})


def product_coefficient(a: TruncPoly, b: TruncPoly, i: int, j: int) -> Rational:
    """Exact coefficient of c^i h^j in a*b, without forming the product.

    Sums a[i1, j1] * b[i-i1, j-j1] over the terms of a, so it costs one pass
    over a instead of the len(a) * len(b) term pairs of :func:`mul`.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    _check_index(a.shape, i, j)
    b_coeffs = b.coeffs
    total: Rational = 0
    for (i1, j1), v1 in a.coeffs.items():
        v2 = b_coeffs.get((i - i1, j - j1))
        if v2 is not None:
            total += v1 * v2
    return _canon(total)


def binomial(a: int, b: int) -> int:
    """Exact C(a, b) for a >= 0, with C(a, b) = 0 when b < 0 or b > a."""
    if a < 0:
        raise ValueError(f"binomial expects a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def power_signed(p: TruncPoly, e: int) -> TruncPoly:
    """Exact p**e for any integer e, by J.C.P. Miller's power recurrence.

    The ring is graded by total degree and the Euler operator E = c d/dc +
    h d/dh is a derivation that survives the monomial truncation, so q = p**e
    satisfies p E(q) = e q E(p).  With P_s and Q_g the degree-s and degree-g
    parts of p and q and a = p(0) != 0, this reads

        g a Q_g = sum_{s=1..g} (s (e + 1) - g) P_s Q_{g-s},   Q_0 = a**e,

    one pass for either sign of e (Knuth, TAOCP vol. 2, section 4.7).  A
    non-unit (a = 0) has no negative powers; its non-negative powers are
    multiplied out, and vanish from the (c_cap + h_cap + 1)-th on.
    """
    e = operator.index(e)
    shape = p.shape
    cc, hc = shape.c_cap, shape.h_cap
    a = p.constant_term()
    if a == 0:
        if e < 0:
            raise NotInvertibleError("constant term is zero; element is not a unit")
        result = one(shape)
        for _ in range(min(e, cc + hc + 1)):
            result = mul(result, p)
        return result
    parts: dict = {}
    for (i, j), v in p.coeffs.items():
        if i or j:
            parts.setdefault(i + j, []).append((i, j, v))
    levels = [{(0, 0): _canon(Fraction(a) ** e)}]
    for g in range(1, cc + hc + 1):
        acc: dict = {}
        for s, terms in parts.items():
            weight = s * (e + 1) - g
            if s > g or not weight:
                continue
            lower = levels[g - s].items()
            for mi, mj, pv in terms:
                wp = weight * pv
                for (qi, qj), qv in lower:
                    i, j = mi + qi, mj + qj
                    if i <= cc and j <= hc:
                        acc[i, j] = acc.get((i, j), 0) + wp * qv
        # Exact int division where it divides keeps integer powers off Fraction.
        div = g * a
        levels.append({
            key: v // div if type(v) is int and type(div) is int and not v % div
            else _canon(Fraction(v) / div)
            for key, v in acc.items() if v
        })
    return TruncPoly(shape, {key: v for level in levels for key, v in level.items()})


def inverse(p: TruncPoly) -> TruncPoly:
    return power_signed(p, -1)
