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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]

# Sparse bases up to this many terms are powered by direct multinomial
# expansion (with cap pruning); denser ones fall back to repeated squaring.
_MULTINOMIAL_MAX_TERMS = 4


class ExponentRangeError(ValueError):
    """An exponent pair lies outside the ring shape."""


class ShapeMismatchError(ValueError):
    """Operands built over different ring shapes."""


class NotInvertibleError(ValueError):
    """Negative power requested for an element with zero constant term."""


@dataclass(frozen=True)
class RingShape:
    """Truncation data: c^(c_cap+1) = 0 and h^(h_cap+1) = 0."""

    c_cap: int
    h_cap: int

    def __post_init__(self) -> None:
        if self.c_cap < 0 or self.h_cap < 0:
            raise ValueError(f"caps must be non-negative, got {self}")


def _canon(value: Rational) -> Rational:
    """Normalize a coefficient: ints stay ints, integral Fractions collapse."""
    if isinstance(value, int):
        return value
    frac = Fraction(value)
    return frac.numerator if frac.denominator == 1 else frac


@dataclass(frozen=True, eq=False)
class TruncPoly:
    """Immutable element of the truncated ring, in canonical sparse form.

    Construct through :func:`make_poly`; the dataclass constructor assumes the
    coefficient map is already canonical (validated, no zeros).
    """

    shape: RingShape
    coeffs: dict

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return self.shape == other.shape and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        return add(self, other)

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        return add(self, other.__neg__())

    def __neg__(self) -> "TruncPoly":
        return TruncPoly(self.shape, {m: -v for m, v in self.coeffs.items()})

    def __mul__(self, other: "TruncPoly") -> "TruncPoly":
        return mul(self, other)

    def __pow__(self, exponent: int) -> "TruncPoly":
        return power_signed(self, exponent)

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


def make_poly(shape: RingShape, terms: Iterable[tuple[int, int, Rational]]) -> TruncPoly:
    """Build a polynomial from (i, j, coefficient) terms; duplicates are summed.

    Raises ExponentRangeError naming the offending exponent pair if any term
    lies outside the shape.
    """
    acc: dict = {}
    for i, j, value in terms:
        if not (0 <= i <= shape.c_cap and 0 <= j <= shape.h_cap):
            raise ExponentRangeError(
                f"exponent ({i}, {j}) outside shape c_cap={shape.c_cap}, h_cap={shape.h_cap}"
            )
        key = (i, j)
        acc[key] = acc.get(key, 0) + _canon(value)
    return TruncPoly(shape, {k: _canon(v) for k, v in acc.items() if v != 0})


def zero(shape: RingShape) -> TruncPoly:
    return TruncPoly(shape, {})


def one(shape: RingShape) -> TruncPoly:
    return TruncPoly(shape, {(0, 0): 1})


def add(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    out = dict(a.coeffs)
    for key, value in b.coeffs.items():
        s = out.get(key, 0) + value
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = _canon(s)
    return TruncPoly(a.shape, out)


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


def _check_index(shape: RingShape, i: int, j: int) -> None:
    if not (0 <= i <= shape.c_cap and 0 <= j <= shape.h_cap):
        raise ExponentRangeError(
            f"index ({i}, {j}) outside shape c_cap={shape.c_cap}, h_cap={shape.h_cap}"
        )


def coefficient(p: TruncPoly, i: int, j: int) -> Rational:
    """Exact coefficient of c^i h^j; zero if the monomial is absent."""
    _check_index(p.shape, i, j)
    return p.coeffs.get((i, j), 0)


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
    """Exact p**e for any integer e; negative e inverts first.

    The inverse exists iff the constant term is nonzero and is computed by the
    Neumann series in the nilpotent part, which terminates after at most
    c_cap + h_cap + 1 terms.
    """
    if e < 0:
        return _power_nonneg(inverse(p), -e)
    return _power_nonneg(p, e)


def inverse(p: TruncPoly) -> TruncPoly:
    a = p.constant_term()
    if a == 0:
        raise NotInvertibleError("constant term is zero; element is not a unit")
    shape = p.shape
    inv_a = _canon(Fraction(1, 1) / a)
    # p = a + N with N nilpotent: 1/p = sum_t (-1)^t N^t / a^(t+1).
    nilpotent = TruncPoly(shape, {m: v for m, v in p.coeffs.items() if m != (0, 0)})
    scaled = TruncPoly(shape, {m: _canon(-v * inv_a) for m, v in nilpotent.coeffs.items()})
    acc = one(shape)
    total = acc
    for _ in range(shape.c_cap + shape.h_cap):
        acc = mul(acc, scaled)
        if not acc:
            break
        total = add(total, acc)
    return TruncPoly(shape, {m: _canon(v * inv_a) for m, v in total.coeffs.items()})


def _power_nonneg(p: TruncPoly, e: int) -> TruncPoly:
    if e == 0:
        return one(p.shape)
    if e == 1 or not p.coeffs:
        return p
    if len(p.coeffs) <= _MULTINOMIAL_MAX_TERMS:
        return _power_multinomial(p, e)
    return _power_squaring(p, e)


def _power_squaring(p: TruncPoly, e: int) -> TruncPoly:
    result = one(p.shape)
    base = p
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _power_multinomial(p: TruncPoly, e: int) -> TruncPoly:
    """Direct multinomial expansion of p**e with cap pruning.

    Enumerates exponent splits of e across the terms of p depth-first,
    abandoning any branch whose accumulated degree already exceeds a cap.
    Multinomial prefactors are built incrementally as products of binomial
    rows, so the whole walk stays in exact integer arithmetic.
    """
    cc, hc = p.shape.c_cap, p.shape.h_cap
    terms = sorted(p.coeffs.items())
    out: dict = {}

    def walk(idx: int, remaining: int, deg_c: int, deg_h: int, weight: Rational) -> None:
        (mi, mj), cv = terms[idx]
        if idx == len(terms) - 1:
            dc = deg_c + mi * remaining
            dh = deg_h + mj * remaining
            if dc <= cc and dh <= hc:
                key = (dc, dh)
                out[key] = out.get(key, 0) + weight * cv**remaining
            return
        t_max = remaining
        if mi:
            t_max = min(t_max, (cc - deg_c) // mi)
        if mj:
            t_max = min(t_max, (hc - deg_h) // mj)
        choose = 1  # C(remaining, t), updated per step
        coeff_pow: Rational = 1
        for t in range(t_max + 1):
            if t:
                choose = choose * (remaining - t + 1) // t
                coeff_pow = coeff_pow * cv
            walk(idx + 1, remaining - t, deg_c + mi * t, deg_h + mj * t, weight * choose * coeff_pow)

    walk(0, e, 0, 0, 1)
    return TruncPoly(p.shape, {k: _canon(v) for k, v in out.items() if v != 0})
