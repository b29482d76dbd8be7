"""Enumerative invariants of abelian scrolls.

A scroll here is swept out by the spans of the translates of a point of an
n-dimensional abelian variety under a finite subgroup of order k, inside
P^(l-1).  Its dimension is m = n + k - 1.  Working in the truncated product
ring Q[c, h]/(c^(n+1), h^k), where c is the polarization class and h the
hyperplane class of the P^(k-1) factor, every invariant below reduces to one
coefficient extraction:

  * scroll degree        (1/k) * C(n+k-1, k-1) * c^n
  * top Chern number of the normal sheaf of the scroll map, read off from the
    total class (1+c+h)^l * (1+h)^(-k)
  * virtual double point number, the degree of the double point class
    phi^* phi_* [X] - c_m(N) cap [X]

The two engine extractions are C(n+k-1, k-1) (hyperplane_power_coefficient)
and the c^n h^(k-1) coefficient of the total class (top_chern_normal).  Each
is computed twice, once through the engine and once from a closed form, and
a mismatch raises EngineMismatchError (it would mean a bug in the engine, not
bad input).  Both engine values come from power_signed: C(n+k-1, k-1) is the
h^(k-1) coefficient of (1+h)^(n+k-1), and the top Chern coefficient is read
from the two factors of the total class without forming their full product.
build_report runs each extraction once and derives all three invariants from
the two results.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .ring import (
    RingShape,
    TruncPoly,
    make_poly,
    power_signed,
    product_coefficient,
)

VERDICT_SMOOTH = "consistent-with-smooth"
VERDICT_DOUBLE_POINTS = "double-points-forced"


class EngineMismatchError(RuntimeError):
    """Ring-engine extraction disagrees with the closed form (internal bug)."""


class ScrollData(NamedTuple("ScrollData", [("n", int), ("k", int), ("l", int), ("cn", int)])):
    """Discrete invariants of a candidate scroll.

    n   dimension of the abelian variety (= irregularity of the scroll)
    k   order of the translating subgroup
    l   number of sections; ambient space is P^(l-1)
    cn  self-intersection number c^n of the polarization
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, l: int, cn: int) -> ScrollData:
        if n < 1 or k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
        if l < n + k:
            raise ValueError(f"need l >= n + k = {n + k}, got l={l}")
        if cn < 1:
            raise ValueError(f"need cn >= 1, got cn={cn}")
        return super().__new__(cls, n, k, l, cn)

    @property
    def dim_y(self) -> int:
        return self.n + self.k - 1

    @property
    def linear_system(self) -> str:
        """'complete', 'incomplete' (cn above the complete value) or 'impossible'.

        Riemann-Roch gives cn >= n! * l for any l-section embedding, with
        equality exactly for a complete linear system.
        """
        floor = factorial(self.n) * self.l
        if self.cn == floor:
            return "complete"
        return "incomplete" if self.cn > floor else "impossible"


class ScrollReport(NamedTuple):
    data: ScrollData
    deg_Y: Fraction
    top_chern_normal: int
    double_point: Fraction
    verdict: str
    flags: tuple = ()


def _one_plus(shape: RingShape, c_coeff: int) -> TruncPoly:
    """The unit 1 + c_coeff*c + h; h vanishes identically when h_cap = 0 (k = 1)."""
    return make_poly(shape, [(0, 0, 1), (1, 0, c_coeff)] + ([(0, 1, 1)] if shape.h_cap else []))


def hyperplane_power_coefficient(n: int, k: int) -> int:
    """Coefficient of c^n h^(k-1) in (c+h)^(n+k-1), which equals C(n+k-1, k-1).

    (c+h)^(n+k-1) is homogeneous, so setting c = 1 leaves this coefficient at
    h^(k-1) of (1+h)^(n+k-1).  The engine reads it from power_signed of the
    unit 1+h, the one top_chern_normal raises to -k in the same shape, and
    is checked against the binomial closed form; both routes must agree
    exactly.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    engine = power_signed(_one_plus(RingShape(n, k - 1), 0), n + k - 1).coeffs.get((0, k - 1), 0)
    closed = comb(n + k - 1, k - 1)
    if engine != closed:
        raise EngineMismatchError(
            f"hyperplane power at (n={n}, k={k}): engine {engine} != closed form {closed}"
        )
    return closed


def top_chern_normal(n: int, k: int, l: int) -> int:
    """Coefficient of c^n h^(k-1) in (1+c+h)^l (1+h)^(-k).

    This is the c^n-coefficient of the top Chern class of the normal sheaf of
    the scroll map to P^(l-1), pulled back to the product model.  The engine
    extraction is cross-checked against C(l, n) * C(l-n-k, k-1); for
    l = 2n+2k-1 that product equals C(n+k-1, n) * C(2n+2k-1, n).
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if l < n + k:
        raise ValueError(f"need l >= n + k = {n + k}, got l={l}")
    shape = RingShape(n, k - 1)
    engine = product_coefficient(
        power_signed(_one_plus(shape, 1), l), power_signed(_one_plus(shape, 0), -k), n, k - 1
    )
    closed = comb(l, n) * comb(l - n - k, k - 1)
    if engine != closed:
        raise EngineMismatchError(
            f"top Chern coefficient at (n={n}, k={k}, l={l}): engine {engine} != closed form {closed}"
        )
    return closed


def build_report(data: ScrollData) -> ScrollReport:
    """Aggregate all invariants of one scroll configuration into a report.

    Runs each engine extraction (with its closed-form check) exactly once.
    A non-integral or negative value is flagged, not refused, so that
    impossible configurations can still be described.
    """
    b = hyperplane_power_coefficient(data.n, data.k)
    t = top_chern_normal(data.n, data.k, data.l)
    deg = Fraction(b * data.cn, data.k)  # (1/k) * C(n+k-1, k-1) * cn
    tcn = t * data.cn
    # (1/k) * cn * [(1/k) * b^2 * cn - t]; zero is necessary for smoothness
    dp = Fraction(data.cn, data.k) * (Fraction(b * b * data.cn, data.k) - t)
    flags = []
    if deg.denominator != 1:
        flags.append("non-integral scroll degree")
    if dp.denominator != 1:
        flags.append("non-integral double point number")
    if dp < 0:
        flags.append("negative double point number")
    if data.linear_system == "impossible":
        flags.append("cn below the Riemann-Roch minimum n!*l; no such embedding exists")
    verdict = VERDICT_DOUBLE_POINTS if dp > 0 else VERDICT_SMOOTH
    return ScrollReport(data=data, deg_Y=deg, top_chern_normal=tcn, double_point=dp,
                        verdict=verdict, flags=tuple(flags))
