"""Exact verification of the binomial inequality behind the irregularity bound.

For a smooth scroll of dimension m = n+k-1 filling half of P^(2m), the double
point number vanishes iff

    C(n+k-1, k-1) * (2n+2k-1) * n!  =  k * C(2n+2k-1, n),

and smoothness forces ">=".  Equality holds exactly for n in {1, 2}; for
n >= 3 the strict inequality follows termwise from

    (n+k-l+1) * l >= 2n+2k-l        for l = 2..n,

each term being equivalent to n+k >= l.  Everything here is exact big-integer
arithmetic; sweeps check the classification exhaustively over user ranges,
streaming rows computed by exact recurrence in k (TAOCP vol. 1 section 1.2.6).
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Iterator, NamedTuple

from .invariants import ScrollData, ScrollReport, build_report

FAMILY_DEGREE_NOTE = (
    "family degree fixed to 2*(2k+3) (type (1, 2k+3), linearly normal in P^(2k+2)); "
    "a degree-4*(k+1) surface cannot be linearly normal there"
)


class InequalityRecord(NamedTuple):
    n: int
    k: int
    lhs: int
    rhs: int
    relation: str  # "lt" | "eq" | "gt", by exact comparison


class TermwiseTerm(NamedTuple):
    l: int
    lhs: int  # (n+k-l+1) * l
    rhs: int  # 2n+2k-l
    holds: bool
    equiv_holds: bool  # the equivalent condition n+k >= l


class TermwiseRecord(NamedTuple):
    n: int
    k: int
    terms: tuple


class SweepResult(NamedTuple):
    records: tuple
    equality_set: tuple  # (n, k) pairs with relation == "eq", sorted


def inequality_check(n: int, k: int) -> InequalityRecord:
    """Exact comparison of C(n+k-1,k-1)*(2n+2k-1)*n! against k*C(2n+2k-1,n)."""
    return next(sweep_records((n,), (k,)))  # a one-pair row: both binomials computed afresh


def termwise_check(n: int, k: int) -> TermwiseRecord:
    """Per-factor reduction of the inequality for n >= 3; empty below that."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    terms = []
    if n >= 3:
        for l in range(2, n + 1):
            lhs = (n + k - l + 1) * l
            rhs = 2 * n + 2 * k - l
            terms.append(TermwiseTerm(l, lhs, rhs, lhs >= rhs, n + k >= l))
    return TermwiseRecord(n=n, k=k, terms=tuple(terms))


def _ascending(values: Iterable[int]):
    """Distinct values, ascending; an ascending range is not copied."""
    if isinstance(values, range) and values.step > 0:
        return values
    return sorted(set(values))


def sweep_records(n_range: Iterable[int], k_range: Iterable[int]) -> Iterator[InequalityRecord]:
    """Inequality records for every (n, k) pair, yielded in (n, k) order.

    The ranges are validated at call time, n and k_max - k_min below
    sys.maxsize included.  Along a row lhs and rhs step from k-1 to k by exact
    ratios of small ints, and are computed afresh at each row start and k gap.
    """
    n_values, k_values = _ascending(n_range), _ascending(k_range)
    if not n_values or not k_values:
        raise ValueError("sweep ranges must be nonempty")
    if n_values[0] < 1 or k_values[0] < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n_values[0]}, k={k_values[0]}")
    if n_values[-1] > sys.maxsize:  # math.factorial refuses a larger n
        raise ValueError(f"need n <= {sys.maxsize}, got n={n_values[-1]}")
    if k_values[-1] - k_values[0] >= sys.maxsize:  # len() of a longer k range raises; n's cannot be
        raise ValueError(f"need k_max - k_min < {sys.maxsize}, got k_max={k_values[-1]}")

    def rows():
        for n in n_values:
            factorial = math.factorial(n)
            previous = None
            for k in k_values:
                m = 2 * n + 2 * k - 1
                if k - 1 == previous:
                    # one small-int multiply and one exact division each
                    lhs = lhs * ((n + k - 1) * m) // ((k - 1) * (m - 2))
                    rhs = rhs * (k * (m - 1) * m) // ((k - 1) * (m - n - 1) * (m - n))
                else:
                    lhs = math.comb(n + k - 1, k - 1) * m * factorial
                    rhs = k * math.comb(m, n)
                previous = k
                relation = "eq" if lhs == rhs else ("gt" if lhs > rhs else "lt")
                yield InequalityRecord(n, k, lhs, rhs, relation)

    return rows()


def sweep(n_range: Iterable[int], k_range: Iterable[int]) -> SweepResult:
    """All records of `sweep_records`, and the (n, k) pairs where equality holds."""
    records = tuple(sweep_records(n_range, k_range))
    equality = tuple((r.n, r.k) for r in records if r.relation == "eq")
    return SweepResult(records=records, equality_set=equality)


def very_ample_bound(n: int, l: int) -> int:
    """Largest odd k for which a polarization with l sections on an abelian
    n-fold (n >= 3) can still be k-very ample, namely the largest odd k < l-2n.
    """
    if n < 3:
        raise ValueError(f"the bound applies to dimension n >= 3, got n={n}")
    if l <= 2 * n + 1:
        raise ValueError(f"need l > 2n+1 = {2 * n + 1}, got l={l}")
    cap = l - 2 * n  # at least 2 here
    return cap - 1 if cap % 2 == 0 else cap - 2


def conjecture_family_report(k_max: int) -> list[ScrollReport]:
    """Invariant reports for the candidate smooth-surface-scroll family.

    For each torsion order k in 2..k_max the abelian surface is linearly
    normally embedded in P^(2k+2) with type (1, 2k+3), so cn = 2*(2k+3).  The
    double point number vanishes for every k (the n = 2 equality case) and the
    degree is (k+1)*(2k+3); see FAMILY_DEGREE_NOTE for the degree convention.
    """
    if k_max < 2:
        raise ValueError(f"need k_max >= 2, got {k_max}")
    reports = []
    for k in range(2, k_max + 1):
        l = 2 * k + 3
        report = build_report(ScrollData(n=2, k=k, l=l, cn=2 * l))
        if report.double_point != 0:
            raise AssertionError(
                f"family member k={k} has nonzero double point number {report.double_point}"
            )
        reports.append(report)
    return reports
