"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Every tolerance is exact unless a
floating-point bound is stated explicitly.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

import numpy as np

from scrolls.cli import main
from scrolls.invariants import ScrollData, build_report, top_chern_normal
from scrolls.ring import RingShape, add, make_poly, mul, one, power_signed
from scrolls.theta import (
    ThetaEmbedding,
    projective_residual,
    scroll_smoothness_probe,
    theta_basis_eval,
    theta_derivatives,
    theta_values,
    torsion_point,
)
from scrolls.verifier import conjecture_family_report, sweep, termwise_check


def _report(number, description, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {description} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_degree_21_example(capsys):
    start = time.perf_counter()
    code = main(["invariants", "--n", "2", "--k", "2", "--l", "7", "--cn", "14"])
    envelope = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    (report,) = envelope["payload"]["reports"]
    ok = (
        code == 0
        and report["deg_Y"] == "21"
        and report["double_point"] == "0"
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, "degree-21 scroll: deg_Y = 21 and double_point = 0, exactly", ok, elapsed)


def test_criterion_02_equality_classification():
    start = time.perf_counter()
    wide = sweep(range(1, 61), range(1, 61))
    low = sweep(range(1, 3), range(1, 201))
    elapsed = time.perf_counter() - start
    ok = (
        all(rec.relation == ("eq" if rec.n <= 2 else "gt") for rec in wide.records)
        and all(rec.relation == "eq" for rec in low.records)
        and len(low.equality_set) == 400
        and elapsed < 10.0
    )
    _report(2, "equality holds exactly for n in {1, 2} over the sweep grids", ok, elapsed)


def test_criterion_03_engine_matches_closed_form():
    start = time.perf_counter()
    ok = True
    for n in range(1, 31):
        for k in range(1, 31):
            l = 2 * n + 2 * k - 1
            expected = comb(n + k - 1, n) * comb(l, n)
            if top_chern_normal(n, k, l) != expected:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(3, "ring extraction of the top Chern coefficient matches the closed form, n, k <= 30", ok, elapsed)


def test_criterion_04_double_point_numbers():
    start = time.perf_counter()
    values = [
        build_report(ScrollData(1, 2, 5, 5)).double_point,
        build_report(ScrollData(2, 2, 7, 14)).double_point,
        build_report(ScrollData(3, 2, 9, 54)).double_point,
    ]
    elapsed = time.perf_counter() - start
    ok = values == [0, 0, 2592]
    _report(4, "double point numbers 0, 0, 2592 for the three reference scrolls", ok, elapsed)


def test_criterion_05_termwise_reduction():
    start = time.perf_counter()
    ok = True
    for n in range(3, 61):
        for k in range(1, 61):
            for term in termwise_check(n, k).terms:
                if not term.holds or term.holds != (n + k >= term.l):
                    ok = False
    elapsed = time.perf_counter() - start
    _report(5, "(n+k-l+1)l >= 2n+2k-l holds and is equivalent to n+k >= l, termwise", ok, elapsed)


def test_criterion_06_conjecture_family():
    start = time.perf_counter()
    reports = conjecture_family_report(10)
    elapsed = time.perf_counter() - start
    ok = all(
        report.double_point == 0 and report.deg_Y == (k + 1) * (2 * k + 3)
        for k, report in zip(range(2, 11), reports)
    )
    _report(6, "family k = 2..10: double_point = 0 and deg_Y = (k+1)(2k+3)", ok, elapsed)


def test_criterion_07_elliptic_scroll_probes():
    start = time.perf_counter()
    ok = True
    details = []
    for m, order, samples in ((5, 2, 200), (7, 3, 100), (9, 4, 100)):
        emb = ThetaEmbedding(genus=1, period=1j, degree=m)
        summary = scroll_smoothness_probe(emb, torsion_point(emb, 1, 0, order).point, order,
                                          samples=samples, seed=42)
        details.append(f"m={m}: margin {summary.min_margin:.2e}")
        if summary.fails or summary.inconclusives or not summary.min_margin > 1e-6:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(7, "elliptic probes (5,2), (7,3), (9,4): no fails, no inconclusives; " + "; ".join(details), ok, elapsed)


def test_criterion_08_theta_numerics():
    start = time.perf_counter()
    emb = ThetaEmbedding(genus=1, period=1j, degree=5)
    rng = np.random.default_rng(42)
    ok = True
    step = 1e-5
    for x, y in rng.random((50, 2)):
        z = complex(x + y * 1j)
        base = theta_basis_eval(emb, z).coords
        if projective_residual(base, theta_basis_eval(emb, z + 1).coords) >= 1e-9:
            ok = False
        if projective_residual(base, theta_basis_eval(emb, z + 1j).coords) >= 1e-9:
            ok = False
        analytic = theta_derivatives(emb, z, 1)
        numeric = (theta_values(emb, z + step) - theta_values(emb, z - step)) / (2 * step)
        if np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic) >= 1e-6:
            ok = False
    elapsed = time.perf_counter() - start
    _report(8, "quasi-periodicity residuals < 1e-9 and derivative agreement < 1e-6 at 50 points", ok, elapsed)


def test_criterion_09_ring_property_suite():
    start = time.perf_counter()
    rng = random.Random(42)

    def draw_poly(shape, max_terms=3):
        terms = []
        for _ in range(rng.randint(0, max_terms)):
            terms.append(
                (
                    rng.randint(0, shape.c_cap),
                    rng.randint(0, shape.h_cap),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                )
            )
        return make_poly(shape, terms)

    ok = True
    for _ in range(1000):
        shape = RingShape(rng.randint(0, 2), rng.randint(0, 2))
        a, b, c = (draw_poly(shape) for _ in range(3))
        if mul(a, b) != mul(b, a):
            ok = False
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            ok = False
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            ok = False
        if mul(a, one(shape)) != a:
            ok = False
        unit = add(a, make_poly(shape, [(0, 0, Fraction(rng.randint(1, 9)))]))
        if unit.constant_term() == 0:
            unit = add(unit, one(shape))
        if mul(unit, power_signed(unit, -1)) != one(shape):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(9, "1000 seeded ring cases: axioms and unit inversion, all exact", ok, elapsed)


def test_criterion_10_very_ample_bound(capsys):
    start = time.perf_counter()
    code_a = main(["very-ample-bound", "--n", "3", "--l", "13"])
    value_a = json.loads(capsys.readouterr().out)["payload"]["max_odd_k"]
    code_b = main(["very-ample-bound", "--n", "3", "--l", "8"])
    value_b = json.loads(capsys.readouterr().out)["payload"]["max_odd_k"]
    elapsed = time.perf_counter() - start
    ok = code_a == 0 and code_b == 0 and value_a == 5 and value_b == 1
    with capsys.disabled():
        _report(10, "very-ample-bound returns 5 for (3, 13) and 1 for (3, 8)", ok, elapsed)
