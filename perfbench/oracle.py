"""Output oracle for the benchmark: closed forms, independent of the package.

Nothing here imports `scrolls`.  Every expected value is rebuilt from
`math.comb`, `math.factorial` and `Fraction`, so a wrong answer from the ring
engine, the verifier or the renderers is caught rather than compared with
itself.  Each check returns a list of human-readable problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction
from math import comb, factorial

SWEEP_SAMPLE = 200  # records whose lhs/rhs are recomputed exactly per sweep output
GRID_POINTS = 16    # the probe engine's fixed 4x4 grid of base points
PROBES_PER_BASE = 3  # fibre, two-fibre and immersion probe at every base point


def inequality_sides(n: int, k: int) -> tuple[int, int]:
    """C(n+k-1, k-1)(2n+2k-1) n!  and  k C(2n+2k-1, n)."""
    lhs = comb(n + k - 1, k - 1) * (2 * n + 2 * k - 1) * factorial(n)
    rhs = k * comb(2 * n + 2 * k - 1, n)
    return lhs, rhs


def expected_report(n: int, k: int, l: int, cn: int) -> dict:
    """Decimal-string invariants of one scroll configuration, as the CLI prints them."""
    b = comb(n + k - 1, k - 1)
    top = comb(l, n) * comb(l - n - k, k - 1)
    double_point = Fraction(cn, k) * (Fraction(b * b * cn, k) - top)
    return {
        "n": n,
        "k": k,
        "l": l,
        "cn": str(cn),
        "deg_Y": str(Fraction(b * cn, k)),
        "top_chern_normal": str(top * cn),
        "double_point": str(double_point),
        "verdict": "double-points-forced" if double_point > 0 else "consistent-with-smooth",
    }


def _load_payload(text: str, kind: str, problems: list) -> dict | None:
    try:
        payload = json.loads(text)["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable JSON envelope: {exc!r}")
        return None
    if payload.get("kind") != kind:
        problems.append(f"payload kind {payload.get('kind')!r}, expected {kind!r}")
        return None
    return payload


def check_sweep_json(text: str, n_range: range, k_range: range, seed: int) -> list[str]:
    """Grid order, every relation, the equality set, and a seeded exact sample."""
    problems: list[str] = []
    payload = _load_payload(text, "sweep", problems)
    if payload is None:
        return problems
    records = payload["records"]
    grid = [(n, k) for n in n_range for k in k_range]
    if [(r["n"], r["k"]) for r in records] != grid:
        return problems + ["records do not cover the requested grid in (n, k) order"]
    # the paper's classification: equality exactly for n in {1, 2}, strict above
    for r in records:
        want = "eq" if r["n"] <= 2 else "gt"
        if r["relation"] != want:
            problems.append(f"relation at (n={r['n']}, k={r['k']}) is {r['relation']!r}, expected {want!r}")
    if payload["equality_set"] != [[n, k] for n, k in grid if n <= 2]:
        problems.append("equality set differs from the n <= 2 part of the grid")
    if payload["classification_holds"] is not True:
        problems.append("classification_holds is not true")
    for r in random.Random(seed).sample(records, min(SWEEP_SAMPLE, len(records))):
        lhs, rhs = inequality_sides(r["n"], r["k"])
        if (r["lhs"], r["rhs"]) != (str(lhs), str(rhs)):
            problems.append(f"lhs/rhs at (n={r['n']}, k={r['k']}) differ from the closed form")
    return problems


def check_sweep_csv(text: str, json_text: str) -> list[str]:
    """The CSV of a grid must carry exactly the records of its JSON output."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    problems: list[str] = []
    payload = _load_payload(json_text, "sweep", problems)
    if payload is None:
        return problems
    records = payload["records"]
    if not rows or rows[0] != ["n", "k", "lhs", "rhs", "relation"]:
        return ["CSV header is not n,k,lhs,rhs,relation"]
    expected = [[str(r["n"]), str(r["k"]), r["lhs"], r["rhs"], r["relation"]] for r in records]
    if rows[1:] != expected:
        return ["CSV rows differ from the JSON records of the same grid"]
    return []


def check_reports(text: str, configs: list[tuple[int, int, int, int]]) -> list[str]:
    """Every report field against the closed forms, in the requested order."""
    problems: list[str] = []
    payload = _load_payload(text, "scroll_report", problems)
    if payload is None:
        return problems
    reports = payload["reports"]
    if len(reports) != len(configs):
        return [f"{len(reports)} reports, expected {len(configs)}"]
    for report, config in zip(reports, configs):
        for key, want in expected_report(*config).items():
            if report.get(key) != want:
                problems.append(f"{key} at (n, k, l) = {config[:3]} is {report.get(key)!r}, expected {want!r}")
    return problems


def check_probe(text: str, genus: int, samples: int, seed: int) -> list[str]:
    """All 3*(samples+16) probes ran and passed."""
    problems: list[str] = []
    payload = _load_payload(text, "probe", problems)
    if payload is None:
        return problems
    expected = {
        "genus": genus,
        "samples": samples,
        "seed": seed,
        "probes": PROBES_PER_BASE * (samples + GRID_POINTS),
        "passes": PROBES_PER_BASE * (samples + GRID_POINTS),
        "fails": 0,
        "inconclusives": 0,
    }
    for key, want in expected.items():
        if payload.get(key) != want:
            problems.append(f"probe {key} is {payload.get(key)!r}, expected {want!r}")
    return problems
