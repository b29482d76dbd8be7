import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest

import scrolls
from scrolls.cli import main, render_json, run
from scrolls.verifier import inequality_check, sweep_records


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_cli_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


@contextlib.contextmanager
def no_int_digit_limit():
    """Let the test itself convert ints above 4300 digits (Python >= 3.10.7)."""
    previous = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


# ------------------------------------------------------------------ commands

def test_invariants_degree_21_example(capsys):
    code, env = run_cli_json(capsys, ["invariants", "--n", "2", "--k", "2", "--l", "7", "--cn", "14"])
    assert code == 0
    (report,) = env["payload"]["reports"]
    assert report["deg_Y"] == "21"
    assert report["double_point"] == "0"
    assert report["verdict"] == "consistent-with-smooth"
    assert env["command"] == "invariants"
    assert env["version"]


def test_invariants_cross_check(capsys):
    code, env = run_cli_json(
        capsys,
        ["invariants", "--n", "2", "--k", "2", "--l", "7", "--cn", "14", "--cross-check"],
    )
    assert code == 0
    assert any("cross-check" in w for w in env["warnings"])


def test_invariants_expect_smooth_fails_on_forced_double_points(capsys):
    code, env = run_cli_json(
        capsys,
        ["invariants", "--n", "3", "--k", "2", "--l", "9", "--cn", "54", "--expect-smooth"],
    )
    assert code == 1
    (report,) = env["payload"]["reports"]
    assert report["double_point"] == "2592"
    assert report["verdict"] == "double-points-forced"


def test_invariants_bad_geometry_is_config_error(capsys):
    code, env = run_cli_json(capsys, ["invariants", "--n", "2", "--k", "2", "--l", "3", "--cn", "14"])
    assert code == 3
    assert env["payload"]["kind"] == "error"


def test_verify_json(capsys):
    code, env = run_cli_json(
        capsys, ["verify", "--n-min", "1", "--n-max", "4", "--k-min", "1", "--k-max", "3"]
    )
    assert code == 0
    payload = env["payload"]
    assert payload["kind"] == "sweep"
    assert len(payload["records"]) == 12
    assert payload["classification_holds"] is True
    assert payload["equality_set"] == [[1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [2, 3]]


def test_verify_csv_columns(capsys):
    code, out = run_cli(
        capsys,
        ["verify", "--n-min", "1", "--n-max", "2", "--k-min", "1", "--k-max", "2",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,lhs,rhs,relation"
    assert len(lines) == 5
    assert "\r" not in out


def _grid_argv(n_range, k_range):
    return ["verify", "--n-min", str(n_range[0]), "--n-max", str(n_range[-1]),
            "--k-min", str(k_range[0]), "--k-max", str(k_range[-1])]


def _closed_form(n, k):
    """One pair of the inequality from math.comb, without the package's arithmetic."""
    lhs = math.comb(n + k - 1, k - 1) * (2 * n + 2 * k - 1) * math.factorial(n)
    rhs = k * math.comb(2 * n + 2 * k - 1, n)
    relation = "eq" if lhs == rhs else ("gt" if lhs > rhs else "lt")
    return types.SimpleNamespace(n=n, k=k, lhs=lhs, rhs=rhs, relation=relation)


def _reference_verify(n_range, k_range, fmt, timestamp):
    """verify output rebuilt from the closed form with json.dumps and csv.writer."""
    records = [_closed_form(n, k) for n in n_range for k in k_range]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["n", "k", "lhs", "rhs", "relation"])
        writer.writerows([r.n, r.k, r.lhs, r.rhs, r.relation] for r in records)
        return buffer.getvalue()
    equality = [[r.n, r.k] for r in records if r.relation == "eq"]
    holds = all(r.relation == ("eq" if r.n <= 2 else "gt") for r in records)
    if fmt == "text":
        return (f"scrolls {scrolls.__version__} :: verify\n"
                f"  {len(records)} pairs checked; equality at {len(equality)} of them\n"
                f"  classification holds: {holds}\n")
    envelope = {
        "version": scrolls.__version__,
        "command": "verify",
        "timestamp": timestamp,
        "params": {"n_min": n_range[0], "n_max": n_range[-1],
                   "k_min": k_range[0], "k_max": k_range[-1]},
        "payload": {
            "kind": "sweep",
            "records": [{"n": r.n, "k": r.k, "lhs": str(r.lhs), "rhs": str(r.rhs),
                         "relation": r.relation} for r in records],
            "equality_set": equality,
            "classification_holds": holds,
        },
        "warnings": [],
    }
    return json.dumps(envelope, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(("n_range", "k_range"), [
    (range(1, 6), range(1, 8)),
    (range(3, 10), range(4, 5)),  # no equality pairs
    (range(1, 2), range(1, 2)),
    (range(1, 3), range(1, 301)),  # equality at every pair
    (range(2000, 2001), range(1, 2)),  # more than 4300 digits
    (range(3, 203), range(2, 202)),  # the benchmark's 200 x 200 grid, at a row offset
])
def test_verify_output_matches_oracle_reference(capsys, n_range, k_range, fmt):
    code, out = run_cli(capsys, _grid_argv(n_range, k_range) + ["--format", fmt])
    assert code == 0
    stamp = re.search(r'^  "timestamp": "([^"]*)",$', out, re.M)
    with no_int_digit_limit():
        expected = _reference_verify(n_range, k_range, fmt, stamp and stamp.group(1))
    assert out == expected


def _tampered_rows(ns, ks):
    # one record of the n <= 2 part claims a strict inequality
    for rec in sweep_records(ns, ks):
        yield rec._replace(relation="gt") if (rec.n, rec.k) == (2, 2) else rec


def test_verify_classification_violation_exits_one(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("scrolls.cli.sweep_records", _tampered_rows)
    argv = _grid_argv(range(1, 5), range(1, 4))
    code, env = run_cli_json(capsys, argv)
    assert code == 1
    assert env["payload"]["classification_holds"] is False
    assert [2, 2] not in env["payload"]["equality_set"]
    assert env["warnings"] == ["equality classification violated on this grid"]

    target = tmp_path / "sweep.txt"
    assert main(argv + ["--format", "text", "--output", str(target)]) == 1
    text = target.read_text()
    assert "  classification holds: False\n" in text
    assert text.endswith("  warning: equality classification violated on this grid\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_failure_mid_stream_keeps_previous_output(tmp_path, monkeypatch, fmt):
    target = tmp_path / f"sweep.{fmt}"
    argv = _grid_argv(range(1, 7), range(1, 7)) + ["--format", fmt, "--output", str(target)]
    assert main(argv) == 0
    before = target.read_bytes()

    def failing_rows(ns, ks):
        for index, rec in enumerate(sweep_records(ns, ks)):
            if index == 3:
                raise RuntimeError("row source failed")
            yield rec

    monkeypatch.setattr("scrolls.cli.sweep_records", failing_rows)
    with pytest.raises(RuntimeError, match="row source failed"):
        main(argv)
    assert target.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_streams_without_holding_the_grid(tmp_path, fmt):
    # the whole 150 x 150 output is about 8 MB of JSON; a copy of the k range
    # of the 1 x 50000 grid would take about 4 MB
    for n_range, k_range in [(range(1, 151), range(1, 151)), (range(3, 4), range(1, 50001))]:
        tracemalloc.start()
        try:
            code = main(_grid_argv(n_range, k_range)
                        + ["--format", fmt, "--output", str(tmp_path / "sweep.out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_verify_text_and_csv_do_not_hold_the_equality_pairs(tmp_path, fmt):
    # every pair of n = 1 is an equality case; held, they take about 130 bytes
    # each, about 6.5 MB for these 50000
    tracemalloc.start()
    try:
        code = main(_grid_argv(range(1, 2), range(1, 50001))
                    + ["--format", fmt, "--output", str(tmp_path / "sweep.out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20


def test_verify_json_does_not_hold_the_equality_pairs(tmp_path):
    # the pairs are written from the (n, k) ranges, not collected as they pass
    target = tmp_path / "sweep.json"
    tracemalloc.start()
    try:
        code = main(_grid_argv(range(1, 2), range(1, 50001)) + ["--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20
    with target.open("rb") as handle:
        handle.seek(-200, os.SEEK_END)
        tail = handle.read().decode()
    assert tail.endswith('      [\n        1,\n        50000\n      ]\n    ],\n'
                         '    "classification_holds": true\n  },\n  "warnings": []\n}\n')


def test_verify_json_equality_set_follows_the_records(capsys, monkeypatch):
    # a pair of n <= 2 that is not "eq" leaves the set; a pair of n >= 3 that is joins it
    flips = {(2, 2): "gt", (3, 1): "eq", (4, 3): "eq"}

    def tampered(ns, ks):
        for rec in sweep_records(ns, ks):
            yield rec._replace(relation=flips.get((rec.n, rec.k), rec.relation))

    monkeypatch.setattr("scrolls.cli.sweep_records", tampered)
    code, out = run_cli(capsys, _grid_argv(range(1, 5), range(1, 4)))
    assert code == 1
    env = json.loads(out)
    records = env["payload"]["records"]
    assert env["payload"]["equality_set"] == [[r["n"], r["k"]] for r in records if r["relation"] == "eq"]
    assert [3, 1] in env["payload"]["equality_set"] and [2, 2] not in env["payload"]["equality_set"]
    assert out == json.dumps(env, indent=2) + "\n"


def test_family_reports_and_note(capsys):
    code, env = run_cli_json(capsys, ["family", "--k-max", "5"])
    assert code == 0
    reports = env["payload"]["reports"]
    assert [r["deg_Y"] for r in reports] == ["21", "36", "55", "78"]
    assert all(r["double_point"] == "0" for r in reports)
    assert any("linearly normal" in w for w in env["warnings"])


def test_very_ample_bound(capsys):
    code, env = run_cli_json(capsys, ["very-ample-bound", "--n", "3", "--l", "13"])
    assert code == 0
    assert env["payload"] == {"kind": "bound", "n": 3, "l": 13, "max_odd_k": 5}
    code, env = run_cli_json(capsys, ["very-ample-bound", "--n", "3", "--l", "8"])
    assert code == 0
    assert env["payload"]["max_odd_k"] == 1


def test_very_ample_bound_low_dimension_rejected(capsys):
    code, env = run_cli_json(capsys, ["very-ample-bound", "--n", "2", "--l", "13"])
    assert code == 3


def test_verify_inverted_range_is_config_error(capsys):
    code, env = run_cli_json(
        capsys, ["verify", "--n-min", "5", "--n-max", "3", "--k-min", "1", "--k-max", "2"]
    )
    assert code == 3
    assert env["payload"]["kind"] == "error"


def test_verify_exact_above_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, env = run_cli_json(
        capsys, ["verify", "--n-min", "2000", "--n-max", "2000", "--k-min", "1", "--k-max", "1"]
    )
    assert code == 0
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored after the run
    (record,) = env["payload"]["records"]
    assert len(record["lhs"]) > 4300
    with no_int_digit_limit():
        assert int(record["lhs"]) == 4001 * math.factorial(2000)
        assert int(record["rhs"]) == math.comb(4001, 2000)
    assert record["relation"] == "gt"


def test_invariants_integer_flag_above_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    cn = "1" + "0" * 4301  # argparse's int and the JSON params both see it
    code, out = run_cli(capsys, ["invariants", "--n", "2", "--k", "2", "--l", "7", "--cn", cn])
    assert code == 0
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored after main
    with no_int_digit_limit():
        env = json.loads(out)
        assert env["params"]["cn"] == int(cn)
    (report,) = env["payload"]["reports"]
    assert report["cn"] == cn
    assert report["deg_Y"] == "15" + "0" * 4300


def test_internal_type_error_is_not_a_usage_error():
    # a call without the flags its command needs is a caller bug
    with pytest.raises(TypeError):
        run("invariants")


def test_exact_cli_import_leaves_numpy_unloaded():
    script = (
        "import sys, scrolls.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported by scrolls.cli'\n"
        "from scrolls import ThetaEmbedding, theta_basis_eval\n"
        "assert callable(theta_basis_eval) and ThetaEmbedding.__name__ == 'ThetaEmbedding'\n"
    )
    src = str(Path(scrolls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_probe_elliptic(capsys):
    code, env = run_cli_json(
        capsys,
        ["probe-elliptic", "--m", "5", "--tau", "0,1", "--torsion", "1,0,2",
         "--samples", "25", "--seed", "42"],
    )
    assert code == 0
    payload = env["payload"]
    assert payload["kind"] == "probe"
    assert payload["fails"] == 0
    assert payload["inconclusives"] == 0
    assert payload["min_margin"] > 1e-6
    assert payload["group_order"] == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probe_elliptic_with_terms_beyond_the_float_range(capsys):
    # at Im(tau) = 6 some fibre points have terms near 1e176, whose unscaled
    # norm overflows; every base is decided all the same
    code, env = run_cli_json(
        capsys,
        ["probe-elliptic", "--m", "11", "--tau", "0.1,6.0", "--torsion", "0,1,5",
         "--samples", "30", "--seed", "2"],
    )
    assert code == 0
    payload = env["payload"]
    assert (payload["probes"], payload["passes"], payload["fails"], payload["inconclusives"]) == (
        138, 138, 0, 0
    )
    assert env["warnings"] == []


def test_probe_elliptic_non_exact_torsion_warns(capsys):
    code, env = run_cli_json(
        capsys,
        ["probe-elliptic", "--m", "5", "--torsion", "2,0,4", "--samples", "5"],
    )
    assert code == 0
    assert env["payload"]["group_order"] == 2
    assert any("exact order 2" in w for w in env["warnings"])


def test_probe_surface_default_torsion(capsys):
    code, env = run_cli_json(
        capsys, ["probe-surface", "--d", "7", "--order", "2", "--samples", "8", "--seed", "42"]
    )
    assert code == 0
    assert env["payload"]["genus"] == 2
    assert env["payload"]["fails"] == 0
    assert env["params"]["torsion"] == [0, 1, 0, 0, 2]


def test_probe_surface_ill_conditioned_direction_fails(capsys):
    # torsion along the first lattice direction leaves the section basis
    # without a diagonal phase action; rank drops are detected and reported
    code, env = run_cli_json(
        capsys,
        ["probe-surface", "--d", "9", "--torsion", "1,0,0,0,3", "--samples", "5",
         "--seed", "42"],
    )
    assert code == 1
    assert env["payload"]["fails"] > 0


def test_probe_surface_gray_zone_is_exit_two(capsys):
    code, env = run_cli_json(
        capsys,
        ["probe-surface", "--d", "7", "--omega", "0.31,1.8;0.07,0.21;-0.18,1.35",
         "--torsion", "1,0,0,0,2", "--samples", "10", "--seed", "42"],
    )
    assert code == 2
    assert env["payload"]["fails"] == 0
    assert env["payload"]["inconclusives"] > 0


# -------------------------------------------------------------------- errors

def test_missing_required_flag_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--n", "2"])
    assert exc.value.code == 3
    assert "usage" in capsys.readouterr().err


def test_malformed_complex_flag_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe-elliptic", "--m", "5", "--tau", "i"])
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["probe-elliptic", "--m", "5", "--tau", "inf,1"],
    ["probe-elliptic", "--m", "5", "--tau", "0,inf"],
    ["probe-surface", "--d", "7", "--omega", "nan,1;0,0;0,1"],
])
def test_non_finite_period_is_config_error(capsys, argv):
    code, env = run_cli_json(capsys, argv)
    assert code == 3
    assert "period entries must be finite" in env["payload"]["message"]


@pytest.mark.parametrize("tol", ["nan", "inf", "2", "1", "0", "-1"])
def test_tol_outside_unit_interval_is_config_error(capsys, tol):
    # such a tol cannot tell a rank drop from full rank, whatever the scroll
    code, env = run_cli_json(capsys, ["probe-elliptic", "--m", "5", "--samples", "5", "--tol", tol])
    assert code == 3
    assert env["payload"]["message"].startswith("tol must lie in (0, 1)")


@pytest.mark.parametrize("argv", [
    ["probe-elliptic", "--m", "5", "--torsion", "1,0,1" + "0" * 400],
    ["probe-surface", "--d", "7", "--torsion", "0,1,0,0,1" + "0" * 400],
    # a valid generator of order 2, with components beyond the float range
    ["probe-surface", "--d", "7", "--torsion", "0,2" + "0" * 400 + ",0,0,4" + "0" * 400],
])
def test_torsion_order_beyond_float_range_is_config_error(capsys, argv):
    code, env = run_cli_json(capsys, argv)
    assert code == 3
    assert env["warnings"] == ["configuration error: torsion order exceeds the floating-point range"]


@pytest.mark.parametrize("argv", [
    ["probe-elliptic", "--m", "5", "--torsion", "1,0,99999999999999999999"],
    ["probe-surface", "--d", "7", "--torsion", "0,1,0,0,99999999999999999999"],
])
def test_oversized_torsion_order_refused_before_the_group_is_built(capsys, monkeypatch, argv):
    def no_group(*args):
        raise AssertionError("cyclic_group called for an oversized order")

    # building this group would take memory without bound
    monkeypatch.setattr("scrolls.theta.cyclic_group", no_group)
    code, env = run_cli_json(capsys, argv)
    assert code == 3
    assert re.match(r"group order \d+ too large for \d+ sections", env["payload"]["message"])


@pytest.mark.parametrize("huge, canonical", [
    (["probe-elliptic", "--m", "5", "--torsion", "100000000000000000001,0,2"],
     ["probe-elliptic", "--m", "5", "--torsion", "1,0,2"]),
    (["probe-surface", "--d", "7", "--torsion", "0,-99999999999999999999,0,0,2"],
     ["probe-surface", "--d", "7", "--torsion", "0,1,0,0,2"]),
])
def test_huge_torsion_components_give_the_canonical_payload(capsys, huge, canonical):
    options = ["--samples", "5", "--seed", "3"]
    code, env = run_cli_json(capsys, huge + options)
    expected_code, expected = run_cli_json(capsys, canonical + options)
    assert code == expected_code == 0
    assert env["payload"] == expected["payload"]
    assert env["warnings"] == expected["warnings"]


@pytest.mark.parametrize("parent_is_file", [False, True])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, parent_is_file):
    # an existing directory as the target, or a regular file as its parent
    if parent_is_file:
        (tmp_path / "plain_file").write_text("")
        target = tmp_path / "plain_file" / "x.json"
    else:
        target = tmp_path / "existing_dir"
        target.mkdir()
    code = main(["invariants", "--n", "1", "--k", "1", "--l", "2", "--cn", "2",
                 "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("scrolls: error: cannot write ")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.rglob("*.tmp"))


def test_unknown_command_exits_three():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


# ---------------------------------------------------------------- envelopes

def test_json_round_trip_restores_exact_integers(capsys):
    code, env = run_cli_json(
        capsys, ["verify", "--n-min", "28", "--n-max", "30", "--k-min", "29", "--k-max", "30"]
    )
    assert code == 0
    for record in env["payload"]["records"]:
        expected = inequality_check(record["n"], record["k"])
        assert int(record["lhs"]) == expected.lhs
        assert int(record["rhs"]) == expected.rhs
        assert Fraction(record["lhs"]) - Fraction(record["rhs"]) == expected.lhs - expected.rhs


def test_payload_bytes_deterministic():
    params = dict(m=5, tau=1j, torsion=(1, 0, 2), samples=12, seed=9, tol=1e-8)
    first, code_first = run("probe-elliptic", **params)
    second, code_second = run("probe-elliptic", **params)
    assert code_first == code_second == 0
    assert json.dumps(first.payload) == json.dumps(second.payload)
    assert first.params == second.params


@pytest.mark.parametrize(("argv", "params"), [
    (["invariants", "--n", "2", "--k", "2", "--l", "7", "--cn", "14", "--cross-check"],
     {"n": 2, "k": 2, "l": 7, "cn": 14, "cross_check": True, "expect_smooth": False}),
    (["verify", "--n-min", "1", "--n-max", "2", "--k-min", "3", "--k-max", "4"],
     {"n_min": 1, "n_max": 2, "k_min": 3, "k_max": 4}),
    (["family", "--k-max", "3"], {"k_max": 3}),
    (["very-ample-bound", "--n", "3", "--l", "13"], {"n": 3, "l": 13}),
    (["probe-elliptic", "--m", "5", "--tau", "0.25,1.5", "--samples", "0"],
     {"m": 5, "tau": [0.25, 1.5], "torsion": [1, 0, 2], "samples": 0, "seed": 42, "tol": 1e-8}),
    # --order only fills in the default torsion, and is not echoed itself
    (["probe-surface", "--d", "7", "--order", "2", "--samples", "0", "--seed", "5"],
     {"d": 7, "omega": [[0.31, 1.12], [0.07, 0.21], [-0.18, 1.35]], "torsion": [0, 1, 0, 0, 2],
      "samples": 0, "seed": 5, "tol": 1e-8}),
])
def test_params_echo_each_flag_in_parser_order(capsys, argv, params):
    code, env = run_cli_json(capsys, argv)
    assert code == 0
    assert list(env["params"]) == list(params)
    assert env["params"] == params


def test_envelope_fields_and_renderers():
    envelope, code = run("very-ample-bound", n=3, l=13)
    assert code == 0
    data = envelope.to_dict()
    assert set(data) == {"version", "command", "timestamp", "params", "payload", "warnings"}
    assert render_json(envelope).endswith("\n")


def test_output_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["invariants", "--n", "1", "--k", "2", "--l", "5", "--cn", "5",
         "--output", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    env = json.loads(target.read_text())
    assert env["payload"]["reports"][0]["deg_Y"] == "5"
    assert not list(tmp_path.glob("*.tmp"))


_BOUND_ARGV = ["very-ample-bound", "--n", "3", "--l", "13"]


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize(("umask", "mode"), [(0o022, 0o644), (0o027, 0o640)],
                         ids=["022", "027"])
def test_output_new_file_gets_the_mode_of_a_plain_open(tmp_path, umask, mode):
    target = tmp_path / "bound.json"
    previous = os.umask(umask)
    try:
        assert main(_BOUND_ARGV + ["--output", str(target)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert json.loads(target.read_text())["payload"]["max_odd_k"] == 5


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_output_replacing_a_file_keeps_its_mode(tmp_path):
    target = tmp_path / "bound.json"
    target.write_text("earlier report")
    target.chmod(0o604)
    previous = os.umask(0o077)
    try:
        assert main(_BOUND_ARGV + ["--output", str(target)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(target.stat().st_mode) == 0o604
    assert json.loads(target.read_text())["payload"]["max_odd_k"] == 5
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks")
def test_output_writes_through_a_symlink(tmp_path):
    (tmp_path / "real.json").write_text("earlier report")
    link = tmp_path / "link.json"
    link.symlink_to("real.json")
    assert main(_BOUND_ARGV + ["--output", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads((tmp_path / "real.json").read_text())["payload"]["max_odd_k"] == 5
    assert not list(tmp_path.glob("*.tmp"))


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCROLLS_OUTPUT_DIR", str(tmp_path))
    code = main(["family", "--k-max", "3", "--output", "family.json"])
    assert code == 0
    assert (tmp_path / "family.json").exists()


def test_family_csv_columns(capsys):
    code, out = run_cli(capsys, ["family", "--k-max", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,l,cn,deg_Y,top_chern_normal,double_point,verdict"
    assert len(lines) == 3


def test_text_format(capsys):
    code, out = run_cli(
        capsys, ["invariants", "--n", "2", "--k", "2", "--l", "7", "--cn", "14",
                 "--format", "text"]
    )
    assert code == 0
    assert "deg_Y=21" in out
