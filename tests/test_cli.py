import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import tracemalloc
import types
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import scrolls
from scrolls.cli import main, render_csv, render_json, run
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


def test_engine_mismatch_is_a_failed_verification(capsys, monkeypatch):
    # a closed form that disagrees with the ring engine is a failed check, not a usage error
    monkeypatch.setattr(scrolls.invariants, "binomial", lambda a, b: -1)
    code, env = run_cli_json(capsys, ["invariants", "--n", "2", "--k", "2", "--l", "7", "--cn", "14"])
    message = "hyperplane power at (n=2, k=2): engine 3 != closed form -1"
    assert code == 1
    assert env["payload"] == {"kind": "error", "message": message}
    assert env["warnings"] == [f"verification failed: {message}"]


def test_top_chern_mismatch_is_a_failed_verification(capsys, monkeypatch):
    # the second engine extraction's own check, reached once the first agrees
    product = scrolls.invariants.product_coefficient
    monkeypatch.setattr(scrolls.invariants, "product_coefficient", lambda *args: product(*args) + 1)
    code, env = run_cli_json(capsys, ["invariants", "--n", "2", "--k", "2", "--l", "7", "--cn", "14"])
    message = "top Chern coefficient at (n=2, k=2, l=7): engine 64 != closed form 63"
    assert code == 1
    assert env["payload"] == {"kind": "error", "message": message}
    assert env["warnings"] == [f"verification failed: {message}"]


def test_family_member_with_double_points_is_a_failed_verification(capsys, monkeypatch):
    forced = scrolls.invariants.build_report(scrolls.ScrollData(n=3, k=2, l=9, cn=54))
    monkeypatch.setattr(scrolls.verifier, "build_report", lambda data: forced)
    code, env = run_cli_json(capsys, ["family", "--k-max", "2"])
    message = "family member k=2 has nonzero double point number 2592"
    assert code == 1
    assert env["payload"] == {"kind": "error", "message": message}
    assert env["warnings"] == [f"verification failed: {message}"]


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


def test_verify_verdict_comes_from_writing_the_records(monkeypatch):
    # run() forms no record, so it reports no classification; a writer sets it
    monkeypatch.setattr("scrolls.cli.sweep_records", _tampered_rows)
    envelope, code = run("verify", n_min=1, n_max=4, k_min=1, k_max=3)
    assert code == 0
    assert envelope.payload["classification_holds"] is None
    assert envelope.warnings == []
    assert json.loads(render_json(envelope))["payload"]["classification_holds"] is False
    assert envelope.payload["classification_holds"] is False


def test_verify_rerendering_a_violated_sweep_warns_once(monkeypatch):
    monkeypatch.setattr("scrolls.cli.sweep_records", _tampered_rows)
    envelope, _ = run("verify", n_min=1, n_max=4, k_min=1, k_max=3)
    first = render_json(envelope)
    render_csv(envelope)
    assert envelope.warnings == ["equality classification violated on this grid"]
    assert render_json(envelope).split('"timestamp"')[1] == first.split('"timestamp"')[1]


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


# main() in a new interpreter, so that no numpy thread runs when it forks
# (Python 3.12+ warns of a fork beside running threads).  The interpreter sees
# `cpus` CPUs, forks from the smallest grid on, may take its row source from
# this module, and exits 4 if a span process is left behind.
_FRESH_MAIN = """
import os, sys
import scrolls.cli as cli, test_cli
cpus, rows, *argv = sys.argv[1:]
cli._cpu_count, cli._FORK_MIN_PAIRS = (lambda: int(cpus)), 0
if rows:
    cli.sweep_records = getattr(test_cli, rows)
try:
    code = cli.main(argv)
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        sys.exit(4)
sys.exit(code)
"""


def _fresh_main(cpus, argv, rows=""):
    paths = [str(Path(scrolls.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-c", _FRESH_MAIN, str(cpus), rows, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_spans_cut_the_grid_in_output_order():
    from scrolls.cli import _spans

    for ns, ks in [(range(3, 203), range(2, 202)), (range(3, 4), range(1, 20001)),
                   (range(1, 3), range(1, 3)), (range(1, 2), range(1, 2))]:
        for count in (1, 2, 3):
            spans = _spans(ns, ks, count)
            assert 1 <= len(spans) <= count and all(spans)
            pairs = [(n, k) for rows in spans for n, part in rows for k in part]
            assert pairs == [(n, k) for n in ns for k in ks]
    # a single row is cut mid-row, into equal parts
    assert [[(n, part) for n, part in rows] for rows in _spans(range(3, 4), range(1, 20001), 2)] \
        == [[(3, range(1, 10001))], [(3, range(10001, 20001))]]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(("n_range", "k_range"), [
    (range(3, 203), range(2, 202)),  # the benchmark's 200 x 200 grid, at a row offset
    (range(3, 4), range(1, 20001)),  # one row, cut mid-row
    (range(1, 3), range(1, 301)),  # equality at every pair
])
def test_verify_bytes_do_not_depend_on_the_cpu_count(n_range, k_range, fmt):
    def without_timestamp(text):
        return re.sub(r'^  "timestamp": "[^"]*",\n', "", text, count=1, flags=re.M)

    with no_int_digit_limit():
        expected = without_timestamp(_reference_verify(n_range, k_range, fmt, ""))
    for cpus in (1, 2, 3):
        result = _fresh_main(cpus, _grid_argv(n_range, k_range) + ["--format", fmt])
        assert result.returncode == 0, result.stderr
        assert without_timestamp(result.stdout) == expected, cpus


@pytest.mark.parametrize("cpus", [2, 3])
def test_verify_violation_in_a_child_span_exits_one(cpus):
    # (2, 2) is the last pair, so a child writes it
    argv = _grid_argv(range(1, 3), range(1, 3))
    result = _fresh_main(cpus, argv, "_tampered_rows")
    assert result.returncode == 1, result.stderr
    env = json.loads(result.stdout)
    assert env["payload"]["classification_holds"] is False
    assert env["payload"]["equality_set"] == [[1, 1], [1, 2], [2, 1]]
    assert env["warnings"] == ["equality classification violated on this grid"]

    result = _fresh_main(cpus, argv + ["--format", "text"], "_tampered_rows")
    assert result.returncode == 1
    assert result.stdout.endswith("  4 pairs checked; equality at 3 of them\n"
                                  "  classification holds: False\n"
                                  "  warning: equality classification violated on this grid\n")


def _no_equality_rows(ns, ks):
    for rec in sweep_records(ns, ks):
        yield rec._replace(relation="gt")


def test_verify_parent_reclassifies_a_child_span_that_does_not_hold():
    # the child's span holds 20000 exception pairs; the child exits 2, and the
    # parent classifies that span's rows again to find them
    result = _fresh_main(2, _grid_argv(range(1, 3), range(1, 20001)), "_no_equality_rows")
    assert result.returncode == 1, result.stderr
    payload = json.loads(result.stdout)["payload"]
    assert payload["equality_set"] == [] and payload["classification_holds"] is False


def _failing_at(pair):
    def rows(ns, ks):
        for rec in sweep_records(ns, ks):
            if (rec.n, rec.k) == pair:
                raise RuntimeError("row source failed")
            yield rec

    return rows


# split in 2 or 3 spans, the 6 x 6 grid gives (1, 1) to the parent and (4, 4)
# to the first child
_failing_at_1_1, _failing_at_4_4 = _failing_at((1, 1)), _failing_at((4, 4))


def _killed_at_4_4(ns, ks):
    for rec in sweep_records(ns, ks):
        if (rec.n, rec.k) == (4, 4):
            os.kill(os.getpid(), signal.SIGKILL)
        yield rec


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_failure_in_a_split_grid_keeps_previous_output(tmp_path, fmt):
    # main raises; a failed child is reported as a RuntimeError after the
    # child's own traceback, and the other children are stopped
    target = tmp_path / f"sweep.{fmt}"
    argv = _grid_argv(range(1, 7), range(1, 7)) + ["--format", fmt, "--output", str(target)]
    assert _fresh_main(2, argv).returncode == 0
    before = target.read_bytes()
    for cpus, rows in [(2, "_failing_at_1_1"), (2, "_failing_at_4_4"), (3, "_failing_at_4_4")]:
        result = _fresh_main(cpus, argv, rows)
        assert result.returncode == 1, result.stderr  # not 4: no span process is left
        assert "RuntimeError: row source failed" in result.stderr
        assert ("RuntimeError: sweep span process" in result.stderr) == (rows == "_failing_at_4_4")
        assert target.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("cpus", [2, 3])
def test_verify_killed_span_process_fails_the_run(tmp_path, cpus):
    # a child killed by a signal exits with neither 0 nor 2
    target = tmp_path / "sweep.json"
    target.write_text("previous\n")
    argv = _grid_argv(range(1, 7), range(1, 7)) + ["--output", str(target)]
    result = _fresh_main(cpus, argv, "_killed_at_4_4")
    assert result.returncode == 1, result.stderr  # not 4: no span process is left
    assert re.search(r"RuntimeError: sweep span process \d+ failed, wait status 9\n", result.stderr)
    assert target.read_text() == "previous\n"
    assert not list(tmp_path.glob("*.tmp"))


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


def assert_only_the_error(out, fmt, message):
    if fmt == "json":
        assert json.loads(out)["payload"] == {"kind": "error", "message": message}
    elif fmt == "csv":
        assert list(csv.reader(io.StringIO(out))) == [["error"], [message]]
    else:
        assert out == (f"scrolls {scrolls.__version__} :: verify\n  error: {message}\n"
                       f"  warning: configuration error: {message}\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_n_beyond_the_factorial_range_is_config_error(capsys, fmt):
    n = str(sys.maxsize + 1)
    argv = ["verify", "--n-min", n, "--n-max", n, "--k-min", "1", "--k-max", "1", "--format", fmt]
    code, out = run_cli(capsys, argv)
    assert code == 3
    assert_only_the_error(out, fmt, f"need n <= {sys.maxsize}, got n={n}")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_k_range_beyond_len_is_config_error(capsys, fmt):
    # a range of more than sys.maxsize values has no len(): refused before any output
    k_max = "100000000000000000000"
    argv = ["verify", "--n-min", "1", "--n-max", "1", "--k-min", "1", "--k-max", k_max, "--format", fmt]
    code, out = run_cli(capsys, argv)
    assert code == 3
    assert_only_the_error(out, fmt, f"need k_max - k_min < {sys.maxsize}, got k_max={k_max}")


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


def test_exact_cli_import_leaves_numpy_unloaded(tmp_path):
    # the import and every exact command load neither numpy nor dataclasses (and so not inspect)
    script = (
        "import sys, scrolls.cli\n"
        "for argv in sys.argv[1:]:\n"
        "    assert scrolls.cli.main(argv.split()) == 0, argv\n"
        "loaded = {'numpy', 'dataclasses', 'inspect'} & set(sys.modules)\n"
        "assert not loaded, f'loaded by the exact commands: {sorted(loaded)}'\n"
        "from scrolls import ThetaEmbedding, theta_basis_eval\n"
        "assert callable(theta_basis_eval) and ThetaEmbedding.__name__ == 'ThetaEmbedding'\n"
    )
    commands = [
        "invariants --n 2 --k 2 --l 7 --cn 14",
        "verify --n-min 1 --n-max 4 --k-min 1 --k-max 4 --format csv",
        "family --k-max 5 --format text",
        "very-ample-bound --n 3 --l 13",
    ]
    argvs = [f"{command} --output {tmp_path / str(i)}" for i, command in enumerate(commands)]
    src = str(Path(scrolls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script, *argvs], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert all((tmp_path / str(i)).stat().st_size for i in range(len(commands)))



def test_probe_cli_loads_dataclasses_only_with_numpy(tmp_path):
    # the probe commands add no dataclasses import to whatever numpy itself loads
    script = (
        "import sys, numpy\n"
        "by_numpy = 'dataclasses' in sys.modules\n"
        "import scrolls.cli\n"
        "for argv in sys.argv[1:]:\n"
        "    assert scrolls.cli.main(argv.split()) == 0, argv\n"
        "assert by_numpy or 'dataclasses' not in sys.modules, 'loaded by the probe commands'\n"
    )
    commands = ["probe-elliptic --m 5 --samples 2", "probe-surface --d 7 --samples 2"]
    argvs = [f"{command} --output {tmp_path / str(i)}" for i, command in enumerate(commands)]
    src = str(Path(scrolls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script, *argvs], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert all((tmp_path / str(i)).stat().st_size for i in range(len(commands)))

def test_package_exports_resolve():
    # the eager imports and the lazily loaded theta names all resolve
    tree = ast.parse(Path(scrolls.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert "build_report" in names and "very_ampleness_cluster_probe" in scrolls._THETA_NAMES
    for name in [*names, *sorted(scrolls._THETA_NAMES)]:
        assert getattr(scrolls, name) is not None, name


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


# Members whose sections span many decades at one point: at tau = i the
# m = 25 sections' magnitudes span about exp(-pi*m/4), 3e-9, and at
# Im(tau) = 300 far more.  Before the rank decision equilibrated columns
# these read 68 inconclusive (m = 25), 68 fail (m = 41), 51 fail (m = 201),
# 5 inconclusive, 17 fail and 51 fail; the text pins the smallest ratio.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, line", [
    (["--m", "25", "--torsion", "1,0,12", "--samples", "40", "--seed", "1"],
     "168 probes: 168 pass, 0 fail, 0 inconclusive; min margin 4.614e-03"),
    (["--m", "41", "--torsion", "1,0,20", "--samples", "40", "--seed", "1"],
     "168 probes: 168 pass, 0 fail, 0 inconclusive; min margin 2.789e-03"),
    (["--m", "201", "--torsion", "1,0,100", "--samples", "1"],
     "51 probes: 51 pass, 0 fail, 0 inconclusive; min margin 4.598e-04"),
    (["--m", "9", "--tau", "0,10", "--samples", "1"],
     "51 probes: 51 pass, 0 fail, 0 inconclusive; min margin 1.159e-01"),
    (["--m", "9", "--tau", "0,30", "--samples", "1"],
     "51 probes: 51 pass, 0 fail, 0 inconclusive; min margin 1.082e-01"),
    (["--m", "9", "--tau", "0,300", "--samples", "1"],
     "51 probes: 51 pass, 0 fail, 0 inconclusive; min margin 5.120e-02"),
], ids=["m25", "m41", "m201", "tau10", "tau30", "tau300"])
def test_probe_elliptic_decides_sections_of_many_scales(capsys, argv, line):
    code, out = run_cli(capsys, ["probe-elliptic", *argv, "--format", "text"])
    assert (code, out) == (0, f"scrolls {scrolls.__version__} :: probe-elliptic\n  {line}\n")


# argv -> (exit code, probes, passes, fails, inconclusives, float.hex(min_margin)),
# re-recorded when every random draw moved ahead of the lattice sums and the
# rank decision came to equilibrate columns; each kept its counts and exit
# code.  PINNED_SUMMARIES in test_theta.py compare min_margin to a relative
# 1e-9, which lets the last bits move; these pins do not.  A change of the
# last bits anywhere between the torsion point and the SVD shows here:
# dividing the genus-1 torsion point as a numpy array rather than as a Python
# complex once moved the m = 11 min_margin in its last bits.  The bits are
# those of one BLAS build (numpy 2.4 with OpenBLAS 0.3.31 on x86-64), since
# SVDs of another build may differ in the last bits; the counts hold on any
# build.
PROBE_BITS = [
    (["probe-elliptic", "--m", "11", "--tau", "0.1,6.0", "--torsion", "0,1,5",
      "--samples", "30", "--seed", "2"], (0, 138, 138, 0, 0, "0x1.09f98ccebcb87p-7")),
    (["probe-surface", "--d", "7", "--order", "2", "--samples", "49", "--seed", "1"],
     (0, 195, 195, 0, 0, "0x1.b55fa55b0e627p-9")),
    (["probe-elliptic", "--m", "9", "--torsion", "1,0,4", "--samples", "65", "--seed", "3"],
     (0, 243, 243, 0, 0, "0x1.d8c383406f8d2p-7")),
    # the two probe commands perfbench times
    (["probe-elliptic", "--m", "9", "--torsion", "1,0,4", "--samples", "1000", "--seed", "1"],
     (0, 3048, 3048, 0, 0, "0x1.e99654c4bb8a4p-7")),
    (["probe-surface", "--d", "7", "--order", "2", "--samples", "400", "--seed", "1"],
     (0, 1248, 1248, 0, 0, "0x1.da8f5db27c1acp-9")),
]


@pytest.mark.parametrize("argv, expected", PROBE_BITS,
                         ids=["m11", "d7", "m9", "bench-elliptic", "bench-surface"])
def test_probe_payload_bits_pinned(capsys, argv, expected):
    code, env = run_cli_json(capsys, argv)
    payload = env["payload"]
    counts = tuple(payload[key] for key in ("probes", "passes", "fails", "inconclusives"))
    assert (code, *counts, float.hex(payload["min_margin"])) == expected


PROBE_KEYS = ["kind", "genus", "sections", "group_order", "samples", "seed", "tol",
              "probes", "passes", "fails", "inconclusives", "min_margin"]


@pytest.mark.parametrize("argv", [
    ["probe-elliptic", "--m", "5", "--samples", "3"],
    ["probe-surface", "--d", "7", "--samples", "3", "--tol", "1e-7"],
], ids=["elliptic", "surface"])
def test_probe_payload_keys_and_csv_header(capsys, argv):
    code, env = run_cli_json(capsys, argv)
    assert code == 0
    assert list(env["payload"]) == PROBE_KEYS
    assert env["payload"]["tol"] == env["params"]["tol"]
    code, out = run_cli(capsys, argv + ["--format", "csv"])
    header, row = out.splitlines()
    assert header == "genus,sections,group_order,samples,seed,probes,passes,fails,inconclusives,min_margin"
    assert row.split(",")[:5] == [str(env["payload"][key]) for key in PROBE_KEYS[1:6]]


def test_probe_lattice_beyond_the_term_bound_is_refused_in_little_memory():
    import scrolls.theta  # noqa: F401  (numpy's import is not the probe's memory)

    # at Im(Omega) = 1e-5 I a genus-2 point's sum would hold 7 x 2260^2 terms
    params = {"d": 7, "omega": (1e-5j, 0j, 1e-5j), "torsion": (0, 1, 0, 0, 2),
              "samples": 0, "seed": 42, "tol": 1e-8}
    tracemalloc.start()
    try:
        envelope, code = run("probe-surface", **params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert envelope.payload["message"] == (
        "35753200 terms per point exceed 1048576; Im(period) too small"
    )
    assert peak < 10 * 2**20
    # at 1e-3 I a point's sum holds 7 x 228^2 terms, within the bound
    envelope, code = run("probe-surface", **dict(params, omega=(1e-3j, 0j, 1e-3j)))
    assert code == 0
    assert (envelope.payload["probes"], envelope.payload["passes"]) == (48, 48)


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


@pytest.mark.parametrize("argv, message", [
    (["probe-elliptic", "--m", "9", "--torsion", "1,0"], "expected 3 comma-separated integers"),
    (["probe-surface", "--d", "7", "--omega", "0,1;0,0"], "expected 'o11;o12;o22' with each entry 're,im'"),
])
def test_malformed_torsion_or_omega_flag_exits_three(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert message in capsys.readouterr().err


def test_probe_without_a_pairing_offset_is_a_config_error(monkeypatch):
    import numpy as np

    from scrolls import theta

    distances = theta._distances

    def offsets_on_the_group(emb, points):
        # the pairing offset's 64 candidates against the 4 elements all on the
        # lattice; the exact-order check's 4 multiples measured as they are
        gaps = distances(emb, points)
        return np.zeros_like(gaps) if len(gaps) == 64 * 4 else gaps

    monkeypatch.setattr(theta, "_distances", offsets_on_the_group)
    envelope, code = run("probe-elliptic", m=9, tau=1j, torsion=(1, 0, 4), samples=1, seed=1, tol=1e-8)
    assert code == 3
    assert envelope.payload["message"] == "could not find a pairing offset away from the subgroup"


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_elliptic_scaled_period_beyond_float_range_is_config_error(capsys):
    code, env = run_cli_json(capsys, ["probe-elliptic", "--m", "9", "--tau", "0,1e308", "--samples", "1"])
    assert code == 3
    assert env["payload"] == {"kind": "error", "message": "m*tau exceeds the floating-point range"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_elliptic_quadratic_terms_beyond_float_range_are_config_error(capsys):
    # m*tau = 9e307 is finite; the lattice sum's quadratic terms are not
    code, env = run_cli_json(capsys, ["probe-elliptic", "--m", "9", "--tau", "0,1e307", "--samples", "1"])
    assert code == 3
    message = "the lattice sum's quadratic terms exceed the floating-point range"
    assert env["payload"] == {"kind": "error", "message": message}
    assert env["warnings"] == [f"configuration error: {message}"]



@pytest.mark.parametrize("argv", [
    ["probe-elliptic", "--m", "9", "--tau", "0,3e305", "--samples", "1"],
    ["probe-elliptic", "--m", "9", "--tau", "0,1e306", "--samples", "1"],
    ["probe-surface", "--d", "7", "--omega", "0,1e306;0,0;0,1e306"],
])
def test_lattice_sum_terms_beyond_float_range_are_config_error(capsys, argv):
    # the quadratic tables are finite; the per-point exponents leave the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, env = run_cli_json(capsys, argv)
    assert code == 3
    message = "the lattice sum's terms exceed the floating-point range"
    assert env["payload"] == {"kind": "error", "message": message}
    assert env["warnings"] == [f"configuration error: {message}"]

def test_elliptic_degree_beyond_float_range_is_config_error(capsys):
    code, env = run_cli_json(capsys, ["probe-elliptic", "--m", "1" + "0" * 400])
    assert code == 3
    assert env["payload"] == {"kind": "error", "message": "degree exceeds the floating-point range"}


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
    data = vars(envelope)
    assert set(data) == {"version", "command", "timestamp", "params", "payload", "warnings"}
    assert render_json(envelope).endswith("\n")


def test_json_refuses_a_param_it_cannot_serialise():
    envelope, _ = run("very-ample-bound", n=3, l=13)
    envelope.params["l"] = Fraction(13)
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        render_json(envelope)


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
    # one line per kind of payload, and CSV's error rows, byte for byte
    refused = "group order 4 too large for 7 sections: the immersion probe needs 2k <= section_count - 1"
    cases = [
        (["invariants", "--n", "2", "--k", "2", "--l", "7", "--cn", "14", "--format", "text"], 0,
         "  n=2 k=2 l=7 cn=14: deg_Y=21 double_point=0 -> consistent-with-smooth\n"),
        (["very-ample-bound", "--n", "3", "--l", "13", "--format", "text"], 0,
         "  largest admissible odd k: 5\n"),
        (["probe-elliptic", "--m", "9", "--torsion", "2,0,4", "--samples", "5", "--format", "text"], 0,
         "  63 probes: 63 pass, 0 fail, 0 inconclusive; min margin 8.833e-02\n"
         "  warning: torsion generator has exact order 2, not the requested 4; using the generated subgroup\n"),
        (["probe-surface", "--d", "7", "--order", "4", "--format", "text"], 3,
         f"  error: {refused}\n  warning: configuration error: {refused}\n"),
    ]
    for argv, expected_code, body in cases:
        code, out = run_cli(capsys, argv)
        assert (code, out) == (expected_code, f"scrolls {scrolls.__version__} :: {argv[0]}\n" + body)
    code, out = run_cli(capsys, ["family", "--k-max", "1", "--format", "csv"])
    assert (code, out) == (3, 'error\n"need k_max >= 2, got 1"\n')
