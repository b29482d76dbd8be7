import contextlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import scrolls
from scrolls.cli import RunConfig, main, render_json, run
from scrolls.verifier import inequality_check


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
    # a RunConfig without the fields its command needs is a caller bug
    with pytest.raises(TypeError):
        run(RunConfig(command="invariants"))


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
    config = RunConfig(command="probe-elliptic", m=5, tau=1j, torsion=(1, 0, 2), samples=12, seed=9)
    first, code_first = run(config)
    second, code_second = run(config)
    assert code_first == code_second == 0
    assert json.dumps(first.payload) == json.dumps(second.payload)
    assert first.params == second.params


def test_envelope_fields_and_renderers():
    config = RunConfig(command="very-ample-bound", n=3, l=13)
    envelope, code = run(config)
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
