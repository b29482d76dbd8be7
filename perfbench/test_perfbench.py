"""Self-tests of the benchmark: smoke runs, oracle sensitivity, count repeatability.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
_RUNS: dict = {}


def _bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _tiny_run(workload: str, trace: int) -> tuple[str, dict]:
    if (workload, trace) not in _RUNS:
        done = _bench(workload, trace)
        assert done.returncode == 0, done.stdout + done.stderr
        _RUNS[workload, trace] = (done.stdout, json.loads(done.stdout.strip().splitlines()[-1]))
    return _RUNS[workload, trace]


def _cli(tmp_path: Path, *argv: str) -> Path:
    out = tmp_path / "out.txt"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "scrolls.cli", *argv, "--output", str(out)],
                   env=env, check=True, timeout=60)
    return out


def _change_one_digit(text: str, after: str) -> str:
    """Increment the first digit that follows `after` (mod 10)."""
    start = text.index(after) + len(after)
    pos = next(i for i in range(start, len(text)) if text[i].isdigit())
    return text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]


def test_spec_names_match_the_code():
    import tracer

    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(tracer.LAYER_METRICS)
    import run

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    stdout, result = _tiny_run(workload, trace)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    lines = stdout.splitlines()
    for metric in expected:
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in lines), metric["name"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload):
    _, first = _tiny_run(workload, 1)
    done = _bench(workload, 1)
    assert done.returncode == 0, done.stdout + done.stderr
    second = json.loads(done.stdout.strip().splitlines()[-1])
    counts = [name for name, entry in first["metrics"].items() if entry["unit"] != "s"]
    assert counts
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts}


def test_oracle_flags_a_changed_digit_in_reports(tmp_path):
    config = (5, 3, 15, 120 * 15)
    argv = ("invariants", "--n", "5", "--k", "3", "--l", "15", "--cn", str(120 * 15))
    text = _cli(tmp_path, *argv).read_text(encoding="utf-8")
    assert oracle.check_reports(text, [config]) == []
    for field in ("deg_Y", "top_chern_normal", "double_point"):
        corrupted = _change_one_digit(text, f'"{field}": "')
        assert oracle.check_reports(corrupted, [config]), field


def test_oracle_flags_a_changed_digit_in_a_sweep(tmp_path):
    grid = range(1, 7)
    argv = ("verify", "--n-min", "1", "--n-max", "6", "--k-min", "1", "--k-max", "6")
    json_text = _cli(tmp_path, *argv).read_text(encoding="utf-8")
    csv_text = _cli(tmp_path, *argv, "--format", "csv").read_text(encoding="utf-8")
    assert oracle.check_sweep_json(json_text, grid, grid, seed=0) == []
    assert oracle.check_sweep_csv(csv_text, json_text) == []
    assert oracle.check_sweep_json(_change_one_digit(json_text, '"n": 4'), grid, grid, seed=0)
    assert oracle.check_sweep_json(_change_one_digit(json_text, '"lhs": "'), grid, grid, seed=0)
    assert oracle.check_sweep_csv(_change_one_digit(csv_text, "\n5,3,"), json_text)


def test_oracle_flags_a_changed_digit_in_a_probe(tmp_path):
    argv = ("probe-elliptic", *workloads.ELLIPTIC_ARGS, "--samples", "2", "--seed", "7")
    text = _cli(tmp_path, *argv).read_text(encoding="utf-8")
    assert oracle.check_probe(text, genus=1, samples=2, seed=7) == []
    assert oracle.check_probe(_change_one_digit(text, '"passes": '), genus=1, samples=2, seed=7)


def test_checker_flags_wrong_exit_code_and_changed_repeat(tmp_path):
    output = tmp_path / "report.json"
    command = workloads.Command(("invariants",), output, 1, lambda text: [])
    output.write_text('{\n  "timestamp": "a",\n  "payload": 1\n}\n', encoding="utf-8")
    checker = workloads.OutputChecker()
    assert not checker.check(command, 3)
    assert "exit code 3" in checker.problems[-1]
    assert checker.check(command, 0)
    output.write_text('{\n  "timestamp": "b",\n  "payload": 1\n}\n', encoding="utf-8")
    assert checker.check(command, 0)  # only the timestamp changed
    output.write_text('{\n  "timestamp": "b",\n  "payload": 2\n}\n', encoding="utf-8")
    assert not checker.check(command, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("reports", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
