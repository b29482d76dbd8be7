"""Benchmark of the `scrolls` command-line tool.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.

With `--trace 0` the workload's command script runs as subprocesses of
`python -m scrolls.cli`, one command at a time (a closed loop with one
client), for `--seconds` seconds of measured time, and the end-to-end
metrics `wall_s`, `work_per_s`, `setup_s` and `peak_rss_mb` are printed, with
`fail_ratio` (failed / attempted commands) on a line of its own.  With
`--trace 1` the same script runs in-process under `tracer.py`, which prints
the per-layer metrics.  README.md defines every metric.

Every output is checked (see `oracle.py`).  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; a
copy with the machine description goes to `perfbench/out/results/`.  The exit
code is 0 when every output was correct, 1 when a check failed and 2 when the
run could not be made at all.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
RUN_BUDGET_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def _numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Runner:
    """Runs one CLI command at a time and measures its lifetime and peak RSS."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.env = _child_env()
        self.stderr_path = workdir / "stderr.txt"
        self.deadline = deadline

    def run(self, argv: tuple) -> tuple[float, int, int]:
        """(wall seconds, ru_maxrss in KiB, exit code) of `python -m scrolls.cli argv`."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.stderr_path, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "scrolls.cli", *argv], cwd=ROOT,
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=stderr)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, usage.ru_maxrss, proc.returncode

    def stderr_tail(self) -> str:
        lines = self.stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


def measure(workload: str, seed: int, seconds: float, sizes: workloads.Sizes,
            workdir: Path, deadline: float) -> dict:
    """Untraced run: set-up time, then the script in a loop for `seconds`."""
    script = workloads.WORKLOADS[workload].script(seed, sizes, workdir)
    runner = Runner(workdir, deadline)
    checker = workloads.OutputChecker()
    attempted = failed = 0

    def run_checked(command: workloads.Command) -> tuple[float, int]:
        nonlocal attempted, failed
        command.output.unlink(missing_ok=True)
        elapsed, rss, code = runner.run(command.argv)
        attempted += 1
        if not checker.check(command, code):
            failed += 1
            if code != 0:
                checker.problems.append(f"{command.argv[0]} stderr: {runner.stderr_tail()}")
        return elapsed, rss

    setup = {}
    for sub in workloads.subcommands(script):
        out = workdir / f"setup-{sub}.json"
        command = workloads.Command((*workloads.SETUP_ARGV[sub], "--output", str(out)), out, 0,
                                    lambda text: [])
        run_checked(command)  # compiles bytecode and warms the file cache; not timed
        setup[sub] = [run_checked(command)[0] for _ in range(sizes.setup_reps)]

    lifetimes, walls, peak_kib = [[] for _ in script], [], 0
    while not walls or (sum(walls) < seconds and time.monotonic() < deadline):
        for command, samples in zip(script, lifetimes):
            elapsed, rss = run_checked(command)
            samples.append(elapsed)
            peak_kib = max(peak_kib, rss)
        walls.append(sum(samples[-1] for samples in lifetimes))

    # Each command's median lifetime, summed: one slow outlier on a shared
    # machine moves this far less than it moves a median over whole scripts.
    wall_s = sum(statistics.median(samples) for samples in lifetimes)
    units = sum(command.units for command in script)
    metrics = {
        "wall_s": wall_s,
        "work_per_s": units / wall_s,
        "setup_s": sum(statistics.median(times) for times in setup.values()),
        "peak_rss_mb": peak_kib / 1024,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
        "work_unit": workloads.WORKLOADS[workload].unit,
        "units_per_script": units,
        "script_walls_s": walls,
        "setup_walls_s": setup,
        "problems": checker.problems,
    }


def trace(workload: str, seed: int, seconds: float, scale: str, workdir: Path,
          deadline: float) -> dict:
    """Traced run, in a fresh interpreter so that import time is measured cold."""
    spans = OUT / "results" / f"spans-{workload}-seed{seed}.json"
    argv = [sys.executable, str(Path(__file__).with_name("tracer.py")), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--scale", scale,
            "--workdir", str(workdir), "--spans", str(spans)]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "metrics": {}, "problems": ["tracer timed out"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"attempted": 1, "failed": 1, "metrics": {},
                "problems": [f"tracer exited with {done.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scrolls" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/scrolls package to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    (OUT / "results").mkdir(exist_ok=True)
    try:
        if args.trace:
            result = trace(args.workload, args.seed, args.seconds, args.scale, workdir, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds,
                             workloads.SCALES[args.scale], workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and bool(result["metrics"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "environment": _environment(),
              "fail_ratio": failed / attempted, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# scrolls benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} scale={args.scale}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:<40} {entry['value']:.6g} {entry['unit']}")
    print(f"{'fail_ratio':<40} {failed / attempted:.6g} ratio ({failed} of {attempted} commands)")
    if "work_unit" in result:
        walls = result["script_walls_s"]
        print(f"# {len(walls)} script runs, each {min(walls):.4g} s to {max(walls):.4g} s; "
              f"unit of work: {result['work_unit']}")
    for problem in result["problems"][:20]:
        print(f"# FAILED CHECK: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
