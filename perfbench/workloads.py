"""Benchmark workloads: seeded command scripts for the `scrolls` CLI.

A workload is a fixed list of CLI invocations (one "script") generated from a
seed.  The seed moves the inputs (sweep window, query list, probe seed); the
sizes stay fixed so that run time does not depend on the seed.  Every command
writes its report to a file under the run's work directory, and carries the
oracle check that output must pass.

Why these four workloads (each stresses a different layer):

  sweep           `verify` over a square grid, JSON then CSV: verifier.sweep,
                  payload building, rendering and memory.  The ring engine and
                  theta do no work, so it is the bypass case for changes there.
  reports         `invariants` on the critical line l = 2n+2k-1 plus one
                  `family` run: ring.mul under invariants.  Many short
                  commands also make start-up visible.
  probe-surface   genus-2 rank probes (the paper's surface case): theta
                  exponent-matrix builds and SVDs.
  probe-elliptic  genus-1 rank probes: many cheap 1-D lattice sums, so
                  per-call overhead dominates.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable

import oracle


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv after `scrolls`, its output file and its check."""

    argv: tuple
    output: Path
    units: int
    check: Callable[[str], list]


@dataclass(frozen=True)
class Sizes:
    sweep_side: int
    sweep_offsets: int    # the seed picks each window start from 1..sweep_offsets
    queries: tuple        # base (n, k) of the `reports` queries, jittered by the seed
    family_k_max: int
    surface_samples: int
    elliptic_samples: int
    setup_reps: int       # minimal invocations per subcommand behind setup_s


SCALES = {
    "full": Sizes(
        sweep_side=200,
        sweep_offsets=5,
        queries=((2, 2), (3, 5), (10, 10), (25, 40), (50, 50), (80, 60), (40, 120), (100, 100)),
        family_k_max=60,
        surface_samples=400,
        elliptic_samples=1000,
        setup_reps=5,
    ),
    "tiny": Sizes(
        sweep_side=6,
        sweep_offsets=2,
        queries=((2, 2), (3, 5), (6, 4)),
        family_k_max=4,
        surface_samples=2,
        elliptic_samples=2,
        setup_reps=1,
    ),
}

SURFACE_ARGS = ("--d", "7", "--order", "2")
ELLIPTIC_ARGS = ("--m", "9", "--torsion", "1,0,4")

# The smallest valid invocation of each subcommand: start-up, imports, parsing
# and the envelope, with next to no compute.
SETUP_ARGV = {
    "verify": ("verify", "--n-min", "1", "--n-max", "1", "--k-min", "1", "--k-max", "1"),
    "invariants": ("invariants", "--n", "1", "--k", "1", "--l", "2", "--cn", "2"),
    "family": ("family", "--k-max", "2"),
    "probe-surface": ("probe-surface", *SURFACE_ARGS, "--samples", "0"),
    "probe-elliptic": ("probe-elliptic", *ELLIPTIC_ARGS, "--samples", "0"),
}


def _sweep(seed: int, sizes: Sizes, workdir: Path) -> list:
    rng = random.Random(seed)
    n_min = 1 + rng.randrange(sizes.sweep_offsets)
    k_min = 1 + rng.randrange(sizes.sweep_offsets)
    n_range = range(n_min, n_min + sizes.sweep_side)
    k_range = range(k_min, k_min + sizes.sweep_side)
    grid = ("--n-min", str(n_min), "--n-max", str(n_range[-1]),
            "--k-min", str(k_min), "--k-max", str(k_range[-1]))
    json_out, csv_out = workdir / "sweep.json", workdir / "sweep.csv"
    pairs = len(n_range) * len(k_range)
    return [
        Command(("verify", *grid, "--output", str(json_out)), json_out, pairs,
                lambda text: oracle.check_sweep_json(text, n_range, k_range, seed)),
        Command(("verify", *grid, "--format", "csv", "--output", str(csv_out)), csv_out, pairs,
                lambda text: oracle.check_sweep_csv(text, json_out.read_text(encoding="utf-8"))),
    ]


def _query(n: int, k: int, output: Path) -> Command:
    l = 2 * n + 2 * k - 1
    cn = factorial(n) * l  # complete linear system on the critical line
    argv = ("invariants", "--n", str(n), "--k", str(k), "--l", str(l), "--cn", str(cn),
            "--output", str(output))
    return Command(argv, output, 1, lambda text: oracle.check_reports(text, [(n, k, l, cn)]))


def _reports(seed: int, sizes: Sizes, workdir: Path) -> list:
    rng = random.Random(seed)
    pairs = [(max(1, n + rng.choice((-1, 0, 1))), max(1, k + rng.choice((-1, 0, 1))))
             for n, k in sizes.queries]
    rng.shuffle(pairs)
    commands = [_query(n, k, workdir / f"invariants-{i}.json") for i, (n, k) in enumerate(pairs)]
    k_max = sizes.family_k_max
    family = [(2, k, 2 * k + 3, 2 * (2 * k + 3)) for k in range(2, k_max + 1)]
    out = workdir / "family.json"
    commands.append(Command(("family", "--k-max", str(k_max), "--output", str(out)), out,
                            len(family), lambda text: oracle.check_reports(text, family)))
    return commands


def _probe(command: str, fixed: tuple, genus: int, samples: int, seed: int, workdir: Path) -> list:
    out = workdir / f"{command}.json"
    argv = (command, *fixed, "--samples", str(samples), "--seed", str(seed), "--output", str(out))
    probes = oracle.PROBES_PER_BASE * (samples + oracle.GRID_POINTS)
    return [Command(argv, out, probes, lambda text: oracle.check_probe(text, genus, samples, seed))]


@dataclass(frozen=True)
class Workload:
    unit: str
    script: Callable[[int, Sizes, Path], list]


WORKLOADS = {
    "sweep": Workload("grid pairs", _sweep),
    "reports": Workload("scroll reports", _reports),
    "probe-surface": Workload("rank probes", lambda seed, sizes, workdir: _probe(
        "probe-surface", SURFACE_ARGS, 2, sizes.surface_samples, seed, workdir)),
    "probe-elliptic": Workload("rank probes", lambda seed, sizes, workdir: _probe(
        "probe-elliptic", ELLIPTIC_ARGS, 1, sizes.elliptic_samples, seed, workdir)),
}


def subcommands(script: list) -> list:
    """Distinct subcommands of a script, in first-use order."""
    return list(dict.fromkeys(command.argv[0] for command in script))


def _digest(path: Path) -> str:
    """Hash of an output file without the envelope timestamp, the one field allowed to vary."""
    data = re.sub(rb'^  "timestamp": "[^"\n]*",\n', b"", path.read_bytes(), count=1, flags=re.M)
    return hashlib.sha256(data).hexdigest()


class OutputChecker:
    """Checks each command's exit code and output.

    The first output of a command goes through the oracle; repeats of the same
    command must then reproduce it byte for byte, which is cheaper than the
    oracle and just as strict.
    """

    def __init__(self) -> None:
        self.reference: dict = {}
        self.problems: list = []

    def check(self, command: Command, exit_code: int) -> bool:
        problems = self._problems(command, exit_code)
        self.problems.extend(f"{command.argv[0]}: {p}" for p in problems)
        return not problems

    def _problems(self, command: Command, exit_code: int) -> list:
        if exit_code != 0:
            return [f"exit code {exit_code}, expected 0"]
        try:
            digest = _digest(command.output)
        except OSError as exc:
            return [f"no output: {exc}"]
        if command.argv in self.reference:
            same = self.reference[command.argv] == digest
            return [] if same else ["output differs from the first run of the same command"]
        try:
            problems = command.check(command.output.read_text(encoding="utf-8"))
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {exc!r}"]
        if not problems:
            self.reference[command.argv] = digest
        return problems
