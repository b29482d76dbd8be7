"""Traced, in-process run of one benchmark workload.

    PYTHONPATH=src python3 perfbench/tracer.py --workload reports --seed 1 \
        --seconds 15 --workdir perfbench/out/work/x --spans perfbench/out/spans.json

`run.py --trace 1` starts this in a fresh interpreter.  It times
`import scrolls.cli`, then runs the workload's script through
`scrolls.cli.main(argv)` with the same argv as the untraced run, alternating
an untraced and a traced pass until `--seconds` of measured time.

Tracing wraps the public functions of each module at every name they are
bound to (a `from .x import f` copies the binding, and the CLI keeps its
renderers in a dict).  Each call records a span (name, start, end, parent);
spans stay in memory and the last traced pass is written to `--spans` at the
end.  Times are medians over traced passes; counts must repeat exactly.  The
last line of output is a JSON object with `attempted`, `failed`, `metrics`
and `problems`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

# (metric, unit) in the order printed; `*.calls`, byte and ratio metrics are
# counts that repeat exactly for a fixed seed.
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.render_json.s", "s"),
    ("cli.render_csv.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("verifier.sweep.s", "s"),
    ("verifier.sweep.pairs", "count"),
    ("verifier.inequality_check.calls", "count"),
    ("verifier.conjecture_family_report.s", "s"),
    ("invariants.build_report.calls", "count"),
    ("invariants.build_report.s", "s"),
    ("invariants.top_chern_normal.calls", "count"),
    ("invariants.top_chern_normal.s", "s"),
    ("invariants.hyperplane_power_coefficient.calls", "count"),
    ("invariants.hyperplane_power_coefficient.s", "s"),
    ("ring.mul.calls", "count"),
    ("ring.mul.s", "s"),
    ("ring.mul.term_pairs", "count"),
    ("ring.power_signed.calls", "count"),
    ("ring.power_signed.s", "s"),
    ("ring.inverse.calls", "count"),
    ("ring.inverse.s", "s"),
    ("theta.scroll_smoothness_probe.s", "s"),
    ("theta.theta_basis_eval.calls", "count"),
    ("theta.theta_basis_eval.s", "s"),
    ("theta.theta_values.calls", "count"),
    ("theta.theta_values.s", "s"),
    ("theta.theta_derivatives.calls", "count"),
    ("theta.theta_derivatives.s", "s"),
    ("theta.svd.calls", "count"),
    ("theta.svd.s", "s"),
    ("theta.lattice_distance.calls", "count"),
    ("theta.lattice_distance.s", "s"),
    ("theta.eval_distinct_ratio", "ratio"),
    ("theta.probe_pass_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span recorder that wraps functions in place and restores them afterwards."""

    def __init__(self) -> None:
        self.spans: list = []   # (name, start, end, parent index or -1)
        self.stack: list = []
        self.counts: Counter = Counter()
        self.points: set = set()
        self._undo: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` recording a span per call; the hooks count outside the span."""
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            if before is not None:
                before(self, *args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(counts, result)
            return result

        return traced

    def patch(self, namespaces: list, original, wrapper) -> None:
        """Rebind `original` to `wrapper` in every module namespace and dict in it."""
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(namespace, key, wrapper, original)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for inner_key, inner in list(value.items()):
                        if inner is original:
                            self._set(value, inner_key, wrapper, original)

    def _set(self, mapping: dict, key, wrapper, original) -> None:
        mapping[key] = wrapper
        self._undo.append((mapping, key, original))

    def restore(self) -> None:
        for mapping, key, original in reversed(self._undo):
            mapping[key] = original
        self._undo.clear()


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the package (and numpy's SVD)."""
    import numpy
    import scrolls
    from scrolls import cli, invariants, ring, theta, verifier

    def term_pairs(t, a, b):
        t.counts["ring.mul.term_pairs"] += len(a.coeffs) * len(b.coeffs)

    def torus_point(t, emb, z, tangent=None):
        t.points.add(numpy.asarray(z, dtype=complex).tobytes())

    def text_bytes(counts, text):
        counts["cli.output_bytes"] += len(text.encode("utf-8"))

    def pairs(counts, result):
        counts["verifier.sweep.pairs"] += len(result.records)

    def probes(counts, summary):
        counts["probe.passes"] += summary.passes
        counts["probe.probes"] += summary.probes

    targets = [
        (cli, "main", None, None), (cli, "run", None, None),
        (cli, "render_json", None, text_bytes), (cli, "render_csv", None, text_bytes),
        (verifier, "sweep", None, pairs), (verifier, "inequality_check", None, None),
        (verifier, "conjecture_family_report", None, None),
        (invariants, "build_report", None, None), (invariants, "top_chern_normal", None, None),
        (invariants, "hyperplane_power_coefficient", None, None),
        (ring, "mul", term_pairs, None), (ring, "power_signed", None, None),
        (ring, "inverse", None, None),
        (theta, "scroll_smoothness_probe", None, probes),
        (theta, "theta_basis_eval", torus_point, None),
        (theta, "theta_values", None, None), (theta, "theta_derivatives", None, None),
        (theta, "lattice_distance", None, None),
    ]
    namespaces = [vars(module) for module in (scrolls, cli, invariants, ring, theta, verifier)]
    for module, attr, before, after in targets:
        original = getattr(module, attr)
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        tracer.patch(namespaces, original, tracer.wrap(name, original, before, after))
    # theta is the package's only caller of numpy's SVD
    tracer.patch([vars(numpy.linalg)], numpy.linalg.svd,
                 tracer.wrap("theta.svd", numpy.linalg.svd))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass, computed from its spans."""
    spans = tracer.spans
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    children: Counter = Counter()
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for index, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - children[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:  # outermost call of this name: count its time once
            inclusive[name] += end - start
    counts = tracer.counts
    evals = calls["theta.theta_basis_eval"]
    values = {
        "cli.run.self_s": self_time["cli.run"],
        "cli.main.self_s": self_time["cli.main"],
        "cli.output_bytes": counts["cli.output_bytes"],
        "verifier.sweep.pairs": counts["verifier.sweep.pairs"],
        "ring.mul.term_pairs": counts["ring.mul.term_pairs"],
        "theta.eval_distinct_ratio": len(tracer.points) / evals if evals else 0.0,
        "theta.probe_pass_ratio": (counts["probe.passes"] / counts["probe.probes"]
                                   if counts["probe.probes"] else 0.0),
    }
    for metric, _ in LAYER_METRICS:
        if metric in values:
            continue
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls[span]
        elif kind == "s":
            values[metric] = inclusive[span]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import scrolls.cli as cli
    import_s = time.perf_counter() - start

    script = workloads.WORKLOADS[args.workload].script(
        args.seed, workloads.SCALES[args.scale], args.workdir)
    checker = workloads.OutputChecker()
    attempted = failed = 0

    def run_script() -> float:
        nonlocal attempted, failed
        wall = 0.0
        for command in script:
            command.output.unlink(missing_ok=True)
            begin = time.perf_counter()
            try:
                code = cli.main(list(command.argv))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            wall += time.perf_counter() - begin
            attempted += 1
            failed += not checker.check(command, code)
        return wall

    run_script()  # warm-up: the oracle checks this pass, later ones must repeat it
    plain, traced, passes = [], [], []
    while not traced or sum(plain) + sum(traced) < args.seconds:
        plain.append(run_script())
        tracer = Tracer()
        install(tracer)
        try:
            traced.append(run_script())
        finally:
            tracer.restore()
        passes.append(layer_metrics(tracer))

    problems = checker.problems
    metrics = {}
    for metric, unit in LAYER_METRICS:
        if metric == "cli.import_s":
            value = import_s
        elif metric == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif unit == "s":
            value = statistics.median(p[metric] for p in passes)
        else:
            value = passes[0][metric]
            if any(p[metric] != value for p in passes):
                problems.append(f"count {metric} differs between traced passes")
                failed += 1
        metrics[metric] = {"value": value, "unit": unit}

    args.spans.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "fields": ["name", "start", "end", "parent"], "spans": tracer.spans}) + "\n",
        encoding="utf-8")
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": metrics, "problems": problems,
                      "script_walls_s": traced, "untraced_walls_s": plain}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
