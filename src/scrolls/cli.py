"""Command-line front end and machine-readable report emission.

Subcommands:

  invariants        degree, top Chern number and double point number of one
                    scroll configuration (n, k, l, cn)
  verify            exact inequality sweep over an (n, k) grid with the
                    equality-set summary
  family            invariant reports for the candidate surface-scroll family
                    (torsion orders 2..k_max)
  very-ample-bound  largest odd very-ampleness order compatible with l
                    sections on an abelian n-fold, n >= 3
  probe-elliptic    sampled rank probes for an elliptic-curve scroll
  probe-surface     sampled rank probes for an abelian-surface scroll

Reports are emitted as JSON (default), CSV or text.  All arbitrary-precision
integers and exact rationals are serialized as decimal strings so no consumer
ever rounds them.  Identical configurations (including the seed) produce
byte-identical payloads; only the envelope timestamp varies.

Exit codes: 0 all checks passed, 1 a verification failed or double points are
forced where smoothness was asserted, 2 inconclusive numeric probes remain,
3 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .invariants import EngineMismatchError, ScrollData, ScrollReport, build_report
from .ring import binomial
# theta, and numpy with it, is imported inside the probe handlers only, so the
# exact commands start without loading numpy.
from .verifier import FAMILY_DEGREE_NOTE, conjecture_family_report, sweep, very_ample_bound

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 100
DEFAULT_TOL = 1e-8
OUTPUT_DIR_ENV = "SCROLLS_OUTPUT_DIR"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


@dataclass
class RunConfig:
    """Parsed invocation; unused fields stay None for other commands."""

    command: str
    n: int | None = None
    k: int | None = None
    l: int | None = None
    cn: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    k_min: int | None = None
    k_max: int | None = None
    m: int | None = None
    d: int | None = None
    tau: complex | None = None
    omega: tuple | None = None
    torsion: tuple | None = None
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    tol: float = DEFAULT_TOL
    cross_check: bool = False
    expect_smooth: bool = False
    output: str | None = None
    fmt: str = "json"


@dataclass
class ReportEnvelope:
    version: str
    command: str
    timestamp: str
    params: dict
    payload: dict
    warnings: list

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "timestamp": self.timestamp,
            "params": self.params,
            "payload": self.payload,
            "warnings": self.warnings,
        }


def _num(value) -> str:
    """Decimal-string form of an exact integer or rational."""
    return str(value)


def _report_dict(report: ScrollReport) -> dict:
    data = report.data
    return {
        "n": data.n,
        "k": data.k,
        "l": data.l,
        "cn": _num(data.cn),
        "dim_Y": data.dim_y,
        "deg_Y": _num(report.deg_Y),
        "top_chern_normal": _num(report.top_chern_normal),
        "double_point": _num(report.double_point),
        "verdict": report.verdict,
        "linear_system": data.linear_system,
        "flags": list(report.flags),
    }


# ------------------------------------------------------------------ handlers

def _run_invariants(config: RunConfig):
    data = ScrollData(n=config.n, k=config.k, l=config.l, cn=config.cn)
    report = build_report(data)
    warnings = list(report.flags)
    if config.cross_check:
        # compares the report's c_m(N) number with the closed forms times cn
        tcn = report.top_chern_normal
        closed = binomial(data.l, data.n) * binomial(data.l - data.n - data.k, data.k - 1)
        if data.l == 2 * data.n + 2 * data.k - 1:
            closed_special = binomial(data.n + data.k - 1, data.n) * binomial(data.l, data.n)
            if tcn != closed_special * data.cn:
                raise EngineMismatchError(
                    f"top Chern cross-check failed: {tcn} != {closed_special} * {data.cn}"
                )
        if tcn != closed * data.cn:
            raise EngineMismatchError(f"top Chern cross-check failed: {tcn} != {closed} * {data.cn}")
        warnings.append("cross-check of closed-form identities passed")
    payload = {"kind": "scroll_report", "reports": [_report_dict(report)]}
    code = EXIT_OK
    if config.expect_smooth and report.double_point > 0:
        code = EXIT_FAILED
    return payload, warnings, code


def _run_verify(config: RunConfig):
    result = sweep(range(config.n_min, config.n_max + 1), range(config.k_min, config.k_max + 1))
    classification_holds = all(
        rec.relation == ("eq" if rec.n <= 2 else "gt") for rec in result.records
    )
    payload = {
        "kind": "sweep",
        "records": [
            {"n": r.n, "k": r.k, "lhs": _num(r.lhs), "rhs": _num(r.rhs), "relation": r.relation}
            for r in result.records
        ],
        "equality_set": [list(pair) for pair in result.equality_set],
        "classification_holds": classification_holds,
    }
    warnings = [] if classification_holds else ["equality classification violated on this grid"]
    return payload, warnings, EXIT_OK if classification_holds else EXIT_FAILED


def _run_family(config: RunConfig):
    reports = conjecture_family_report(config.k_max)
    payload = {"kind": "scroll_report", "reports": [_report_dict(r) for r in reports]}
    return payload, [FAMILY_DEGREE_NOTE], EXIT_OK


def _run_bound(config: RunConfig):
    value = very_ample_bound(config.n, config.l)
    payload = {"kind": "bound", "n": config.n, "l": config.l, "max_odd_k": value}
    return payload, [], EXIT_OK


def _probe_payload(config: RunConfig, emb, generator, warnings: list):
    from .theta import cyclic_group, scroll_smoothness_probe

    group = cyclic_group(emb, generator.point, generator.actual_order)
    if not generator.exact_order:
        warnings.append(
            f"torsion generator has exact order {generator.actual_order}, "
            f"not the requested {generator.requested_order}; using the generated subgroup"
        )
    summary = scroll_smoothness_probe(
        emb, group, samples=config.samples, seed=config.seed, tol=config.tol
    )
    payload = {
        "kind": "probe",
        "genus": summary.genus,
        "sections": summary.section_count,
        "group_order": summary.group_order,
        "samples": summary.samples,
        "seed": summary.seed,
        "tol": config.tol,
        "probes": summary.probes,
        "passes": summary.passes,
        "fails": summary.fails,
        "inconclusives": summary.inconclusives,
        "min_margin": summary.min_margin,
    }
    if summary.fails:
        code = EXIT_FAILED
    elif summary.inconclusives:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    return payload, warnings, code


def _run_probe_elliptic(config: RunConfig):
    from .theta import elliptic_embedding, torsion_point

    emb = elliptic_embedding(config.m, config.tau)
    a, b, order = config.torsion
    generator = torsion_point(emb, a, b, order)
    return _probe_payload(config, emb, generator, [])


def _run_probe_surface(config: RunConfig):
    import numpy as np

    from .theta import surface_embedding, torsion_point

    o11, o12, o22 = config.omega
    omega = np.array([[o11, o12], [o12, o22]])
    emb = surface_embedding(config.d, omega)
    a1, a2, b1, b2, order = config.torsion
    generator = torsion_point(emb, (a1, a2), (b1, b2), order)
    return _probe_payload(config, emb, generator, [])


_HANDLERS = {
    "invariants": _run_invariants,
    "verify": _run_verify,
    "family": _run_family,
    "very-ample-bound": _run_bound,
    "probe-elliptic": _run_probe_elliptic,
    "probe-surface": _run_probe_surface,
}


_COMMAND_PARAMS = {
    "invariants": ("n", "k", "l", "cn", "cross_check", "expect_smooth"),
    "verify": ("n_min", "n_max", "k_min", "k_max"),
    "family": ("k_max",),
    "very-ample-bound": ("n", "l"),
    "probe-elliptic": ("m", "tau", "torsion", "samples", "seed", "tol"),
    "probe-surface": ("d", "omega", "torsion", "samples", "seed", "tol"),
}


@contextlib.contextmanager
def _exact_int_strings():
    """Lift the interpreter's limit on int/decimal conversion for one run.

    Python 3.10.7+ refuses to parse or format ints above 4300 digits; exact
    answers (n! alone does from n = 1559 on) exceed it.  Older interpreters
    have no limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def run(config: RunConfig) -> tuple[ReportEnvelope, int]:
    """Dispatch a parsed configuration; never raises for bad numeric input."""
    params = {}
    for key in _COMMAND_PARAMS[config.command]:
        value = getattr(config, key)
        if key == "tau" and value is not None:
            value = [value.real, value.imag]
        elif key == "omega" and value is not None:
            value = [[entry.real, entry.imag] for entry in value]
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            params[key] = value
    try:
        # lifted here too for library callers of run(); main() nests it
        with _exact_int_strings():
            payload, warnings, code = _HANDLERS[config.command](config)
    except (EngineMismatchError, AssertionError) as exc:
        payload = {"kind": "error", "message": str(exc)}
        warnings = [f"verification failed: {exc}"]
        code = EXIT_FAILED
    except ValueError as exc:  # theta's ConfigurationError included
        payload = {"kind": "error", "message": str(exc)}
        warnings = [f"configuration error: {exc}"]
        code = EXIT_USAGE
    envelope = ReportEnvelope(
        version=__version__,
        command=config.command,
        timestamp=datetime.now(timezone.utc).isoformat(),
        params=params,
        payload=payload,
        warnings=warnings,
    )
    return envelope, code


# ----------------------------------------------------------------- rendering

def render_json(envelope: ReportEnvelope) -> str:
    return json.dumps(envelope.to_dict(), indent=2) + "\n"


def render_csv(envelope: ReportEnvelope) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    payload = envelope.payload
    kind = payload.get("kind")
    if kind == "sweep":
        writer.writerow(["n", "k", "lhs", "rhs", "relation"])
        for rec in payload["records"]:
            writer.writerow([rec["n"], rec["k"], rec["lhs"], rec["rhs"], rec["relation"]])
    elif kind == "scroll_report":
        writer.writerow(
            ["n", "k", "l", "cn", "deg_Y", "top_chern_normal", "double_point", "verdict"]
        )
        for rec in payload["reports"]:
            writer.writerow(
                [rec["n"], rec["k"], rec["l"], rec["cn"], rec["deg_Y"],
                 rec["top_chern_normal"], rec["double_point"], rec["verdict"]]
            )
    elif kind == "probe":
        header = ["genus", "sections", "group_order", "samples", "seed",
                  "probes", "passes", "fails", "inconclusives", "min_margin"]
        writer.writerow(header)
        writer.writerow([payload[h] for h in header])
    elif kind == "bound":
        writer.writerow(["n", "l", "max_odd_k"])
        writer.writerow([payload["n"], payload["l"], payload["max_odd_k"]])
    else:
        writer.writerow(["error"])
        writer.writerow([payload.get("message", "")])
    return buffer.getvalue()


def render_text(envelope: ReportEnvelope) -> str:
    lines = [f"scrolls {envelope.version} :: {envelope.command}"]
    payload = envelope.payload
    kind = payload.get("kind")
    if kind == "scroll_report":
        for rec in payload["reports"]:
            lines.append(
                f"  n={rec['n']} k={rec['k']} l={rec['l']} cn={rec['cn']}: "
                f"deg_Y={rec['deg_Y']} double_point={rec['double_point']} -> {rec['verdict']}"
            )
    elif kind == "sweep":
        eq = payload["equality_set"]
        lines.append(
            f"  {len(payload['records'])} pairs checked; equality at {len(eq)} of them"
        )
        lines.append(f"  classification holds: {payload['classification_holds']}")
    elif kind == "probe":
        lines.append(
            f"  {payload['probes']} probes: {payload['passes']} pass, "
            f"{payload['fails']} fail, {payload['inconclusives']} inconclusive; "
            f"min margin {payload['min_margin']:.3e}"
        )
    elif kind == "bound":
        lines.append(f"  largest admissible odd k: {payload['max_odd_k']}")
    else:
        lines.append(f"  error: {payload.get('message', '')}")
    for warning in envelope.warnings:
        lines.append(f"  warning: {warning}")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def _resolve_output(path: str | None) -> Path | None:
    if path is None:
        return None
    resolved = Path(path)
    if not resolved.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            resolved = Path(base) / resolved
    return resolved


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        os.unlink(tmp_name)
        raise


# ------------------------------------------------------------------- parsing

class _Parser(argparse.ArgumentParser):
    # usage errors must exit with code 3, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _complex_pair(text: str) -> complex:
    try:
        re_part, im_part = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}") from exc
    return complex(re_part, im_part)


def _int_tuple(count: int):
    def parse(text: str):
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated integers")
        return tuple(int(part) for part in parts)

    return parse


def _omega_triple(text: str) -> tuple:
    parts = text.split(";")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected 'o11;o12;o22' with each entry 're,im'")
    return tuple(_complex_pair(part) for part in parts)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scrolls", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_output_flags(p):
        p.add_argument("--output", help=f"output file (relative paths use ${OUTPUT_DIR_ENV})")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("invariants", help="invariants of one scroll configuration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--cn", type=int, required=True)
    p.add_argument("--cross-check", action="store_true",
                   help="also assert the closed-form identities for (n, k, l)")
    p.add_argument("--expect-smooth", action="store_true",
                   help="exit 1 if double points are forced")
    add_output_flags(p)

    p = sub.add_parser("verify", help="exact inequality sweep over an (n, k) grid")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    add_output_flags(p)

    p = sub.add_parser("family", help="surface-scroll family reports for k = 2..k_max")
    p.add_argument("--k-max", type=int, required=True)
    add_output_flags(p)

    p = sub.add_parser("very-ample-bound", help="largest odd very-ampleness order, n >= 3")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    add_output_flags(p)

    p = sub.add_parser("probe-elliptic", help="rank probes for an elliptic-curve scroll")
    p.add_argument("--m", type=int, required=True, help="embedding degree (sections)")
    p.add_argument("--tau", type=_complex_pair, default=complex(0, 1), help="period, 're,im'")
    p.add_argument("--torsion", type=_int_tuple(3), default=(1, 0, 2),
                   help="generator (a + b*tau)/order as 'a,b,order'")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_output_flags(p)

    p = sub.add_parser("probe-surface", help="rank probes for an abelian-surface scroll")
    p.add_argument("--d", type=int, required=True, help="polarization type (1, d)")
    p.add_argument("--omega", type=_omega_triple,
                   default=(complex(0.31, 1.12), complex(0.07, 0.21), complex(-0.18, 1.35)),
                   help="period matrix entries 'o11;o12;o22', each 're,im'")
    p.add_argument("--torsion", type=_int_tuple(5), default=None,
                   help="generator (D*(a1,a2) + Omega*(b1,b2))/order as 'a1,a2,b1,b2,order'")
    p.add_argument("--order", type=int, default=2,
                   help="torsion order when --torsion is omitted (default generator D*(0,1)/order)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_output_flags(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    for field_name in vars(config):
        if field_name == "command":
            continue
        if hasattr(args, field_name):
            value = getattr(args, field_name)
            if value is not None:
                setattr(config, field_name, value)
    if args.command == "probe-surface" and config.torsion is None:
        # the degree-d lattice direction acts by per-section diagonal phases,
        # which keeps the rank probes well conditioned
        config.torsion = (0, 1, 0, 0, args.order)
    return config


def main(argv=None) -> int:
    # int flags and the params echoed back may exceed the limit as well
    with _exact_int_strings():
        config = config_from_args(build_parser().parse_args(argv))
        envelope, code = run(config)
        text = _RENDERERS[config.fmt](envelope)
    destination = _resolve_output(config.output)
    if destination is None:
        sys.stdout.write(text)
    else:
        _write_atomic(destination, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
