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

Each subcommand's flags are declared once, in its parser.  `main` hands them
to the command's handler as keyword arguments, and library callers do the
same: `run(command, **flags)`, e.g. `run("very-ample-bound", n=3, l=13)`.  The
envelope echoes the flags as passed, complex ones as [re, im].

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
import bisect
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import shutil
import stat
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .invariants import EngineMismatchError, ScrollData, ScrollReport, build_report
# theta (and numpy with it) is imported inside _probe only, so the exact
# commands start without loading it.
from .verifier import FAMILY_DEGREE_NOTE, conjecture_family_report, sweep_records, very_ample_bound

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 100
DEFAULT_TOL = 1e-8
OUTPUT_DIR_ENV = "SCROLLS_OUTPUT_DIR"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _report_dict(report: ScrollReport) -> dict:
    data = report.data
    return {
        "n": data.n,
        "k": data.k,
        "l": data.l,
        "cn": str(data.cn),
        "dim_Y": data.dim_y,
        "deg_Y": str(report.deg_Y),
        "top_chern_normal": str(report.top_chern_normal),
        "double_point": str(report.double_point),
        "verdict": report.verdict,
        "linear_system": data.linear_system,
        "flags": list(report.flags),
    }


# ------------------------------------------------------------------ handlers

def _run_invariants(n, k, l, cn, cross_check=False, expect_smooth=False):
    report = build_report(ScrollData(n=n, k=k, l=l, cn=cn))
    warnings = list(report.flags)
    if cross_check:
        # build_report has asserted the engine against the closed form already
        warnings.append("cross-check of closed-form identities passed")
    payload = {"kind": "scroll_report", "reports": [_report_dict(report)]}
    code = EXIT_OK
    if expect_smooth and report.double_point > 0:
        code = EXIT_FAILED
    return payload, warnings, code


def _run_verify(n_min, n_max, k_min, k_max):
    # the records are formed only as they are written: _write_records splits
    # a large grid across the usable CPUs in forked spans, then sets the
    # classification flag, the warning and the equality set (JSON lists its
    # pairs, text counts them) that main()'s exit code reads; until then
    # the classification is unknown (None)
    grid = range(n_min, n_max + 1), range(k_min, k_max + 1)
    sweep_records(*grid)  # validates the ranges now
    payload = {"kind": "sweep", "records": grid, "equality_set": None, "classification_holds": None}
    return payload, [], EXIT_OK


def _run_family(k_max):
    reports = conjecture_family_report(k_max)
    payload = {"kind": "scroll_report", "reports": [_report_dict(r) for r in reports]}
    return payload, [FAMILY_DEGREE_NOTE], EXIT_OK


def _run_bound(n, l):
    payload = {"kind": "bound", "n": n, "l": l, "max_odd_k": very_ample_bound(n, l)}
    return payload, [], EXIT_OK


def _probe(genus, period, degree, torsion, samples, seed, tol):
    """Probe the scroll of the genus-`genus` theta embedding with `degree`
    sections under the group generated by (a + b*period)/order, from
    torsion = (*a, *b, order) with genus entries in each of a and b."""
    from .theta import ThetaEmbedding, scroll_smoothness_probe, torsion_point

    emb = ThetaEmbedding(genus=genus, period=period, degree=degree)
    generator = torsion_point(emb, torsion[:genus], torsion[genus:-1], torsion[-1])
    warnings = []
    if generator.actual_order != abs(torsion[-1]):
        warnings.append(
            f"torsion generator has exact order {generator.actual_order}, "
            f"not the requested {abs(torsion[-1])}; using the generated subgroup"
        )
    summary = scroll_smoothness_probe(emb, generator.point, generator.actual_order,
                                      samples=samples, seed=seed, tol=tol)
    payload = {"kind": "probe", **summary._asdict()}
    if summary.fails:
        code = EXIT_FAILED
    elif summary.inconclusives:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    return payload, warnings, code


def _run_probe_elliptic(m, tau, **options):
    return _probe(genus=1, period=tau, degree=m, **options)


def _run_probe_surface(d, omega, **options):
    o11, o12, o22 = omega
    return _probe(genus=2, period=[[o11, o12], [o12, o22]], degree=d, **options)


_HANDLERS = {
    "invariants": _run_invariants,
    "verify": _run_verify,
    "family": _run_family,
    "very-ample-bound": _run_bound,
    "probe-elliptic": _run_probe_elliptic,
    "probe-surface": _run_probe_surface,
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


def run(command: str, **params) -> tuple[dict, int]:
    """Run one subcommand with its flags as keyword arguments; never raises
    for bad numeric input.  The envelope is the JSON object as a dict, and
    echoes `params` as passed."""
    try:
        # lifted here too for library callers of run(); main() nests it
        with _exact_int_strings():
            payload, warnings, code = _HANDLERS[command](**params)
    except (EngineMismatchError, AssertionError) as exc:
        payload = {"kind": "error", "message": str(exc)}
        warnings = [f"verification failed: {exc}"]
        code = EXIT_FAILED
    except ValueError as exc:  # theta's ConfigurationError included
        payload = {"kind": "error", "message": str(exc)}
        warnings = [f"configuration error: {exc}"]
        code = EXIT_USAGE
    envelope = {"version": __version__, "command": command,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "params": params, "payload": payload, "warnings": warnings}
    return envelope, code


# ----------------------------------------------------------------- rendering

# Writers stream an envelope into a text handle.  A sweep's records go out in
# spans from templates that match json.dumps(indent=2) and csv.writer bytes.

_RECORD_JSON = (',\n      {\n        "n": %d,\n        "k": %d,\n        "lhs": "%d",\n'
                '        "rhs": "%d",\n        "relation": "%s"\n      }')
_PAIR_JSON = ",\n      [\n        %d,\n        %d\n      ]"

# Grids of fewer pairs are written in one process: on 2 CPUs, a forked second
# writer broke even at 4,000 to 5,000 pairs of rows from n = 3 (medians of 25).
_FORK_MIN_PAIRS = 5000


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _spans(ns: range, ks: range, count: int) -> list:
    """The grid in output order, cut into at most `count` lists of (n, k range)
    rows of about equal estimated cost; a cut may fall mid-row."""
    width, k = len(ks), ks[len(ks) // 2]
    # per pair, at the middle k: a fixed part, the digits d of
    # lhs = (n+k-1)!/(k-1)! (2n+2k-1), and d^2 for the quadratic int to str
    digits = [(math.lgamma(n + k) - math.lgamma(k) + math.log(2 * n + 2 * k - 1)) / 2.3 for n in ns]
    ends = [0.0, *itertools.accumulate(300 + d + d * d / 600 for d in digits)]

    def cut(target):  # the index in output order of the pair where the cost reaches target
        row = bisect.bisect(ends, target) - 1
        return row * width + round(width * (target - ends[row]) / (ends[row + 1] - ends[row]))

    cuts = sorted({0, len(ns) * width, *(cut(ends[-1] * i / count) for i in range(1, count))})
    return [[(ns[row], ks[max(a - row * width, 0):b - row * width])
             for row in range(a // width, -(-b // width))] for a, b in zip(cuts, cuts[1:])]


def _write_span(rows: list, out, template, strip: int = 0) -> list:
    """Write the records of `rows` with `template` (None: none), the first
    `strip` characters left out; return the (n, k, relation) of each record
    that breaks "eq for n <= 2, gt above"."""
    broken = []
    for n, ks in rows:
        records = sweep_records((n,), ks)
        expected = "eq" if n <= 2 else "gt"
        while batch := list(itertools.islice(records, 256)):
            if template is not None:
                out.write("".join(map(template.__mod__, batch))[strip:])
                strip = 0
            broken += [(n, rec.k, rec.relation) for rec in batch if rec.relation != expected]
    return broken


def _write_records(envelope: dict, out, template, strip: int = 0) -> None:
    """Write the sweep's records (see _write_span); set the classification
    flag and the equality set.  From _FORK_MIN_PAIRS on, a forked child writes
    each span but the first into one temp file, which the parent copies to
    `out` after its own, in order.  The child exits 0 when its span holds no
    broken record and 2 when it does; the parent then classifies that span's
    rows again, writing nothing, to list them.  The bytes do not depend on
    the CPU count."""
    payload = envelope["payload"]
    ns, ks = payload["records"]
    fork = hasattr(os, "fork") and len(ns) * len(ks) >= _FORK_MIN_PAIRS
    first, *rest = _spans(ns, ks, _cpu_count() if fork else 1)
    children = []  # (pid, rows, records file) of each child not yet reaped
    with contextlib.ExitStack() as files:  # closes every temp file, however the run ends
        try:
            for rows in rest:
                records = files.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
                pid = os.fork()
                if pid == 0:  # never returns: it would flush the parent's buffers, run its cleanup
                    status = 1
                    try:
                        broken = _write_span(rows, records, template)
                        records.flush()
                        status = 2 if broken else 0
                    except BaseException:
                        sys.excepthook(*sys.exc_info())  # before os._exit drops it
                        raise
                    finally:
                        os._exit(status)
                children.append((pid, rows, records))
            broken = _write_span(first, out, template, strip)
            while children:
                pid, rows, records = children[0]
                status = os.waitpid(pid, 0)[1]
                del children[0]
                if os.waitstatus_to_exitcode(status) not in (0, 2):
                    raise RuntimeError(f"sweep span process {pid} failed, wait status {status}")
                records.seek(0)
                shutil.copyfileobj(records, out)
                if status:
                    broken += _write_span(rows, None, None)
        finally:
            for pid, *_ in children:  # left only when the run failed
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)
    payload["classification_holds"] = not broken
    violated = "equality classification violated on this grid"
    if broken and violated not in envelope["warnings"]:  # once, however often rendered
        envelope["warnings"].append(violated)
    unequal = {(n, k) for n, k, _ in broken if n <= 2}
    payload["equality_set"] = itertools.chain(
        ((n, k) for n in range(ns[0], min(ns[-1], 2) + 1) for k in ks if (n, k) not in unequal),
        sorted((n, k) for n, k, relation in broken if n > 2 and relation == "eq"))


def _complex_json(value) -> list:
    """json.dumps hook: the complex flags (tau, omega) as [re, im]."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(envelope: dict, out) -> None:
    payload = envelope["payload"]
    if payload.get("kind") != "sweep":
        out.write(json.dumps(envelope, indent=2, default=_complex_json) + "\n")
        return

    def around_lists() -> list:
        # "\0" (JSON "\u0000") marks the two lists; no other field can hold it
        data = dict(envelope, payload=dict(payload, records="\0", equality_set="\0"))
        return json.dumps(data, indent=2, default=_complex_json).split('"\\u0000"')

    # each record and pair carries its ",\n" separator; the first one's comma is dropped
    out.write(around_lists()[0] + "[")
    _write_records(envelope, out, _RECORD_JSON, strip=1)
    out.write("\n    ]")
    # the fields after the records, and the equality set, are final only now
    _, between, after = around_lists()
    pairs = map(_PAIR_JSON.__mod__, payload["equality_set"])
    first = next(pairs, "")
    out.write(between + "[" + first[1:])
    out.writelines(pairs)
    out.write(("\n    ]" if first else "]") + after + "\n")


# CSV columns of the one-table kinds; a scroll report has a row per report,
# the others one row
_CSV_COLUMNS = {
    "scroll_report": ("n", "k", "l", "cn", "deg_Y", "top_chern_normal", "double_point", "verdict"),
    "probe": ("genus", "sections", "group_order", "samples", "seed",
              "probes", "passes", "fails", "inconclusives", "min_margin"),
    "bound": ("n", "l", "max_odd_k"),
}


def write_csv(envelope: dict, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    payload = envelope["payload"]
    kind = payload.get("kind")
    if kind == "sweep":
        writer.writerow(["n", "k", "lhs", "rhs", "relation"])
        _write_records(envelope, out, "%d,%d,%d,%d,%s\n")
    elif kind in _CSV_COLUMNS:
        columns = _CSV_COLUMNS[kind]
        writer.writerow(columns)
        writer.writerows([rec[c] for c in columns] for rec in payload.get("reports", [payload]))
    else:
        writer.writerow(["error"])
        writer.writerow([payload.get("message", "")])


def write_text(envelope: dict, out) -> None:
    lines = [f"scrolls {envelope['version']} :: {envelope['command']}"]
    payload = envelope["payload"]
    kind = payload.get("kind")
    if kind == "scroll_report":
        for rec in payload["reports"]:
            lines.append(
                f"  n={rec['n']} k={rec['k']} l={rec['l']} cn={rec['cn']}: "
                f"deg_Y={rec['deg_Y']} double_point={rec['double_point']} -> {rec['verdict']}"
            )
    elif kind == "sweep":
        _write_records(envelope, out, None)
        ns, ks = payload["records"]
        equal = sum(1 for _ in payload["equality_set"])
        lines.append(f"  {len(ns) * len(ks)} pairs checked; equality at {equal} of them")
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
    for warning in envelope["warnings"]:
        lines.append(f"  warning: {warning}")
    out.write("\n".join(lines) + "\n")


_WRITERS = {"json": write_json, "csv": write_csv, "text": write_text}


def _render(write, envelope: dict) -> str:
    buffer = io.StringIO()
    # library callers render outside main(); sweep ints are formatted here
    with _exact_int_strings():
        write(envelope, buffer)
    return buffer.getvalue()


# render_*(envelope) -> str, for library callers
render_json = functools.partial(_render, write_json)
render_csv = functools.partial(_render, write_csv)


def _file_mode(path: Path) -> int:
    """The mode open(path, "w") leaves: an existing file's own, else 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


@contextlib.contextmanager
def _output(path: str | None):
    """stdout, or a temp file that replaces `path` (a symlink's target, and
    under $SCROLLS_OUTPUT_DIR if relative) once fully written."""
    if path is None:
        yield sys.stdout
        return
    # an absolute path discards the base; realpath never raises, even on a symlink loop
    path = Path(os.path.realpath(Path(os.environ.get(OUTPUT_DIR_ENV) or "") / path))
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            os.chmod(tmp_name, _file_mode(path))  # mkstemp makes it 0o600
            yield handle
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
        try:
            return tuple(int(part) for part in parts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated integers, got {text!r}") from exc

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

    def add_probe_flags(p):
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        add_output_flags(p)

    p = sub.add_parser("invariants", help="invariants of one scroll configuration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--cn", type=int, required=True)
    p.add_argument("--cross-check", action="store_true",
                   help="only add a warning line: every report asserts the closed forms")
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
    add_probe_flags(p)

    p = sub.add_parser("probe-surface", help="rank probes for an abelian-surface scroll")
    p.add_argument("--d", type=int, required=True, help="polarization type (1, d)")
    p.add_argument("--omega", type=_omega_triple,
                   default=(complex(0.31, 1.12), complex(0.07, 0.21), complex(-0.18, 1.35)),
                   help="period matrix entries 'o11;o12;o22', each 're,im'")
    p.add_argument("--torsion", type=_int_tuple(5), default=None,
                   help="generator (D*(a1,a2) + Omega*(b1,b2))/order as 'a1,a2,b1,b2,order'")
    p.add_argument("--order", type=int, default=2,
                   help="torsion order when --torsion is omitted (default generator D*(0,1)/order)")
    add_probe_flags(p)

    return parser


def main(argv=None) -> int:
    # int flags, the params echoed back and sweep ints written may exceed the limit
    with _exact_int_strings():
        params = vars(build_parser().parse_args(argv))
        command, output, fmt = params.pop("command"), params.pop("output"), params.pop("fmt")
        if command == "probe-surface":
            order = params.pop("order")
            if params["torsion"] is None:
                # the degree-d lattice direction acts by per-section diagonal
                # phases, which keeps the rank probes well conditioned
                params["torsion"] = (0, 1, 0, 0, order)
        envelope, code = run(command, **params)
        try:
            with _output(output) as out:
                _WRITERS[fmt](envelope, out)
        except OSError as exc:
            # an unwritable --output is a usage error, not a failed check
            target = output or "stdout"
            print(f"scrolls: error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_FAILED if envelope["payload"].get("classification_holds") is False else code


if __name__ == "__main__":
    sys.exit(main())
