"""Command-line interface: probability tables, Monte Carlo runs, the
signaling protocol, and causal-loop analysis, as CSV or JSON documents.

Exit codes: 0 success, 1 internal consistency failure (oracle mismatch),
2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict

from .closed_form import Variant, closed_form_probs, differential_sigma_20, sweep
from .kinematics import LoopConfig, run_loop, violation_threshold
from .protocol import ProtocolConfig, linearity_gap, transmit
from .statistics import first_principles_probs, monte_carlo_probs

SCHEMA_VERSION = "1"

# A row's items as json.dumps(doc, indent=2) writes them at the depth of doc["rows"].
_encode_row = json.JSONEncoder(separators=(",\n      ", ": ")).encode

_ANGLE_RE = re.compile(r"^([+-]?\d*\.?\d*)\s*pi(?:\s*/\s*(\d+\.?\d*))?$", re.IGNORECASE)


def parse_angle(text: str) -> float:
    """Angle literal: radians or a pi fraction like 'pi/8', '3pi/4'. The library checks its domain."""
    text = text.strip()
    m = _ANGLE_RE.match(text)
    try:
        if m:
            mult, div = m.group(1), m.group(2)
            value = math.pi
            if mult not in ("", "+", "-"):
                value *= float(mult)
            elif mult == "-":
                value = -value
            if div:
                value /= float(div)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid angle literal: {text!r}")
    return value


def parse_variant(text: str) -> Variant:
    for variant in Variant:
        if variant.value == text.lower():
            return variant
    raise argparse.ArgumentTypeError(f"variant must be 'distinguishable' or 'identical', got {text!r}")


def parse_out(text: str) -> str:
    """--out's PATH; an empty one is rejected, not taken for stdout."""
    if not text:
        raise argparse.ArgumentTypeError("PATH must not be empty")
    return text


def _fmt(value) -> str:
    if isinstance(value, float):  # bool is not a float subclass
        return "%.17g" % value  # format(value, ".17g")'s bytes, for less dispatch
    if isinstance(value, bool):
        return str(value).lower()
    if value is None:
        return ""
    return str(value)


def _write_json(doc: dict, out) -> None:
    """Write json.dumps(doc, indent=2) and a newline, one row at a time; "rows" must be doc's last key."""
    head = json.dumps({**doc, "rows": []}, indent=2)
    out.write(head[: -len("]\n}")])  # up to the rows' "["
    separator, tail = "\n    ", "]\n}\n"
    for row in doc["rows"]:
        out.write(separator + ("{\n      " + _encode_row(row)[1:-1] + "\n    }" if row else "{}"))
        separator, tail = ",\n    ", "\n  ]\n}\n"
    out.write(tail)


def render(doc: dict, fmt: str, out) -> None:
    """Write doc to out row by row: JSON, or CSV after '#' lines of parameters and summary."""
    if fmt == "json":
        _write_json(doc, out)
        return
    out.write(f"# schema_version={doc['schema_version']}\n# command={doc['command']}\n")
    for key, value in (*doc["parameters"].items(), *doc.get("summary", {}).items()):
        out.write(f"# {key}={_fmt(value)}\n")
    columns = None
    for row in doc["rows"]:  # emit's row contract fixes every row's keys and their order
        if columns is None:
            columns = list(row)
            out.write(",".join(columns) + "\n")
        out.write(",".join(map(_fmt, row.values())) + "\n")


def emit(args, rows, summary: dict | None = None) -> int:
    """Write the command's document to --out or stdout; 3 if the write fails.

    The parameters are the command's own flags in parser order, a Variant
    by its value.  Both formats read rows once, as they write, so rows
    that can raise a usage error must come as a list.  Each row is a flat
    dict of str keys, and each cell is a float (np.float64 included), int,
    bool, None or str.  CSV's header takes the first row's keys, so every
    row has those keys in that order; JSON encodes each row by itself.
    """
    parameters = {
        key: value.value if isinstance(value, Variant) else value
        for key, value in vars(args).items()
        if key not in ("command", "format", "out", "func")
    }
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command, "parameters": parameters}
    doc.update({} if summary is None else {"summary": summary}, rows=rows)
    try:
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            render(doc, args.format, out)
            out.flush()
    except OSError as exc:
        print(f"error: cannot write {args.out or '<stdout>'}: {exc}", file=sys.stderr)
        if not args.out:  # point stdout at devnull, so the flush at exit drops what it buffers
            with contextlib.suppress(AttributeError, OSError, ValueError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return 3
    return 0


def cmd_probs(args) -> int:
    closed = closed_form_probs(args.theta, args.variant)
    fp = first_principles_probs(args.theta, args.variant)
    discrepancy = max(abs(closed.p20 - fp.p20), abs(closed.p11 - fp.p11), abs(closed.p02 - fp.p02))
    row = {
        "theta_rad": args.theta,
        "variant": args.variant.value,
        "p20": closed.p20,
        "p11": closed.p11,
        "p02": closed.p02,
        "p20_oracle": fp.p20,
        "p11_oracle": fp.p11,
        "p02_oracle": fp.p02,
        "max_discrepancy": discrepancy,
        "sigma20_per_lambda2": differential_sigma_20(args.theta),
    }
    status = emit(args, [row])
    if status == 0 and discrepancy > 1e-9:
        print("error: closed form and projection oracle disagree", file=sys.stderr)
        return 1
    return status


def cmd_sweep(args) -> int:
    rows = (
        {"theta_rad": theta, "p20": p20, "p11": p11, "p02": p02, "sigma20_per_lambda2": sigma}
        for theta, p20, p11, p02, sigma in sweep(args.theta_min, args.theta_max, args.steps, args.variant)
    )
    return emit(args, rows)


def cmd_mc(args) -> int:
    counts = monte_carlo_probs(args.theta, args.variant, args.n, args.seed)
    est = counts.estimates()
    ref = closed_form_probs(args.theta, args.variant)
    row = {
        "n20": counts.n20,
        "n11": counts.n11,
        "n02": counts.n02,
        "total": counts.total,
        "p20_hat": est.p20,
        "p11_hat": est.p11,
        "p02_hat": est.p02,
        "p20": ref.p20,
        "p11": ref.p11,
        "p02": ref.p02,
        "dev20": est.p20 - ref.p20,
        "dev11": est.p11 - ref.p11,
        "dev02": est.p02 - ref.p02,
    }
    return emit(args, [row])


def cmd_protocol(args) -> int:
    config = ProtocolConfig(
        args.pairs_per_bit, args.theta_bit0, args.theta_bit1, args.variant, args.seed
    )
    # Any character but '0' and '1' maps to -1, which transmit rejects.
    report = transmit(config, ["01".find(c) for c in args.bits])
    rows = (
        {"bit_index": i, "sent": s, "decoded": d, "p20_hat": p}
        for i, (s, d, p) in enumerate(
            zip(report.sent_bits, report.decoded_bits, report.per_bit_estimates)
        )
    )
    summary = {"error_rate": report.error_rate}
    for label, theta in (("bit0", args.theta_bit0), ("bit1", args.theta_bit1)):
        lin = linearity_gap(theta, args.variant)
        summary[f"p_paper_{label}"] = lin.p_paper
        summary[f"p_linear_{label}"] = lin.p_linear
        summary[f"gap_{label}"] = lin.gap
    return emit(args, rows, summary)


def _loop_row(cfg: LoopConfig) -> dict:
    """Config and report fields in order; each Event becomes <name>_t, <name>_x."""
    row = asdict(cfg)
    for key, value in asdict(run_loop(cfg)).items():
        if isinstance(value, dict):
            row.update((f"{key}_{axis}", coord) for axis, coord in value.items())
        else:
            row[key] = value
    return row


def cmd_causality(args) -> int:
    return emit(args, [_loop_row(LoopConfig(u=args.u, beta=args.beta, L=args.L, ell=args.ell))])


def cmd_causality_scan(args) -> int:
    LoopConfig(u=1.0, beta=0.0, L=args.L)  # -L only labels the document, but must be a valid length
    rows = [{"u": u, "threshold_beta": violation_threshold(u)} for u in args.u]
    return emit(args, rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The stimamp parser, built on the first call and shared after it.

    parse_args keeps no state between calls, so every call of main
    reuses the one parser; callers must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="stimamp",
        description="Single-atom amplifier statistics, EPR signaling, and causal-loop analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", type=parse_out, default=None, help="write the document to PATH instead of stdout")

    p = sub.add_parser("probs", help="closed-form and oracle outcome probabilities at one angle")
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--variant", type=parse_variant, default=Variant.DISTINGUISHABLE)
    common(p)
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("sweep", help="probability table over an angle grid")
    p.add_argument("--theta-min", type=parse_angle, default=0.0)
    p.add_argument("--theta-max", type=parse_angle, default=math.pi / 2.0)
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--variant", type=parse_variant, default=Variant.DISTINGUISHABLE)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mc", help="seeded Monte Carlo outcome counts")
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--variant", type=parse_variant, default=Variant.DISTINGUISHABLE)
    p.add_argument("-n", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("protocol", help="simulate the EPR signaling scheme on a bit string")
    p.add_argument("--bits", required=True)
    p.add_argument("--pairs-per-bit", type=int, default=10**4)
    p.add_argument("--theta-bit0", type=parse_angle, default=ProtocolConfig.theta_bit0)
    p.add_argument("--theta-bit1", type=parse_angle, default=ProtocolConfig.theta_bit1)
    p.add_argument("--variant", type=parse_variant, default=ProtocolConfig.variant)
    p.add_argument("--seed", type=int, default=ProtocolConfig.seed)
    common(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("causality", help="trace the four-channel causal loop")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("-L", type=float, default=LoopConfig.L)
    p.add_argument("--ell", type=float, default=LoopConfig.ell)
    common(p)
    p.set_defaults(func=cmd_causality)

    p = sub.add_parser("causality-scan", help="violation threshold beta for each channel speed u")
    p.add_argument("--u", type=float, nargs="+", required=True)
    p.add_argument("-L", type=float, default=LoopConfig.L)
    common(p)
    p.set_defaults(func=cmd_causality_scan)

    return parser


def main(argv=None) -> int:
    """Parse, delegate, render; return every exit code. The library's ValueError is a usage error."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has written its --help (0) or usage error (2)
        return exc.code
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
