"""Command-line interface: probability tables, Monte Carlo runs, the
signaling protocol, and causal-loop analysis, as CSV or JSON documents.

Exit codes: 0 success, 1 internal consistency failure (oracle mismatch),
2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict

import numpy as np

from .amplifier import Variant
from .kinematics import LoopConfig, run_loop, violation_threshold
from .protocol import ProtocolConfig, linearity_gap, transmit
from .statistics import (
    closed_form_probs,
    differential_sigma_20,
    first_principles_probs,
    monte_carlo_probs,
    sweep,
)

SCHEMA_VERSION = "1"

_ANGLE_RE = re.compile(r"^([+-]?\d*\.?\d*)\s*pi(?:\s*/\s*(\d+\.?\d*))?$", re.IGNORECASE)


def parse_angle(text: str) -> float:
    """Finite angle literal: decimal radians or a pi fraction like 'pi/8', '3pi/4'."""
    text = text.strip()
    m = _ANGLE_RE.match(text)
    try:
        if m:
            mult, div = m.group(1), m.group(2)
            value = np.pi
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
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be finite: {text!r}")
    return float(value)


def parse_variant(text: str) -> Variant:
    for variant in Variant:
        if variant.value == text.lower():
            return variant
    raise argparse.ArgumentTypeError(f"variant must be 'distinguishable' or 'identical', got {text!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def render_csv(doc: dict) -> str:
    """Fixed-column CSV; parameters and summary as '#' comment lines."""
    lines = [f"# schema_version={doc['schema_version']}", f"# command={doc['command']}"]
    for key, value in doc["parameters"].items():
        lines.append(f"# {key}={_fmt(value)}")
    for key, value in doc.get("summary", {}).items():
        lines.append(f"# {key}={_fmt(value)}")
    rows = doc["rows"]
    if rows:
        columns = list(rows[0])
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    return render_csv(doc)


def emit(args, rows: list, summary: dict | None = None) -> int:
    """Build the command's document from its parsed arguments and write it.

    The parameters are the command's own flags in parser order; a Variant
    is written by its value.
    """
    parameters = {
        key: value.value if isinstance(value, Variant) else value
        for key, value in vars(args).items()
        if key not in ("command", "format", "out", "func")
    }
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command, "parameters": parameters}
    if summary is not None:
        doc["summary"] = summary
    doc["rows"] = rows
    text = render(doc, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return 0


def cmd_probs(args) -> int:
    closed = closed_form_probs(args.theta, args.variant)
    fp = first_principles_probs(args.theta, args.variant)
    discrepancy = float(np.max(np.abs(closed.as_array() - fp.as_array())))
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
    rows = [
        {
            "theta_rad": theta,
            "p20": triple.p20,
            "p11": triple.p11,
            "p02": triple.p02,
            "sigma20_per_lambda2": sigma,
        }
        for theta, triple, sigma in sweep(args.theta_min, args.theta_max, args.steps, args.variant)
    ]
    return emit(args, rows)


def cmd_mc(args) -> int:
    counts, est = monte_carlo_probs(args.theta, args.variant, args.n, args.seed)
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
    rows = [
        {"bit_index": i, "sent": s, "decoded": d, "p20_hat": p}
        for i, (s, d, p) in enumerate(
            zip(report.sent_bits, report.decoded_bits, report.per_bit_estimates)
        )
    ]
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
    cfg = LoopConfig(u=args.u, beta=args.beta, L=args.L, ell=args.ell)
    return emit(args, [_loop_row(cfg)])


def cmd_causality_scan(args) -> int:
    rows = [{"u": u, "threshold_beta": violation_threshold(u, args.L)} for u in args.u]
    return emit(args, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stimamp",
        description="Single-atom amplifier statistics, EPR signaling, and causal-loop analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="write the document to PATH instead of stdout")

    p = sub.add_parser("probs", help="closed-form and oracle outcome probabilities at one angle")
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--variant", type=parse_variant, default=Variant.DISTINGUISHABLE)
    common(p)
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("sweep", help="probability table over an angle grid")
    p.add_argument("--theta-min", type=parse_angle, default=0.0)
    p.add_argument("--theta-max", type=parse_angle, default=np.pi / 2.0)
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
    p.add_argument("--theta-bit0", type=parse_angle, default=0.0)
    p.add_argument("--theta-bit1", type=parse_angle, default=np.pi / 4.0)
    p.add_argument("--variant", type=parse_variant, default=Variant.DISTINGUISHABLE)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("causality", help="trace the four-channel causal loop")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("-L", type=float, default=1.0)
    p.add_argument("--ell", type=float, default=0.0)
    common(p)
    p.set_defaults(func=cmd_causality)

    p = sub.add_parser("causality-scan", help="violation threshold beta for each channel speed u")
    p.add_argument("--u", type=float, nargs="+", required=True)
    p.add_argument("-L", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_causality_scan)

    return parser


def main(argv=None) -> int:
    """Parse, delegate, render; the library's ValueError is a usage error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
