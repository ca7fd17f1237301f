"""Seeded command cycles for the benchmark workloads, and their output checks.

A workload is a cycle of operations that the client repeats back to back.
The seed sets the angles, bit strings, channel speeds and Monte Carlo seeds;
the shape of a cycle (how many commands, of which size) is the same for
every seed, so call counts and latency mixes compare across seeds.

Every check recomputes what it compares against from the closed forms
below, independently of stimamp.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

VARIANTS = ("distinguishable", "identical")

# mc_bulk: one large run that sets peak RSS, then mid-size runs.
MC_SIZES = (4_000_000,) + (1_250_000,) * 15
# protocol_stream: bit strings of fixed length at a fixed pair budget.
PROTOCOL_COMMANDS = 16
PROTOCOL_BITS = 300
PAIRS_PER_BIT = 100
# audit_scan: oracle checks at single angles, threshold scans, one sweep.
AUDIT_PROBS = 120
AUDIT_SCANS = 80
AUDIT_U_PER_SCAN = 8
AUDIT_U_RANGE = (1.01, 1e6)
AUDIT_SWEEP_STEPS = 10001
AUDIT_LIFTS = 16

PROBS_TOL = 1e-9  # the CLI's own oracle-agreement limit
EXACT_TOL = 1e-12
THRESHOLD_TOL = 1e-9  # violation_threshold's documented bisection tolerance
MC_SIGMAS = 6.0

WARMUP = {
    "mc_bulk": ("mc", "--theta", "0.3", "-n", "1000", "--seed", "1"),
    "protocol_stream": ("protocol", "--bits", "01101001", "--pairs-per-bit", "100", "--seed", "1"),
    "audit_scan": ("probs", "--theta", "0.3"),
}


class CheckFailure(Exception):
    """A command's output disagrees with what the benchmark expects."""


@dataclass(frozen=True)
class Command:
    """One ``stimamp.cli.main(argv)`` call and the check on its document."""

    argv: tuple[str, ...]
    check: Callable[[str], dict]
    shots: int = 0
    bits: int = 0


@dataclass(frozen=True)
class LiftCheck:
    """Library check: ``symmetric_lift(rotation2(theta))`` against ``two_photon_rotation(theta)``."""

    theta: float


def closed_form(theta: float, variant: str) -> tuple[float, float, float]:
    c2 = math.cos(2.0 * theta) ** 2
    s2 = math.sin(2.0 * theta) ** 2
    if variant == "distinguishable":
        return ((1.0 + c2) / 3.0, 1.0 / 3.0, s2 / 3.0)
    return (2.0 * c2 / 3.0, 1.0 / 3.0, 2.0 * s2 / 3.0)


def sigma20(theta: float) -> float:
    return 0.5 * (1.0 + math.cos(2.0 * theta) ** 2)


def threshold(u: float) -> float:
    return 2.0 * u / (1.0 + u * u)


def _close(what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailure(f"{what}: got {got!r}, expected {want!r} within {tol}")


def _json_doc(text: str, command: str) -> dict:
    doc = json.loads(text)
    if doc.get("command") != command:
        raise CheckFailure(f"expected a {command} document, got {doc.get('command')!r}")
    return doc


def _csv_doc(text: str, command: str) -> tuple[dict, list[dict]]:
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    if meta.get("command") != command:
        raise CheckFailure(f"expected a {command} document, got {meta.get('command')!r}")
    header = body[0].split(",")
    return meta, [dict(zip(header, line.split(","))) for line in body[1:]]


def check_probs(theta: float, variant: str, text: str) -> dict:
    (row,) = _json_doc(text, "probs")["rows"]
    _close("max_discrepancy", row["max_discrepancy"], 0.0, PROBS_TOL)
    for key, p in zip(("p20", "p11", "p02"), closed_form(theta, variant)):
        _close(key, row[key], p, EXACT_TOL)
        _close(f"{key}_oracle", row[f"{key}_oracle"], p, PROBS_TOL)
    _close("sigma20_per_lambda2", row["sigma20_per_lambda2"], sigma20(theta), EXACT_TOL)
    return {}


def check_mc(theta: float, variant: str, n: int, text: str) -> dict:
    (row,) = _json_doc(text, "mc")["rows"]
    counts = (row["n20"], row["n11"], row["n02"])
    if sum(counts) != n or row["total"] != n:
        raise CheckFailure(f"counts {counts} do not sum to n={n}")
    for key, count, p in zip(("p20", "p11", "p02"), counts, closed_form(theta, variant)):
        _close(f"{key}_hat", row[f"{key}_hat"], count / n, 0.0)
        # Lattice slack 1/n keeps the bound meaningful where p(1-p) is ~0.
        _close(f"{key}_hat vs closed form", count / n, p, MC_SIGMAS * math.sqrt(p * (1.0 - p) / n) + 1.0 / n)
    return {}


def _binomial_error_prob(p_true: float, decode_wrong: Callable[[float], bool], n: int) -> float:
    return sum(math.comb(n, k) * p_true**k * (1.0 - p_true) ** (n - k) for k in range(n + 1) if decode_wrong(k / n))


def check_protocol(bits: str, variant: str, text: str) -> dict:
    doc = _json_doc(text, "protocol")
    rows, summary = doc["rows"], doc["summary"]
    # The decoder thresholds at the midpoint of the symbols' closed forms; the
    # commands use the CLI's default symbol angles, 0 and pi/4.
    p0, p1 = summary["p_paper_bit0"], summary["p_paper_bit1"]
    _close("p_paper_bit0", p0, closed_form(0.0, variant)[0], EXACT_TOL)
    _close("p_paper_bit1", p1, closed_form(math.pi / 4.0, variant)[0], EXACT_TOL)
    midpoint = 0.5 * (p0 + p1)

    def decode(est: float) -> int:
        return 0 if est == midpoint else int(abs(est - p1) < abs(est - p0))

    if len(rows) != len(bits):
        raise CheckFailure(f"{len(rows)} rows for {len(bits)} bits")
    errors = 0
    for i, (row, bit) in enumerate(zip(rows, bits)):
        count = row["p20_hat"] * PAIRS_PER_BIT
        if row["bit_index"] != i or row["sent"] != int(bit) or abs(count - round(count)) > 1e-6:
            raise CheckFailure(f"row {i} is malformed: {row}")
        if row["decoded"] != decode(row["p20_hat"]):
            raise CheckFailure(f"row {i} decoded against the threshold rule: {row}")
        errors += row["decoded"] != row["sent"]
    _close("error_rate", summary["error_rate"], errors / len(bits), 0.0)
    wrong = {0: _binomial_error_prob(p0, lambda e: decode(e) == 1, PAIRS_PER_BIT),
             1: _binomial_error_prob(p1, lambda e: decode(e) == 0, PAIRS_PER_BIT)}
    per_bit = [wrong[int(b)] for b in bits]
    mean = sum(per_bit)
    spread = MC_SIGMAS * math.sqrt(sum(q * (1.0 - q) for q in per_bit)) + 1.0
    _close("bit errors vs binomial prediction", errors, mean, spread)
    return {}


def check_scan(us: tuple[float, ...], text: str) -> dict:
    _, rows = _csv_doc(text, "causality-scan")
    if len(rows) != len(us):
        raise CheckFailure(f"{len(rows)} rows for {len(us)} speeds")
    worst = 0.0
    for u, row in zip(us, rows):
        _close("u", float(row["u"]), u, 0.0)
        if row["threshold_beta"] == "":
            raise CheckFailure(f"no threshold at u={u!r}")
        got, want = float(row["threshold_beta"]), threshold(u)
        _close(f"threshold at u={u!r}", got, want, THRESHOLD_TOL)
        worst = max(worst, abs(got - want) / want)
    return {"threshold_rel_err": worst}


def check_sweep(theta_min: float, theta_max: float, steps: int, variant: str, text: str) -> dict:
    meta, rows = _csv_doc(text, "sweep")
    if meta.get("steps") != str(steps) or len(rows) != steps:
        raise CheckFailure(f"{len(rows)} rows for steps={steps}")
    width = (theta_max - theta_min) / (steps - 1)
    for i, row in enumerate(rows):
        theta = float(row["theta_rad"])
        _close(f"theta[{i}]", theta, theta_min + i * width, EXACT_TOL)
        for key, p in zip(("p20", "p11", "p02"), closed_form(theta, variant)):
            _close(f"{key}[{i}]", float(row[key]), p, EXACT_TOL)
        _close(f"sigma20[{i}]", float(row["sigma20_per_lambda2"]), sigma20(theta), EXACT_TOL)
    _close("theta_max", float(rows[-1]["theta_rad"]), theta_max, 0.0)
    return {}


def _mc_bulk(rng: random.Random) -> list:
    ops = []
    for i, n in enumerate(MC_SIZES):
        theta, variant, seed = rng.uniform(0.0, math.pi), VARIANTS[i % 2], rng.randrange(2**32)
        argv = ("mc", "--theta", repr(theta), "--variant", variant, "-n", str(n), "--seed", str(seed))
        ops.append(Command(argv, partial(check_mc, theta, variant, n), shots=n))
    return ops


def _protocol_stream(rng: random.Random) -> list:
    ops = []
    for i in range(PROTOCOL_COMMANDS):
        bits = "".join(rng.choice("01") for _ in range(PROTOCOL_BITS))
        variant, seed = VARIANTS[i % 2], rng.randrange(2**32)
        argv = ("protocol", "--bits", bits, "--pairs-per-bit", str(PAIRS_PER_BIT),
                "--variant", variant, "--seed", str(seed))
        ops.append(Command(argv, partial(check_protocol, bits, variant),
                           shots=PROTOCOL_BITS * PAIRS_PER_BIT, bits=PROTOCOL_BITS))
    return ops


def _audit_scan(rng: random.Random) -> list:
    ops = []
    for i in range(AUDIT_PROBS):
        theta, variant = rng.uniform(0.0, math.pi), VARIANTS[i % 2]
        ops.append(Command(("probs", "--theta", repr(theta), "--variant", variant),
                           partial(check_probs, theta, variant)))
    lo, hi = (math.log(x) for x in AUDIT_U_RANGE)
    for _ in range(AUDIT_SCANS):
        us = tuple(math.exp(rng.uniform(lo, hi)) for _ in range(AUDIT_U_PER_SCAN))
        ops.append(Command(("causality-scan", "--u", *map(repr, us), "--format", "csv"),
                           partial(check_scan, us)))
    theta_min = rng.uniform(0.0, math.pi / 2.0)
    theta_max = theta_min + math.pi / 2.0
    variant = rng.choice(VARIANTS)
    ops.append(Command(("sweep", "--theta-min", repr(theta_min), "--theta-max", repr(theta_max),
                        "--steps", str(AUDIT_SWEEP_STEPS), "--variant", variant, "--format", "csv"),
                       partial(check_sweep, theta_min, theta_max, AUDIT_SWEEP_STEPS, variant)))
    ops.extend(LiftCheck(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(AUDIT_LIFTS))
    rng.shuffle(ops)
    return ops


GENERATORS = {"mc_bulk": _mc_bulk, "protocol_stream": _protocol_stream, "audit_scan": _audit_scan}


def cycle(workload: str, seed: int) -> list:
    """The workload's operations for ``seed``; the same seed gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
