"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import subprocess
import sys

import numpy as np

from stimamp.amplifier import Variant
from stimamp.fock import rotation2, symmetric_lift, two_photon_rotation
from stimamp.kinematics import Event, LoopConfig, boost, run_loop, violation_threshold
from stimamp.protocol import ProtocolConfig, linearity_gap, reduced_density, transmit
from stimamp.statistics import closed_form_probs, differential_sigma_20, first_principles_probs, monte_carlo_probs

RNG = np.random.default_rng(42)


def report(number: int, description: str, ok: bool):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_closed_form_reproduction():
    expected = {
        Variant.DISTINGUISHABLE: {
            0.0: (2 / 3, 1 / 3, 0.0),
            np.pi / 8: (1 / 2, 1 / 3, 1 / 6),
            np.pi / 4: (1 / 3, 1 / 3, 1 / 3),
            3 * np.pi / 8: (1 / 2, 1 / 3, 1 / 6),
            np.pi / 2: (2 / 3, 1 / 3, 0.0),
        },
        Variant.IDENTICAL: {
            0.0: (2 / 3, 1 / 3, 0.0),
            np.pi / 8: (1 / 3, 1 / 3, 1 / 3),
            np.pi / 4: (0.0, 1 / 3, 2 / 3),
            3 * np.pi / 8: (1 / 3, 1 / 3, 1 / 3),
            np.pi / 2: (2 / 3, 1 / 3, 0.0),
        },
    }
    ok = True
    for variant, table in expected.items():
        for theta, values in table.items():
            got = closed_form_probs(theta, variant).as_array()
            ok &= bool(np.max(np.abs(got - np.array(values))) < 1e-12)
    report(1, "closed forms at the five reference angles, both variants, 1e-12", ok)


def test_criterion_2_oracle_equivalence():
    ok = True
    for theta in RNG.uniform(-2 * np.pi, 2 * np.pi, 1000):
        for variant in Variant:
            gap = np.abs(
                first_principles_probs(theta, variant).as_array()
                - closed_form_probs(theta, variant).as_array()
            )
            ok &= bool(np.max(gap) < 1e-12)
        p20 = closed_form_probs(theta, Variant.DISTINGUISHABLE).p20
        ok &= abs(p20 - differential_sigma_20(theta) / 1.5) < 1e-12
    report(2, "projection oracle equals closed forms; differential rate consistent", ok)


def test_criterion_3_algebra_properties():
    ok = True
    for theta in RNG.uniform(-10, 10, 1000):
        u = two_photon_rotation(theta)
        ok &= bool(np.max(np.abs(u.T @ u - np.eye(3))) < 1e-12)
        ok &= bool(np.max(np.abs(u - two_photon_rotation(theta + np.pi))) < 1e-12)
        ok &= bool(np.max(np.abs(symmetric_lift(rotation2(theta)) - u)) < 1e-12)
    for a, b in RNG.uniform(-5, 5, (1000, 2)):
        prod = two_photon_rotation(a) @ two_photon_rotation(b)
        ok &= bool(np.max(np.abs(prod - two_photon_rotation(a + b))) < 1e-12)
    report(3, "orthogonality, homomorphism, periodicity, tensor-square oracle, 1e-12", ok)


def test_criterion_4_monte_carlo_convergence():
    ok = True
    for theta in (0.0, np.pi / 8, np.pi / 4):
        for variant in Variant:
            counts = monte_carlo_probs(theta, variant, 10**6, 2026)
            again = monte_carlo_probs(theta, variant, 10**6, 2026)
            est = counts.estimates()
            ok &= counts == again
            ref = closed_form_probs(theta, variant).as_array()
            ok &= bool(np.max(np.abs(est.as_array() - ref)) < 3e-3)
    report(4, "n=1e6 Monte Carlo within 3e-3 of closed forms; seeded determinism", ok)


def test_criterion_5_protocol_behavior():
    ok = True
    bits = list(np.random.default_rng(5).integers(0, 2, 100))
    for seed in range(5):
        cfg = ProtocolConfig(pairs_per_bit=10**4, seed=seed)
        ok &= transmit(cfg, bits).error_rate == 0.0
    worst = max(
        np.max(np.abs(reduced_density(theta) - np.eye(2) / 2))
        for theta in RNG.uniform(-5, 5, 1000)
    )
    ok &= bool(worst < 1e-12)
    ok &= abs(linearity_gap(np.pi / 4, Variant.DISTINGUISHABLE).gap + 1 / 3) < 1e-12
    ok &= abs(linearity_gap(np.pi / 4, Variant.IDENTICAL).gap + 2 / 3) < 1e-12
    report(5, "zero decode errors over 5 seeds; reduced density I/2; linearity gaps", ok)


def test_criterion_6_causality_kinematics():
    ok = True
    for _ in range(1000):
        e = Event(*RNG.normal(size=2) * 5)
        beta = RNG.uniform(-0.95, 0.95)
        b = boost(e, beta)
        ok &= abs((b.t**2 - b.x**2) - (e.t**2 - e.x**2)) < 1e-12
    for u in (1.5, 2.0, 5.0, 10.0):
        ok &= abs(violation_threshold(u) - 2 * u / (1 + u * u)) < 1e-6
    for beta in (0.0, 0.5, 0.99):
        ok &= not run_loop(LoopConfig(u=1.0, beta=beta)).violated
    single = run_loop(LoopConfig(u=3.0, beta=0.4, L=1.0)).delta_t
    double = run_loop(LoopConfig(u=3.0, beta=0.4, L=2.0)).delta_t
    ok &= abs(double - 2 * single) < 1e-12
    report(6, "interval invariance; threshold 2u/(1+u^2); u=1 safe; delta_t linear in L", ok)


def test_criterion_7_cli_determinism():
    ok = True
    for args in (
        ("probs", "--theta", "pi/8", "--variant", "identical", "--format", "json"),
        ("sweep", "--steps", "9", "--format", "csv"),
        ("mc", "--theta", "pi/4", "-n", "100000", "--seed", "3", "--format", "json"),
        ("protocol", "--bits", "0110", "--pairs-per-bit", "1000", "--seed", "1", "--format", "csv"),
        ("causality", "--u", "2", "--beta", "0.9", "--format", "json"),
        ("causality-scan", "--u", "1.5", "2", "5", "--format", "csv"),
    ):
        cmd = [sys.executable, "-m", "stimamp", *args]
        first = subprocess.run(cmd, capture_output=True).stdout
        second = subprocess.run(cmd, capture_output=True).stdout
        ok &= len(first) > 0 and first == second
    if ok:
        doc = json.loads(
            subprocess.run(
                [sys.executable, "-m", "stimamp", "probs", "--theta", "0"], capture_output=True
            ).stdout
        )
        ok &= doc["schema_version"] == "1"
    report(7, "byte-identical re-runs for every command", ok)
