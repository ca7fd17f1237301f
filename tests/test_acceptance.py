"""Acceptance suite: one test per criterion, each printing a pass/fail line.
A failed criterion names its failed sub-checks with their inputs.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
from dataclasses import astuple

import numpy as np
from runs import run_python

from stimamp.closed_form import Variant, closed_form_probs, differential_sigma_20
from stimamp.fock import rotation2, symmetric_lift, two_photon_rotation
from stimamp.kinematics import Event, LoopConfig, boost, run_loop, violation_threshold
from stimamp.protocol import ProtocolConfig, linearity_gap, reduced_density, transmit
from stimamp.statistics import first_principles_probs, monte_carlo_probs

RNG = np.random.default_rng(42)


def check(failures: list, ok, *inputs):
    if not ok:
        failures.append(inputs)


def within(failures: list, gap, tol: float, *inputs):  # a failure records the gap after the inputs
    check(failures, gap < tol, *inputs, gap)


def report(number: int, description: str, failures: list):
    print(f"\nACCEPTANCE {number}: {'FAIL' if failures else 'PASS'} - {description}")
    assert not failures, f"criterion {number} failed: {description}; {len(failures)} failed, first 10: {failures[:10]}"


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
    failures = []
    for variant, table in expected.items():
        for theta, values in table.items():
            got = astuple(closed_form_probs(theta, variant))
            within(failures, np.max(np.abs(np.subtract(got, values))), 1e-12, "closed form", theta, variant)
    report(1, "closed forms at the five reference angles, both variants, 1e-12", failures)


def test_criterion_2_oracle_equivalence():
    failures = []
    for theta in RNG.uniform(-2 * np.pi, 2 * np.pi, 1000):
        for variant in Variant:
            oracle, closed = astuple(first_principles_probs(theta, variant)), astuple(closed_form_probs(theta, variant))
            within(failures, np.max(np.abs(np.subtract(oracle, closed))), 1e-12, "oracle", theta, variant)
        p20 = closed_form_probs(theta, Variant.DISTINGUISHABLE).p20
        within(failures, abs(p20 - differential_sigma_20(theta) / 1.5), 1e-12, "differential rate", theta)
    report(2, "projection oracle equals closed forms; differential rate consistent", failures)


def test_criterion_3_algebra_properties():
    failures = []
    for theta in RNG.uniform(-10, 10, 1000):
        u = two_photon_rotation(theta)
        within(failures, np.max(np.abs(u.T @ u - np.eye(3))), 1e-12, "orthogonality", theta)
        within(failures, np.max(np.abs(u - two_photon_rotation(theta + np.pi))), 1e-12, "periodicity", theta)
        within(failures, np.max(np.abs(symmetric_lift(rotation2(theta)) - u)), 1e-12, "tensor square", theta)
    for a, b in RNG.uniform(-5, 5, (1000, 2)):
        prod = two_photon_rotation(a) @ two_photon_rotation(b)
        within(failures, np.max(np.abs(prod - two_photon_rotation(a + b))), 1e-12, "homomorphism", a, b)
    report(3, "orthogonality, homomorphism, periodicity, tensor-square oracle, 1e-12", failures)


def test_criterion_4_monte_carlo_convergence():
    failures = []
    for theta in (0.0, np.pi / 8, np.pi / 4):
        for variant in Variant:
            counts = monte_carlo_probs(theta, variant, 10**6, 2026)
            again = monte_carlo_probs(theta, variant, 10**6, 2026)
            est = counts.estimates()
            check(failures, counts == again, "seeded determinism", theta, variant, counts, again)
            ref = astuple(closed_form_probs(theta, variant))
            within(failures, np.max(np.abs(np.subtract(astuple(est), ref))), 3e-3, "convergence", theta, variant)
    report(4, "n=1e6 Monte Carlo within 3e-3 of closed forms; seeded determinism", failures)


def test_criterion_5_protocol_behavior():
    failures = []
    bits = list(np.random.default_rng(5).integers(0, 2, 100))
    for seed in range(5):
        cfg = ProtocolConfig(pairs_per_bit=10**4, seed=seed)
        error_rate = transmit(cfg, bits).error_rate
        check(failures, error_rate == 0.0, "decode errors", seed, error_rate)
    for theta in RNG.uniform(-5, 5, 1000):
        within(failures, np.max(np.abs(reduced_density(theta) - np.eye(2) / 2)), 1e-12, "reduced density", theta)
    for variant, expected in ((Variant.DISTINGUISHABLE, -1 / 3), (Variant.IDENTICAL, -2 / 3)):
        within(failures, abs(linearity_gap(np.pi / 4, variant).gap - expected), 1e-12, "linearity gap", variant)
    report(5, "zero decode errors over 5 seeds; reduced density I/2; linearity gaps", failures)


def test_criterion_6_causality_kinematics():
    failures = []
    for _ in range(1000):
        e = Event(*RNG.normal(size=2) * 5)
        beta = RNG.uniform(-0.95, 0.95)
        b = boost(e, beta)
        within(failures, abs((b.t**2 - b.x**2) - (e.t**2 - e.x**2)), 1e-12, "interval", e, beta)
    for u in (1.5, 2.0, 5.0, 10.0):
        within(failures, abs(violation_threshold(u) - 2 * u / (1 + u * u)), 1e-6, "threshold", u)
    for beta in (0.0, 0.5, 0.99):
        check(failures, not run_loop(LoopConfig(u=1.0, beta=beta)).violated, "u=1 violated", beta)
    single = run_loop(LoopConfig(u=3.0, beta=0.4, L=1.0)).delta_t
    double = run_loop(LoopConfig(u=3.0, beta=0.4, L=2.0)).delta_t
    within(failures, abs(double - 2 * single), 1e-12, "linear in L", single, double)
    report(6, "interval invariance; threshold 2u/(1+u^2); u=1 safe; delta_t linear in L", failures)


def test_criterion_7_cli_determinism():
    failures = []
    for args in (
        ("probs", "--theta", "pi/8", "--variant", "identical", "--format", "json"),
        ("sweep", "--steps", "9", "--format", "csv"),
        ("mc", "--theta", "pi/4", "-n", "100000", "--seed", "3", "--format", "json"),
        ("protocol", "--bits", "0110", "--pairs-per-bit", "1000", "--seed", "1", "--format", "csv"),
        ("causality", "--u", "2", "--beta", "0.9", "--format", "json"),
        ("causality-scan", "--u", "1.5", "2", "5", "--format", "csv"),
    ):
        first = run_python("-m", "stimamp", *args).stdout
        second = run_python("-m", "stimamp", *args).stdout
        check(failures, len(first) > 0 and first == second, "re-run", args, len(first), len(second))
    if not failures:
        doc = json.loads(run_python("-m", "stimamp", "probs", "--theta", "0").stdout)
        check(failures, doc["schema_version"] == "1", "schema version", doc["schema_version"])
    report(7, "byte-identical re-runs for every command", failures)
