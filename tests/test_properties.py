"""Property-based tests over the full input domains (Hypothesis)."""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from runs import run_main

from stimamp.closed_form import ATOL_EXACT, Variant, closed_form_probs, sweep
from stimamp.kinematics import violation_threshold
from stimamp.protocol import ProtocolConfig, reduced_density
from stimamp.statistics import first_principles_probs

ANGLE_LIMIT = 2.0**20
angles = st.floats(-ANGLE_LIMIT, ANGLE_LIMIT)
variants = st.sampled_from(Variant)


def test_the_deterministic_profile_is_loaded():
    assert (settings.default.derandomize, settings.default.database, settings.default.deadline) == (True, None, None)


@given(angles, variants)
def test_closed_form_is_a_triple_that_matches_the_oracle(theta, variant):
    closed = astuple(closed_form_probs(theta, variant))
    assert min(closed) > -ATOL_EXACT
    assert abs(sum(closed) - 1.0) < 1e-9
    oracle = astuple(first_principles_probs(theta, variant))
    assert np.max(np.abs(np.subtract(closed, oracle))) <= 1e-9


@given(angles, variants)
def test_closed_form_has_period_pi(theta, variant):
    shifted = theta - math.copysign(math.pi, theta)  # stays inside the domain
    a = astuple(closed_form_probs(theta, variant))
    b = astuple(closed_form_probs(shifted, variant))
    assert np.max(np.abs(np.subtract(a, b))) <= 1e-9


@given(angles)
def test_reduced_density_is_maximally_mixed(theta):
    # The rounding of theta + pi/2 puts large |theta| up to ~3e-11 off I/2.
    assert np.max(np.abs(reduced_density(theta) - np.eye(2) / 2)) <= 1e-10


@given(st.floats(allow_nan=True).filter(lambda t: not abs(t) <= ANGLE_LIMIT), variants)
def test_angles_beyond_the_domain_are_rejected(theta, variant):
    try:
        closed_form_probs(theta, variant)
    except ValueError as exc:
        assert "theta must satisfy" in str(exc)
    else:
        raise AssertionError(f"accepted theta={theta!r}")


@given(st.floats(-1e4, 1e4), st.integers(-3, 3), st.booleans(), variants)
def test_protocol_rejects_shifted_and_mirrored_symbols(theta, k, mirror, variant):
    # theta + k pi/2 and -theta + k pi/2 have theta's |2,0> probability.
    other = (-theta if mirror else theta) + k * math.pi / 2.0
    with pytest.raises(ValueError, match=r"same \|2,0> probability"):
        ProtocolConfig(1, theta, other, variant)


# Tiny ends too, and multiples of the smallest subnormal, so that some
# spans are subnormal and step underflows to 0.
grid_ends = st.one_of(angles, st.floats(-1e-300, 1e-300), st.integers(-1000, 1000).map(lambda k: k * 5e-324))


@given(grid_ends, grid_ends, st.integers(2, 300))
@example(0.0, 3 * 5e-324, 100)  # step = delta / 99 underflows to 0
def test_sweep_grid_is_linspace_bit_for_bit(a, b, steps):
    assume(a != b)
    lo, hi = min(a, b), max(a, b)
    grid = [theta.hex() for theta, *_ in sweep(lo, hi, steps, Variant.DISTINGUISHABLE)]
    assert grid == [float(theta).hex() for theta in np.linspace(lo, hi, steps)]


angle_texts = st.one_of(
    st.text(),
    st.floats().map(repr),
    st.builds(
        "{}{}pi/{}".format,
        st.sampled_from(["", "-", "+"]),
        st.one_of(st.just(""), st.integers(0, 10**400).map(str)),
        st.integers(0, 64),
    ),
)


@given(angle_texts)
def test_probs_never_ends_in_a_traceback(text):
    code, out, err = run_main(["probs", f"--theta={text}"])
    assert code in (0, 2), err
    assert (out == "") == (code == 2)


@given(st.floats(1.01, 1e6))
def test_violation_threshold_matches_the_closed_form(u):
    assert abs(violation_threshold(u) - 2.0 / (u + 1.0 / u)) <= 1e-9


def assert_document_or_clean_usage_error(argv):
    # sweep computes its rows as CSV writes them, and causality-scan's rows
    # must stay a list: a usage error raised after the first write would
    # leave a partial document on stdout.
    code, out, _ = run_main(argv)
    assert code in (0, 2), argv
    assert (out == "") == (code == 2), argv
    return code, out


# Every double, folded into |x| < 2^21 (twice the angle domain) when finite.
sweep_ends = st.floats().map(lambda x: math.fmod(x, 2.0**21) if math.isfinite(x) else x)
speeds = st.one_of(st.floats(1e-300, 1e308), st.sampled_from([0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf]))
formats = st.sampled_from(["csv", "json"])


@given(sweep_ends, sweep_ends, st.integers(-3, 200), formats)
def test_sweep_flags_give_a_document_or_a_usage_error(a, b, steps, fmt):
    for lo, hi in ((min(a, b), max(a, b)), (b, a)):
        assert_document_or_clean_usage_error(
            ["sweep", f"--theta-min={lo!r}", f"--theta-max={hi!r}", f"--steps={steps}", f"--format={fmt}"]
        )


@given(
    st.lists(speeds, min_size=1, max_size=3),
    st.one_of(st.floats(1e-300, 1.7e308), st.sampled_from([0.0, -1.0, math.nan, math.inf])),
    formats,
)
def test_causality_scan_flags_give_a_document_or_a_usage_error(us, L, fmt):
    def scan(length):
        return ["causality-scan", "--u", *map(repr, us), f"-L={length}", f"--format={fmt}"]

    def rows(out):  # the document but for its L parameter line
        return [line for line in out.splitlines() if not line.lstrip().startswith(("# L=", '"L": '))]

    code, out = assert_document_or_clean_usage_error(scan(repr(L)))
    if code == 0:  # -L only labels the document
        unit_code, unit_out, _ = run_main(scan("1"))
        assert unit_code == 0 and rows(unit_out) == rows(out), us


# Every double, nan and +-inf included, or one from each flag's valid range,
# so that documents, not only usage errors, are checked.
doubles = st.floats()
magnitudes = st.one_of(doubles, st.floats(0.0, 1.7e308))


def no_constant(name):
    raise AssertionError(f"{name} in a JSON document")


@settings(max_examples=300)
@given(magnitudes, st.one_of(doubles, st.floats(0.0, 1.0, exclude_max=True)), magnitudes, magnitudes)
def test_causality_flags_give_a_consistent_document_or_a_usage_error(u, beta, L, ell):
    argv = ["causality", f"--u={u!r}", f"--beta={beta!r}", f"-L={L!r}", f"--ell={ell!r}"]
    code, out = assert_document_or_clean_usage_error(argv)
    if code == 0:
        (row,) = json.loads(out, parse_constant=no_constant)["rows"]  # no NaN or Infinity
        assert row["violated"] == (row["delta_t"] < 0), argv


# A flag's value as text: one from valid, or one time in four any double or
# any of ints, nan, +-inf and negatives included.
def literals(valid, ints=st.integers()):
    wild = st.one_of(doubles, ints)
    return st.integers(0, 3).flatmap(lambda k: valid if k else wild).map(str)


flag_angles = literals(angles)
flag_variants = literals(st.sampled_from(["distinguishable", "identical", "IDENTICAL"]))
flag_seeds = literals(st.integers(0, 2**64))


def shot_counts(limit):
    """-n or --pairs-per-bit: at most limit shots, so the runs stay fast."""
    return literals(st.integers(1, limit), st.integers(max_value=limit))


@settings(max_examples=300)
@given(flag_angles, shot_counts(2000), flag_seeds, flag_variants)
def test_mc_flags_give_a_consistent_document_or_a_usage_error(theta, n, seed, variant):
    argv = ["mc", f"--theta={theta}", f"-n={n}", f"--seed={seed}", f"--variant={variant}"]
    code, out = assert_document_or_clean_usage_error(argv)
    if code == 0:
        doc = json.loads(out, parse_constant=no_constant)
        (row,) = doc["rows"]
        assert row["n20"] + row["n11"] + row["n02"] == row["total"] == doc["parameters"]["n"], argv


@st.composite
def protocol_argvs(draw):
    bits = draw(literals(st.text("01", min_size=1, max_size=10)) | st.text(max_size=4))
    pairs = draw(shot_counts(2000 // max(1, len(bits))))  # at most 2000 pairs in all
    argv = ["protocol", f"--bits={bits}", f"--pairs-per-bit={pairs}"]
    for flag, values in (
        ("--theta-bit0", flag_angles),
        ("--theta-bit1", flag_angles),
        ("--variant", flag_variants),
        ("--seed", flag_seeds),
    ):
        value = draw(st.none() | values)  # None leaves the flag at its default
        argv += [] if value is None else [f"{flag}={value}"]
    return argv


@settings(max_examples=300)
@given(protocol_argvs())
def test_protocol_flags_give_a_consistent_document_or_a_usage_error(argv):
    code, out = assert_document_or_clean_usage_error(argv)
    if code == 0:
        doc = json.loads(out, parse_constant=no_constant)
        assert "".join(str(row["sent"]) for row in doc["rows"]) == doc["parameters"]["bits"], argv
