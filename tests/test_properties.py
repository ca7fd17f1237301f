"""Property-based tests over the full input domains (Hypothesis).

Derandomized and without an example database, so every run draws the
same examples and the suite stays deterministic.
"""

import contextlib
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stimamp.amplifier import Variant
from stimamp.cli import main
from stimamp.fock import ATOL_EXACT
from stimamp.statistics import closed_form_probs, first_principles_probs

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

ANGLE_LIMIT = 2.0**20
angles = st.floats(-ANGLE_LIMIT, ANGLE_LIMIT)
variants = st.sampled_from(Variant)


@DETERMINISTIC
@given(angles, variants)
def test_closed_form_is_a_triple_that_matches_the_oracle(theta, variant):
    closed = closed_form_probs(theta, variant).as_array()
    assert closed.min() > -ATOL_EXACT
    assert abs(closed.sum() - 1.0) < 1e-9
    oracle = first_principles_probs(theta, variant).as_array()
    assert np.max(np.abs(closed - oracle)) <= 1e-9


@DETERMINISTIC
@given(angles, variants)
def test_closed_form_has_period_pi(theta, variant):
    shifted = theta - math.copysign(math.pi, theta)  # stays inside the domain
    a = closed_form_probs(theta, variant).as_array()
    b = closed_form_probs(shifted, variant).as_array()
    assert np.max(np.abs(a - b)) <= 1e-9


@DETERMINISTIC
@given(st.floats(allow_nan=True).filter(lambda t: not abs(t) <= ANGLE_LIMIT), variants)
def test_angles_beyond_the_domain_are_rejected(theta, variant):
    try:
        closed_form_probs(theta, variant)
    except ValueError as exc:
        assert "theta must satisfy" in str(exc)
    else:
        raise AssertionError(f"accepted theta={theta!r}")


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


@DETERMINISTIC
@given(angle_texts)
def test_probs_never_ends_in_a_traceback(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["probs", f"--theta={text}"])
        except SystemExit as exc:  # argparse rejects the literal itself
            code = exc.code
    assert code in (0, 2), err.getvalue()
    assert (out.getvalue() == "") == (code == 2)
