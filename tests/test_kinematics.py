"""Kinematics tests.

`threshold_bits.json` pins `violation_threshold` and `run_loop` bit for
bit.  Re-record it only after a deliberate change to the loop arithmetic,
from the root of a checkout:

    PYTHONPATH=src python tests/test_kinematics.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stimamp import kinematics
from stimamp.kinematics import Event, LoopConfig, boost, run_loop, violation_threshold

RNG = np.random.default_rng(99)
BITS_PATH = Path(__file__).with_name("threshold_bits.json")
# The reports and the thresholds date from a bisection that ran the whole
# run_loop at every step.
BITS = json.loads(BITS_PATH.read_text())
RECORDED_SPEEDS = [float.fromhex(h) for h in BITS["u"]]
# Python ints with no double: a bound of inf let them through to float(), which raised OverflowError.
BEYOND_DOUBLES = [pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")]


def threshold_record(u):
    """violation_threshold(u) as float.hex, None or the error text."""
    try:
        beta = violation_threshold(u)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return None if beta is None else beta.hex()


def loop_record(u, beta, L, ell):
    """repr of run_loop's report (repr round-trips every float), or the error text."""
    try:
        return repr(run_loop(LoopConfig(u=u, beta=beta, L=L, ell=ell)))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestBoost:
    def test_zero_beta_identity(self):
        e = Event(1.5, -2.0)
        out = boost(e, 0.0)
        assert (out.t, out.x) == (1.5, -2.0)

    def test_known_value(self):
        out = boost(Event(1.0, 0.0), 0.6)
        assert out.t == pytest.approx(1.25, abs=1e-12)
        assert out.x == pytest.approx(-0.75, abs=1e-12)

    def test_inverse(self):
        for _ in range(200):
            e = Event(*RNG.normal(size=2) * 10)
            beta = RNG.uniform(-0.99, 0.99)
            back = boost(boost(e, beta), -beta)
            assert back.t == pytest.approx(e.t, abs=1e-12)
            assert back.x == pytest.approx(e.x, abs=1e-12)

    def test_interval_invariance_1000_random(self):
        for _ in range(1000):
            e = Event(*RNG.normal(size=2) * 5)
            beta = RNG.uniform(-0.95, 0.95)
            b = boost(e, beta)
            assert b.t**2 - b.x**2 == pytest.approx(e.t**2 - e.x**2, abs=1e-12)

    @pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, float("inf"), float("nan")])
    def test_rejects_superluminal_frame(self, beta):
        with pytest.raises(ValueError):
            boost(Event(1.0, 2.0), beta)


class TestRunLoop:
    def test_light_speed_channels_never_violate(self):
        for beta in (0.0, 0.3, 0.9, 0.999):
            report = run_loop(LoopConfig(u=1.0, beta=beta, L=1.0))
            assert report.delta_t == pytest.approx(2.0, abs=1e-9)
            assert not report.violated

    def test_violation_above_threshold(self):
        assert run_loop(LoopConfig(u=2.0, beta=0.9)).violated

    def test_float32_fields_are_read_as_doubles(self):
        # A float32 u and beta kept the loop's arithmetic in float32, moving delta_t by ~1e-7 relative.
        u, beta = np.float32(3.0), np.float32(0.7)
        cfg = LoopConfig(u=u, beta=beta, L=np.float32(1.5), ell=np.float32(0.25))
        assert all(type(getattr(cfg, name)) is float for name in ("u", "beta", "L", "ell"))
        assert run_loop(cfg) == run_loop(LoopConfig(u=3.0, beta=float(beta), L=1.5, ell=0.25))

    def test_no_violation_below_threshold(self):
        assert not run_loop(LoopConfig(u=2.0, beta=0.5)).violated

    def test_closed_form_delta_t(self):
        # L/u + L(1 - beta*u)/(u - beta) with ell = 0
        for _ in range(200):
            u = RNG.uniform(1.0, 10.0)
            beta = RNG.uniform(0.0, 0.999)
            L = RNG.uniform(0.1, 10.0)
            expected = L / u + L * (1 - beta * u) / (u - beta)
            assert run_loop(LoopConfig(u=u, beta=beta, L=L)).delta_t == pytest.approx(
                expected, abs=1e-9
            )

    def test_delta_t_linear_in_length(self):
        base = run_loop(LoopConfig(u=3.0, beta=0.4, L=1.0)).delta_t
        doubled = run_loop(LoopConfig(u=3.0, beta=0.4, L=2.0)).delta_t
        assert doubled == pytest.approx(2 * base, abs=1e-12)

    def test_monotone_decreasing_in_beta(self):
        betas = np.linspace(0.01, 0.99, 50)
        dts = [run_loop(LoopConfig(u=2.0, beta=b)).delta_t for b in betas]
        assert all(a > b for a, b in zip(dts, dts[1:]))

    def test_light_legs_only_add_time(self):
        for _ in range(100):
            u = RNG.uniform(1.0, 8.0)
            beta = RNG.uniform(0.0, 0.99)
            ell = RNG.uniform(0.0, 2.0)
            with_ell = run_loop(LoopConfig(u=u, beta=beta, L=1.0, ell=ell)).delta_t
            without = run_loop(LoopConfig(u=u, beta=beta, L=1.0)).delta_t
            assert with_ell >= without - 1e-12

    def test_events_reported_in_path_order(self):
        r = run_loop(LoopConfig(u=2.0, beta=0.3, L=1.0, ell=0.5))
        assert r.emission.x == 0.0
        assert r.handoff1.x == pytest.approx(1.5)
        assert r.handoff2.x == pytest.approx(0.5)
        assert r.arrival.x == 0.0

    @settings(max_examples=1000)
    @given(
        st.floats(0.0, 1.0 - 1e-12),
        st.floats(1e-3, 1e8),
        st.floats(1e-6, 1e6),
        st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
    )
    @example(0.5, 1.5, 1.0, 0.5)  # beta*u = 1: the return leg's S coordinate velocity is infinite
    @example(1.0 - 1e-12, 1e-3, 1e6, 1e6)
    def test_handoff2_matches_the_boost_frame_oracle(self, beta, speed_gap, L, ell):
        # Shares no formula with _loop_times: boost handoff1 into S', run at -u
        # there until the signal meets Bob(2)'s worldline x = ell (in S',
        # x' = ell/gamma - beta*t'), and boost the meeting event back.
        u = beta + speed_gap
        try:
            r = run_loop(LoopConfig(u=u, beta=beta, L=L, ell=ell))
        except ValueError as exc:
            assume("overflow" not in str(exc))
            raise
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        handoff1 = Event(L / u + ell, L + ell)
        moving = boost(handoff1, beta)
        tau = (moving.x - ell / gamma + beta * moving.t) / (u - beta)
        handoff2 = boost(Event(moving.t + tau, moving.x - u * tau), -beta)
        # The boost round trip loses precision as gamma^2.
        tol = 1e-12 * gamma**2 * max(1.0, abs(handoff1.t), abs(handoff1.x), abs(r.handoff2.t))
        assert r.handoff1 == handoff1
        assert abs(handoff2.t - r.handoff2.t) <= tol
        assert abs(handoff2.x - r.handoff2.x) <= tol

    def test_largest_speeds_below_the_return_leg_overflow_still_violate(self):
        # The guard on gamma * (u - beta) leaves finite return legs alone, however fast.
        r = run_loop(LoopConfig(u=8e300, beta=0.5))
        assert r.violated and r.delta_t == pytest.approx(-0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoopConfig(u=2.0, beta=1.0)
        with pytest.raises(ValueError):
            LoopConfig(u=0.0, beta=0.5)
        with pytest.raises(ValueError):
            LoopConfig(u=2.0, beta=0.5, L=0.0)
        with pytest.raises(ValueError):
            LoopConfig(u=2.0, beta=0.5, ell=-1.0)

    @pytest.mark.parametrize("field", ["u", "beta", "L", "ell"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, *BEYOND_DOUBLES])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"u": 2.0, "beta": 0.5, "L": 1.0, "ell": 0.0, field: value}
        with pytest.raises(ValueError):
            LoopConfig(**kwargs)


class TestViolationThreshold:
    @pytest.mark.parametrize("u", [1.5, 2.0, 5.0, 10.0])
    def test_matches_closed_form(self, u):
        assert violation_threshold(u) == pytest.approx(2 * u / (1 + u * u), abs=1e-6)

    def test_known_values(self):
        assert violation_threshold(2.0) == pytest.approx(0.8, abs=1e-6)
        assert violation_threshold(5.0) == pytest.approx(10 / 26, abs=1e-6)

    def test_subluminal_sentinel(self):
        assert violation_threshold(1.0) is None
        assert violation_threshold(0.5) is None

    @pytest.mark.parametrize("u", [1.0 + 1e-15, 1.0 + 1e-8, 1.0 + 4e-8])
    def test_no_threshold_where_it_rounds_to_one(self, u):
        # 2u/(1 + u^2) = 1 - (u-1)^2/2 + ... lies above the bracket's top,
        # 1 - 1e-15, so no beta < 1 is found to violate.
        assert violation_threshold(u) is None

    def test_threshold_just_above_the_rounding_edge(self):
        assert violation_threshold(1.0 + 5e-8) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("u", [0.0, -2.0, np.nan, np.inf, *BEYOND_DOUBLES])
    def test_rejects_bad_speed(self, u):
        with pytest.raises(ValueError, match="u must be positive and finite"):
            violation_threshold(u)

    def test_return_leg_overflow_raises(self):
        # Near 8.04e300, gamma(1 - 1e-15) * u overflows at the upper bracket;
        # below it the bisection still finds a threshold within 1e-9 of 2/u.
        assert 0.0 < violation_threshold(8e300) < 1e-9
        with pytest.raises(ValueError, match=r"u = 8\.1e\+300 is too large for beta = 0\.999999999999999"):
            violation_threshold(8.1e300)

    def test_float32_speed_is_computed_in_double(self):
        # Bisected in float32 arithmetic, u = 3 gave 0.5999999349005514, 65 times the 1e-9 tolerance from 0.6.
        assert violation_threshold(np.float32(3.0)) == violation_threshold(3.0)
        assert violation_threshold(np.float32(3.0)) == pytest.approx(0.6, abs=1e-9)

    def test_flip_happens_exactly_once(self):
        u = 3.0
        thr = violation_threshold(u)
        flags = [run_loop(LoopConfig(u=u, beta=b)).violated for b in np.linspace(0.01, 0.99, 200)]
        flips = sum(a != b for a, b in zip(flags, flags[1:]))
        assert flips == 1
        assert not run_loop(LoopConfig(u=u, beta=thr - 1e-6)).violated
        assert run_loop(LoopConfig(u=u, beta=thr + 1e-6)).violated


class TestRecordedBits:
    def test_thresholds(self):
        assert [threshold_record(u) for u in RECORDED_SPEEDS] == BITS["threshold"]

    def test_loop_reports(self):
        for config, expected in zip(BITS["loop"], BITS["report"]):
            assert loop_record(*map(float.fromhex, config)) == expected, config


class TestThresholdCost:
    """violation_threshold runs run_loop once per u > 1; the traced
    benchmark site kinematics.run_loop depends on that one call."""

    def test_one_run_loop_per_speed_above_light(self, monkeypatch):
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return run_loop(cfg)

        monkeypatch.setattr(kinematics, "run_loop", counted)
        for u in RECORDED_SPEEDS:
            calls.clear()
            threshold_record(u)
            assert len(calls) == (u > 1.0), u
            assert all(cfg.beta == 1.0 - 1e-15 for cfg in calls)


def record():
    """Inputs for threshold_bits.json and the outputs of the current src/."""
    rng = np.random.default_rng(2026)
    edges = [0.5, 1.0, 1.0 + 1e-15, 1.0 + 4e-8, 1.0 + 5e-8]
    speeds = edges + [1.0 + float(x) for x in 10.0 ** rng.uniform(-9, 300, 2000)]
    rng.uniform(size=6)  # the draws that once set lengths of L; the loops below keep their inputs
    loops = []
    for _ in range(200):
        u = float(10.0 ** rng.uniform(-1, 6))
        beta = float(rng.choice([rng.uniform(0, 1), 1 - 10.0 ** rng.uniform(-15, -1)]))
        # Half the lengths near the top of the double range, where coordinates overflow.
        L, ell = (float(10.0 ** rng.uniform(rng.choice([-300, 300]), 308.25)) for _ in range(2))
        ell *= float(rng.integers(2))
        loops.append((u, beta, L, ell))
    loops += [(2.0, 0.9, 1.0, 0.0), (2.0, 0.5, 1e308, 1e308), (1.01, 0.999999, 1.7e308, 0.0), (0.5, 0.7, 1.0, 0.0)]
    return {
        "u": [u.hex() for u in speeds],
        "threshold": [threshold_record(u) for u in speeds],
        "loop": [[x.hex() for x in cfg] for cfg in loops],
        "report": [loop_record(*cfg) for cfg in loops],
    }


if __name__ == "__main__":
    BITS_PATH.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
