"""Relativistic kinematics of the four-channel causal loop.

Units c = 1; 1D geometry.  Two superluminal channels, each running at
speed u in its own sender's rest frame, are bridged by two light legs of
length ell (in the lab frame S).  Frame S' moves at +beta relative to S.
A negative round-trip time at the origin is a causality violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_form import _real


@dataclass(frozen=True)
class Event:
    """Spacetime event, lab-frame (S) coordinates."""

    t: float
    x: float


@dataclass(frozen=True)
class LoopConfig:
    u: float  # superluminal channel speed, sender's rest frame
    beta: float  # relative speed of the second frame
    L: float = 1.0  # superluminal channel length, sender's frame
    ell: float = 0.0  # light-channel length in S

    def __post_init__(self):
        # Each field is stored as the double that is checked, so a float32 does not keep the loop in float32.
        for name, rule, ok in (
            ("u", "u must be positive and finite", lambda v: 0.0 < v < math.inf),  # NaN fails every comparison
            ("beta", "beta must be in [0, 1)", lambda v: 0.0 <= v < 1.0),
            ("L", "L must be positive and finite", lambda v: 0.0 < v < math.inf),
            ("ell", "ell must be non-negative and finite", lambda v: 0.0 <= v < math.inf),
        ):
            value = _real(rule, getattr(self, name))
            if not ok(value):
                raise ValueError(rule)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class LoopReport:
    emission: Event
    handoff1: Event  # Bob(1) -> Alice(2), end of the outbound light leg
    handoff2: Event  # Bob(2), start of the return light leg
    arrival: Event
    delta_t: float
    violated: bool


def _gamma(beta: float) -> float:
    return 1.0 / math.sqrt(1.0 - beta * beta)


def boost(e: Event, beta: float) -> Event:
    """Standard Lorentz boost to the frame moving at +beta."""
    beta = _real("|beta| must be < 1", beta)
    if not abs(beta) < 1.0:  # NaN fails every comparison
        raise ValueError("|beta| must be < 1")
    g = _gamma(beta)
    return Event(g * (e.t - beta * e.x), g * (e.x - beta * e.t))


def _loop_times(u: float, beta: float, L: float, ell: float) -> tuple[float, float, float, float]:
    """(t1, x1, t2, t3): handoff1's t and x, handoff2's t, the arrival's t."""
    t1, x1 = L / u + ell, L + ell  # leg 1 + outbound light leg
    # Return superluminal leg, parametrized by S' time tau: starting from
    # handoff1 and moving at -u in S', the S coordinates evolve as
    # x = x1 + gamma*tau*(beta - u), t = t1 + gamma*tau*(1 - beta*u).
    # This stays finite even where the S coordinate velocity diverges
    # (1 - beta*u = 0: the leg is traversed at constant S time).
    if u <= beta:
        raise ValueError("return leg never progresses toward the origin (u <= beta)")
    g = _gamma(beta)
    rate = g * (u - beta)  # -dx/dtau; were it infinite, tau would be 0 and the return leg lost
    if not math.isfinite(rate):
        raise ValueError(f"loop coordinates overflow: u = {u!r} is too large for beta = {beta!r}")
    tau = (x1 - ell) / rate
    if L / u == 0.0 or (tau == 0.0 and x1 > ell):  # a leg of positive length rounded to none
        raise ValueError(f"loop coordinates underflow: L = {L!r} is too small for u = {u!r} and beta = {beta!r}")
    t2 = t1 + g * tau * (1.0 - beta * u)
    t3 = t2 + ell  # final light leg; a t1, x1 or t2 that overflowed leaves t3 not finite
    if not math.isfinite(t3):
        raise ValueError("loop coordinates overflow: L or ell is too large, or u is too small or too close to beta")
    return t1, x1, t2, t3


def run_loop(cfg: LoopConfig) -> LoopReport:
    """Trace the signal around the loop and report the round-trip time.

    Path: Alice(1) emits at the S-origin; superluminal leg at +u in S to
    Bob(1) at x = L; light leg (+x) of length ell to Alice(2), co-moving
    with S'; superluminal leg at speed u in S' back toward the origin,
    ending at Bob(2), placed so the final light leg to Alice(1) has
    length ell in S.  All events in S coordinates.  Raises ValueError
    when a coordinate overflows, or when a superluminal leg of positive
    length underflows to 0 (L too small for u).
    """
    t1, x1, t2, t3 = _loop_times(cfg.u, cfg.beta, cfg.L, cfg.ell)
    return LoopReport(Event(0.0, 0.0), Event(t1, x1), Event(t2, cfg.ell), Event(t3, 0.0), t3, t3 < 0.0)


def violation_threshold(u: float) -> float | None:
    """Critical beta above which the loop violates causality.

    Found by bisection on the round-trip time of the unit loop (L = 1,
    ell = 0), to an absolute tolerance of 1e-9 in beta; analytically
    2u/(1 + u^2), which depends on u alone.  Costs one run_loop, for the
    upper bracket, and ~31 steps of its arithmetic.  Returns None for
    0 < u <= 1 (light-speed or slower channels never violate) and for
    1 < u <= 1 + 4e-8, where the threshold rounds to 1.  Raises
    ValueError for u >~ 8e300, where gamma(beta) * (u - beta) overflows
    at the upper bracket.
    """
    top = LoopConfig(u=u, beta=1.0 - 1e-15)  # rejects a bad u before the u <= 1 shortcut
    u = top.u
    if u <= 1.0 or run_loop(top).delta_t >= 0.0:
        return None
    lo, hi = 0.0, top.beta
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)  # 0 <= mid < 1 < u: a valid LoopConfig
        if _loop_times(u, mid, 1.0, 0.0)[3] > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
