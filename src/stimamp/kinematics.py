"""Relativistic kinematics of the four-channel causal loop.

Units c = 1; 1D geometry.  Two superluminal channels, each running at
speed u in its own sender's rest frame, are bridged by two light legs of
length ell (in the lab frame S).  Frame S' moves at +beta relative to S.
A negative round-trip time at the origin is a causality violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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
        # Written so that NaN fails every comparison.
        if not 0.0 < self.u < math.inf:
            raise ValueError("u must be positive and finite")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if not 0.0 < self.L < math.inf:
            raise ValueError("L must be positive and finite")
        if not 0.0 <= self.ell < math.inf:
            raise ValueError("ell must be non-negative and finite")


@dataclass(frozen=True)
class LoopReport:
    emission: Event
    handoff1: Event  # Bob(1) -> Alice(2), end of the outbound light leg
    handoff2: Event  # Bob(2), start of the return light leg
    arrival: Event
    delta_t: float = field(init=False)
    violated: bool = field(init=False)

    def __post_init__(self):
        dt = float(self.arrival.t - self.emission.t)
        object.__setattr__(self, "delta_t", dt)
        object.__setattr__(self, "violated", dt < 0.0)


def gamma(beta: float) -> float:
    return 1.0 / np.sqrt(1.0 - beta * beta)


def boost(e: Event, beta: float) -> Event:
    """Standard Lorentz boost to the frame moving at +beta."""
    if abs(beta) >= 1.0:
        raise ValueError("|beta| must be < 1")
    g = gamma(beta)
    return Event(g * (e.t - beta * e.x), g * (e.x - beta * e.t))


def compose_velocity(v: float, beta: float) -> float:
    """Relativistic velocity addition (v + beta)/(1 + v beta).

    Superluminal v is allowed; the mapping is singular where 1 + v*beta
    vanishes (infinite coordinate velocity).  run_loop sidesteps the
    singularity by propagating in the moving frame's parametrization.
    """
    if abs(beta) >= 1.0:
        raise ValueError("|beta| must be < 1")
    denom = 1.0 + v * beta
    if abs(denom) < 1e-12:
        raise ValueError("composition is singular: infinite coordinate velocity")
    return (v + beta) / denom


def run_loop(cfg: LoopConfig) -> LoopReport:
    """Trace the signal around the loop and report the round-trip time.

    Path: Alice(1) emits at the S-origin; superluminal leg at +u in S to
    Bob(1) at x = L; light leg (+x) of length ell to Alice(2), co-moving
    with S'; superluminal leg at speed u in S' back toward the origin,
    ending at Bob(2), placed so the final light leg to Alice(1) has
    length ell in S.  All events in S coordinates.
    """
    u, beta, L, ell = cfg.u, cfg.beta, cfg.L, cfg.ell
    emission = Event(0.0, 0.0)
    # Leg 1 + outbound light leg.
    handoff1 = Event(L / u + ell, L + ell)
    # Return superluminal leg, parametrized by S' time tau: starting from
    # handoff1 and moving at -u in S', the S coordinates evolve as
    # x = x1 + gamma*tau*(beta - u), t = t1 + gamma*tau*(1 - beta*u).
    # This stays finite even where the S coordinate velocity diverges
    # (1 - beta*u = 0: the leg is traversed at constant S time).
    if u <= beta:
        raise ValueError("return leg never progresses toward the origin (u <= beta)")
    g = gamma(beta)
    tau = (handoff1.x - ell) / (g * (u - beta))
    handoff2 = Event(handoff1.t + g * tau * (1.0 - beta * u), ell)
    # Final light leg back to the origin.
    arrival = Event(handoff2.t + ell, 0.0)
    return LoopReport(emission, handoff1, handoff2, arrival)


def violation_threshold(u: float, L: float = 1.0) -> float | None:
    """Critical beta above which the loop violates causality.

    Found by bisection on run_loop's delta_t with ell = 0, to an absolute
    tolerance of 1e-9 in beta; analytically 2u/(1 + u^2).  Returns None
    for 0 < u <= 1 (light-speed or slower channels never violate).
    """
    LoopConfig(u=u, beta=0.0, L=L)  # rejects a bad u or L before the u <= 1 shortcut
    if u <= 1.0:
        return None

    def delta_t(beta: float) -> float:
        return run_loop(LoopConfig(u=u, beta=beta, L=L)).delta_t

    lo, hi = 0.0, 1.0 - 1e-15
    if delta_t(hi) >= 0.0:
        return None
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if delta_t(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
