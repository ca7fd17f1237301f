"""Single-atom stimulated-emission amplifier channel.

An incoming photon polarized at angle theta to the transition dipole
scatters into a two-photon state correlated with the atom's final state.
Two variants: Distinguishable atom final states (branches are incoherent,
tagged by the atom) and Identical (a single coherent two-photon state).

All branch weights are per unit solid angle with the rate constant
lambda^2 dOmega factored out; lambda_squared carries the physical units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import Variant, _check_variant, _real
from .fock import E11, E20, apply_rotation, two_photon_rotation


@dataclass(frozen=True)
class EmissionConstants:
    """Physical constants for the emission rate; defaults are natural units."""

    omega: float = 1.0
    mu: float = 1.0
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("omega", "mu", "hbar", "c"):
            object.__setattr__(self, name, _real(f"{name} must be positive and finite", getattr(self, name)))
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be positive and finite")


def lambda_squared(k: EmissionConstants = EmissionConstants()) -> float:
    """Emission rate constant omega^3 mu^2 / (8 pi^2 hbar c^3), a finite positive double.

    Mantissas and binary exponents combine apart, so no power of a
    constant overflows or underflows on its way; a value beyond the
    doubles' range is a ValueError.
    """
    try:
        (m_omega, e_omega), (m_mu, e_mu), (m_hbar, e_hbar), (m_c, e_c) = (
            math.frexp(x) for x in (k.omega, k.mu, k.hbar, k.c)
        )
        mantissa = m_omega**3 * m_mu**2 / (8.0 * math.pi**2 * m_hbar * m_c**3)
        value = math.ldexp(mantissa, 3 * e_omega + 2 * e_mu - e_hbar - 3 * e_c)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError("lambda^2 of these constants is outside the positive finite doubles")
    return value


def branch_weights(theta: float) -> tuple[float, float]:
    """Stimulated branch weights (2 cos^2, sin^2) for input |theta>.

    Units of lambda^2 dOmega; substituting theta -> theta + pi/2 gives the
    weights for the orthogonal input.
    """
    c, s = np.cos(theta), np.sin(theta)
    return (2.0 * c * c, s * s)


def scatter(theta: float, variant: Variant) -> tuple[float, np.ndarray, np.ndarray]:
    """Post-scattering two-photon branches for input |theta>.

    Returns (total_weight, weights, states): the two-photon weight
    1 + cos^2(theta) as a Python float, the length-2 branch weights, both
    in units of lambda^2 dOmega, and a 2x3 array whose rows are the
    branches' dipole-frame amplitude vectors.  Distinguishable: the
    incoherent pair onto the rotated |2,0> and |1,1>.  Identical: the
    coherent state of weight total_weight and a copy of it of weight 0.

    Branch amplitudes follow the real signed convention sqrt(2) cos(theta)
    for the both-parallel branch and sin(theta) for the mixed branch; this
    is the unique real choice reproducing the coherent-variant statistics.
    """
    _check_variant(variant)
    c, s = math.cos(theta), math.sin(theta)  # numpy's scalar doubles, as Python floats
    u = two_photon_rotation(theta)
    state20 = apply_rotation(u, E20)
    state11 = apply_rotation(u, E11)
    amp20 = math.sqrt(2.0) * c
    amp11 = s
    total = 1.0 + c * c
    if variant is Variant.DISTINGUISHABLE:
        return total, np.array([amp20**2, amp11**2]), np.array([state20, state11])
    # Times the reciprocal: the pinned bits and digests hold its rounding, and / moves ~1 in 4 last bits.
    # Three elements in Python floats: the same roundings as numpy's elementwise ops, with less dispatch.
    r = 1.0 / math.sqrt(total)
    coherent = [(amp20 * a + amp11 * b) * r for a, b in zip(state20.tolist(), state11.tolist())]
    return total, np.array([total, 0.0]), np.array([coherent, coherent])
