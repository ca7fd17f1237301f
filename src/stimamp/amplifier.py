"""Single-atom stimulated-emission amplifier channel.

An incoming photon polarized at angle theta to the transition dipole
scatters into a two-photon state correlated with the atom's final state.
Two variants: Distinguishable atom final states (branches are incoherent,
tagged by the atom) and Identical (a single coherent two-photon state).

All branch weights are per unit solid angle with the rate constant
lambda^2 dOmega factored out; lambda_squared carries the physical units.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fock import E11, E20, apply_rotation, two_photon_rotation


class Variant(enum.Enum):
    DISTINGUISHABLE = "distinguishable"
    IDENTICAL = "identical"


def _check_variant(variant) -> None:
    """Reject anything but a Variant member, a string such as "identical" included."""
    if not isinstance(variant, Variant):
        raise ValueError(f"variant must be a Variant, got {variant!r}")


@dataclass(frozen=True)
class EmissionConstants:
    """Physical constants for the emission rate; defaults are natural units."""

    omega: float = 1.0
    mu: float = 1.0
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("omega", "mu", "hbar", "c"):
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be positive and finite")


def lambda_squared(k: EmissionConstants = EmissionConstants()) -> float:
    """Emission rate constant omega^3 mu^2 / (8 pi^2 hbar c^3)."""
    return k.omega**3 * k.mu**2 / (8.0 * np.pi**2 * k.hbar * k.c**3)


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
    1 + cos^2(theta), the length-2 branch weights, both in units of
    lambda^2 dOmega, and a 2x3 array whose rows are the branches'
    dipole-frame amplitude vectors.  Distinguishable: the incoherent pair
    onto the rotated |2,0> and |1,1>.  Identical: the coherent state of
    weight total_weight and a copy of it of weight 0.

    Branch amplitudes follow the real signed convention sqrt(2) cos(theta)
    for the both-parallel branch and sin(theta) for the mixed branch; this
    is the unique real choice reproducing the coherent-variant statistics.
    """
    _check_variant(variant)
    c, s = np.cos(theta), np.sin(theta)
    u = two_photon_rotation(theta)
    state20 = apply_rotation(u, E20)
    state11 = apply_rotation(u, E11)
    amp20 = np.sqrt(2.0) * c
    amp11 = s
    total = 1.0 + c * c
    if variant is Variant.DISTINGUISHABLE:
        return total, np.array([amp20**2, amp11**2]), np.array([state20, state11])
    # Times the reciprocal: the pinned bits and digests hold its rounding, and / moves ~1 in 4 last bits.
    coherent = (amp20 * state20 + amp11 * state11) * (1.0 / np.sqrt(total))
    return total, np.array([total, 0.0]), np.array([coherent, coherent])
