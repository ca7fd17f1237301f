"""EPR-pair signaling scheme and its linearity diagnostic.

Alice measures her half of each rotation-invariant entangled pair in the
{theta, theta + pi/2} basis; Bob's photon is then |theta> or the
orthogonal state with probability 1/2 each.  Bob feeds his photons to the
amplifier and estimates the |2,0> rate to decode Alice's basis choice.

Bob's reduced density matrix is I/2 for every theta, so any decodable
theta dependence measures the model's departure from a channel linear in
the density matrix; linearity_gap reports that departure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .amplifier import Variant
from .fock import ATOL_EXACT, single_photon_state
from .statistics import _check_angle, closed_form_probs, monte_carlo_probs


@dataclass(frozen=True)
class ProtocolConfig:
    pairs_per_bit: int
    theta_bit0: float = 0.0
    theta_bit1: float = np.pi / 4.0
    variant: Variant = Variant.DISTINGUISHABLE
    seed: int = 0

    def __post_init__(self):
        if self.pairs_per_bit < 1:
            raise ValueError("pairs_per_bit must be >= 1")
        for theta in (self.theta_bit0, self.theta_bit1):  # before their difference can overflow
            _check_angle(theta)
        # Symbols merging modulo pi/2 share identical outcome statistics.
        gap = np.mod(self.theta_bit0 - self.theta_bit1, np.pi / 2.0)
        if min(gap, np.pi / 2.0 - gap) < ATOL_EXACT:
            raise ValueError("symbol angles coincide modulo pi/2")


@dataclass(frozen=True)
class TransmissionReport:
    sent_bits: tuple[int, ...]
    decoded_bits: tuple[int, ...]
    per_bit_estimates: tuple[float, ...]
    error_rate: float


@dataclass(frozen=True)
class LinearityReport:
    theta: float
    p_paper: float
    p_linear: float
    gap: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gap", self.p_paper - self.p_linear)


def _bit_seed(seed: int, index: int) -> np.random.SeedSequence:
    # Deterministic per-bit substream; bits may be simulated in parallel.
    return np.random.SeedSequence((seed, index))


def transmit(config: ProtocolConfig, bits) -> TransmissionReport:
    """Simulate sending a bit string over the amplifier channel.

    Each bit burns pairs_per_bit EPR pairs at its symbol angle; the
    decoder thresholds the estimated |2,0> probability at the midpoint of
    the two symbols' closed-form values, ties decoding to 0.
    """
    bits = tuple(int(b) for b in bits)
    if not bits:
        raise ValueError("bit list is empty")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    p0 = closed_form_probs(config.theta_bit0, config.variant).p20
    p1 = closed_form_probs(config.theta_bit1, config.variant).p20
    midpoint = 0.5 * (p0 + p1)
    decoded = []
    estimates = []
    for i, bit in enumerate(bits):
        theta = config.theta_bit1 if bit else config.theta_bit0
        _, est = monte_carlo_probs(theta, config.variant, config.pairs_per_bit, _bit_seed(config.seed, i))
        estimates.append(est.p20)
        if est.p20 == midpoint:
            decoded.append(0)
        else:
            decoded.append(int(abs(est.p20 - p1) < abs(est.p20 - p0)))
    errors = sum(d != b for d, b in zip(decoded, bits))
    return TransmissionReport(bits, tuple(decoded), tuple(estimates), errors / len(bits))


def reduced_density(theta: float) -> np.ndarray:
    """Bob's reduced density matrix, (|theta><theta| + |perp><perp|)/2.

    Analytically I/2 for every theta; computed, not hard-coded, so the
    linearity diagnostic rests on an actual calculation.
    """
    rho = np.zeros((2, 2), dtype=complex)
    for angle in (theta, theta + np.pi / 2.0):
        psi = single_photon_state(angle)
        rho += 0.5 * np.outer(psi, psi.conj())
    return rho


def linearity_gap(theta: float, variant: Variant) -> LinearityReport:
    """Gap between the model's |2,0> probability and the linear prediction.

    Any map linear in the density matrix gives the same output for every
    decomposition of I/2, so the theta=0 decomposition pins the unique
    linear prediction; the gap is the signaling resource.
    """
    p_paper = closed_form_probs(theta, variant).p20
    p_linear = closed_form_probs(0.0, variant).p20
    return LinearityReport(theta, p_paper, p_linear)
