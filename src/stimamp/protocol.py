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

from dataclasses import dataclass

import numpy as np

from .closed_form import _MAX_COUNT, ATOL_EXACT, Variant, _check_angle, _check_int, _is_int, closed_form_probs
from .fock import single_photon_state
from .statistics import _sampling_thresholds, monte_carlo_probs

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
# Streams seeded per vectorized pass; a block's words wait as ~180 B of Python ints per stream.
_SEED_BLOCK = 1024


@dataclass(frozen=True)
class ProtocolConfig:
    pairs_per_bit: int
    theta_bit0: float = 0.0
    theta_bit1: float = np.pi / 4.0
    variant: Variant = Variant.DISTINGUISHABLE
    seed: int = 0

    def __post_init__(self):
        _check_int("pairs_per_bit", self.pairs_per_bit, 1, _MAX_COUNT)
        _check_int("seed", self.seed, 0)
        for name in ("theta_bit0", "theta_bit1"):  # stored as the double that is checked, as LoopConfig's fields
            object.__setattr__(self, name, _check_angle(getattr(self, name)))
        # The decoder tells the symbols apart by their |2,0> probabilities alone.
        p0, p1 = (closed_form_probs(t, self.variant).p20 for t in (self.theta_bit0, self.theta_bit1))
        if abs(p0 - p1) < ATOL_EXACT:
            raise ValueError("symbols have the same |2,0> probability")


@dataclass(frozen=True)
class TransmissionReport:
    sent_bits: tuple[int, ...]
    decoded_bits: tuple[int, ...]
    per_bit_estimates: tuple[float, ...]
    error_rate: float


@dataclass(frozen=True)
class LinearityReport:
    p_paper: float
    p_linear: float
    gap: float


def _seed_hasher(hash_const: int, mult: int):
    """numpy SeedSequence's hashmix on uint32 arrays, carrying its running hash constant."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    return hashmix


def _seed_mix(x, y):
    """numpy SeedSequence's mix of two uint32 arrays."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


def _pcg64_states(seed: int, count: int):
    """default_rng((seed, i)).bit_generator.state for bits i = 0 ... count - 1, in order.

    Runs numpy's SeedSequence over the entropy words of (seed, i) for a
    block of 1024 bits at once, in uint32 arrays: the pool of 4, its mix,
    and generate_state(4, np.uint64).  PCG64's srandom step then runs in
    Python ints.  Yields each state as it is read, so memory holds one
    block's words, not a state per bit.
    """
    seed = int(seed)
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    for start in range(0, count, _SEED_BLOCK):
        low = np.arange(start, min(start + _SEED_BLOCK, count), dtype=np.uint32)
        entropy = [np.full_like(low, word) for word in seed_words] + [low]
        hashmix = _seed_hasher(_INIT_A, _MULT_A)
        pool = [hashmix(entropy[j] if j < len(entropy) else np.zeros_like(low)) for j in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _seed_mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _seed_mix(pool[dst], hashmix(word))
        # Eight words cycled from the pool, paired little-endian into four uint64.
        hashout = _seed_hasher(_INIT_B, _MULT_B)
        words = [hashout(pool[t % 4]).astype(np.uint64) for t in range(8)]
        halves = [(words[k] | words[k + 1] << 32).tolist() for k in range(0, 8, 2)]
        for state_hi, state_lo, seq_hi, seq_lo in zip(*halves):
            # pcg64_srandom: inc = 2 * initseq + 1; state = (inc + initstate) * MULT + inc, mod 2**128.
            inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
            state = ((state_hi << 64 | state_lo) + inc) * _PCG_MULT + inc & _MASK128
            yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def transmit(config: ProtocolConfig, bits) -> TransmissionReport:
    """Simulate sending a bit string over the amplifier channel.

    Each bit burns pairs_per_bit EPR pairs at its symbol angle, sampled
    from that symbol's thresholds, built once per call.  Bit i draws from
    default_rng((seed, i))'s stream: the states of the streams of bits
    0 ... len(bits) - 1 are computed together, in blocks of 1024, and
    loaded, one bit at a time, into one reused generator.  The decoder
    thresholds the estimated |2,0> probability at the midpoint of the two
    symbols' closed-form values, ties decoding to 0.
    """
    bits = tuple(bits)
    if not bits:
        raise ValueError("bit list is empty")
    if not all(_is_int(b) and b in (0, 1) for b in bits):
        raise ValueError("bits must be the integers 0 or 1")
    bits = tuple(int(b) for b in bits)
    p0 = closed_form_probs(config.theta_bit0, config.variant).p20
    p1 = closed_form_probs(config.theta_bit1, config.variant).p20
    midpoint = 0.5 * (p0 + p1)
    symbols = [(theta, _sampling_thresholds(theta, config.variant)) for theta in (config.theta_bit0, config.theta_bit1)]
    rng = np.random.default_rng(0)  # each bit loads its own state first
    decoded = []
    estimates = []
    for i, (bit, state) in enumerate(zip(bits, _pcg64_states(config.seed, len(bits)))):
        theta, tables = symbols[bit]
        # Deterministic per-bit substream, keyed (seed, i); bits may be simulated in parallel.
        rng.bit_generator.state = state
        counts = monte_carlo_probs(
            theta, config.variant, config.pairs_per_bit, (config.seed, i), thresholds=tables, rng=rng
        )
        p20 = counts.n20 / counts.total  # the double of counts.estimates().p20
        estimates.append(p20)
        decoded.append(0 if p20 == midpoint else int(abs(p20 - p1) < abs(p20 - p0)))
    errors = sum(d != b for d, b in zip(decoded, bits))
    return TransmissionReport(bits, tuple(decoded), tuple(estimates), errors / len(bits))


def reduced_density(theta: float) -> np.ndarray:
    """Bob's reduced density matrix, (|theta><theta| + |perp><perp|)/2.

    Computed, not hard-coded: I/2 for every theta, which is why any theta,
    here 0, gives linearity_gap its linear prediction.
    """
    theta = _check_angle(theta)
    psis = [single_photon_state(angle) for angle in (theta, theta + np.pi / 2.0)]
    return sum(0.5 * np.outer(psi, psi) for psi in psis)


def linearity_gap(theta: float, variant: Variant) -> LinearityReport:
    """Gap between the model's |2,0> probability and the linear prediction.

    Any map linear in the density matrix gives the same output for every
    decomposition of I/2, so the theta=0 decomposition pins the unique
    linear prediction; the gap is the signaling resource.
    """
    p_paper = closed_form_probs(theta, variant).p20
    p_linear = closed_form_probs(0.0, variant).p20
    return LinearityReport(p_paper, p_linear, p_paper - p_linear)
