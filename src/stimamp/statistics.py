"""Mixture-averaged two-photon outcome statistics.

The input ensemble is the 50/50 mixture of |theta> and |theta + pi/2>.
Outcome probabilities over the dipole-frame basis (|2,0>, |1,1>, |0,2>),
conditioned on a two-photon event, come three ways: closed forms, a
first-principles projection pipeline (the oracle, no closed forms), and
seeded Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplifier import Variant, scatter
from .fock import ATOL_EXACT, projection_triple


@dataclass(frozen=True)
class ProbabilityTriple:
    """Probabilities of (|2,0>, |1,1>, |0,2>) given a two-photon outcome."""

    p20: float
    p11: float
    p02: float

    def __post_init__(self):
        total = self.p20 + self.p11 + self.p02
        if not (abs(total - 1.0) < 1e-9 and min(self.p20, self.p11, self.p02) > -ATOL_EXACT):
            raise ValueError(f"not a probability triple: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p20, self.p11, self.p02])


@dataclass(frozen=True)
class CountTriple:
    n20: int
    n11: int
    n02: int

    @property
    def total(self) -> int:
        return self.n20 + self.n11 + self.n02

    def estimates(self) -> ProbabilityTriple:
        if self.total <= 0:
            raise ValueError("no counts to estimate from")
        return ProbabilityTriple(self.n20 / self.total, self.n11 / self.total, self.n02 / self.total)


def differential_sigma_20(theta: float) -> float:
    """Differential rate of the |2,0> outcome, (1 + cos^2 2theta)/2.

    Units of lambda^2 dOmega, averaged over the orthogonal-pair mixture.
    """
    return 0.5 * (1.0 + np.cos(2.0 * theta) ** 2)


def _check_angle(theta: float) -> None:
    """Reject NaN and |theta| > 2^20, where theta + pi/2 rounds off orthogonality."""
    if not abs(theta) <= 2.0**20:
        raise ValueError(f"theta must satisfy |theta| <= 2**20 (period pi), got {float(theta)}")


def closed_form_probs(theta: float, variant: Variant) -> ProbabilityTriple:
    """Closed-form outcome triple for the orthogonal-pair mixture."""
    _check_angle(theta)
    c2 = np.cos(2.0 * theta) ** 2
    s2 = np.sin(2.0 * theta) ** 2
    if variant is Variant.DISTINGUISHABLE:
        return ProbabilityTriple((1.0 + c2) / 3.0, 1.0 / 3.0, s2 / 3.0)
    return ProbabilityTriple(2.0 * c2 / 3.0, 1.0 / 3.0, 2.0 * s2 / 3.0)


def outcome_table(theta: float, variant: Variant):
    """Amplifier outputs for the orthogonal-pair mixture: the one probability core.

    Scatters |theta> and |theta + pi/2> once each and returns
    (input weights, per-input total weights, branch weights, projections).
    Branch weights form a 2x2 array (input, branch) in units of
    lambda^2 dOmega; row 2*j + b of the 4x3 projection matrix holds the
    dipole-frame outcome probabilities of branch b of input j.  The
    identical variant has one coherent branch of weight total_weight and
    a second branch of weight 0.
    """
    _check_angle(theta)
    total = np.empty(2)
    branch = np.zeros((2, 2))
    proj = np.empty((4, 3))
    for j, angle in enumerate((theta, theta + np.pi / 2.0)):
        scattered = scatter(angle, variant)
        total[j] = scattered.total_weight
        if variant is Variant.DISTINGUISHABLE:
            branch[j] = [abs(b.amplitude) ** 2 for b in scattered.branches]
            states = [b.photon_state for b in scattered.branches]
        else:
            branch[j, 0] = scattered.total_weight
            states = [scattered.coherent, scattered.coherent]
        proj[2 * j : 2 * j + 2] = projection_triple(np.array(states))
    return np.array([0.5, 0.5]), total, branch, proj


def first_principles_probs(theta: float, variant: Variant) -> ProbabilityTriple:
    """Outcome triple from the projection pipeline, no closed forms.

    The mixture average of outcome_table's branch-weighted projections,
    normalized by the computed total two-photon weight (3/2 for the
    orthogonal pair).  Distinguishable branches add incoherently (the atom
    tag records which branch fired); the identical variant projects the
    coherent state.
    """
    inputs, total, branch, proj = outcome_table(theta, variant)
    # Elementwise, left to right, no reductions: the CLI prints 17 digits.
    per_input =branch[:, :1] * proj[0::2] + branch[:, 1:] * proj[1::2]
    weights = inputs[0] * per_input[0] + inputs[1] * per_input[1]
    return ProbabilityTriple(*(weights / (inputs[0] * total[0] + inputs[1] * total[1])))


def monte_carlo_probs(
    theta: float,
    variant: Variant,
    n: int,
    seed,
) -> tuple[CountTriple, ProbabilityTriple]:
    """Sample n i.i.d. two-photon outcomes of the orthogonal-pair mixture.

    Stream discipline: one PCG64 stream from the seed; each candidate shot
    consumes four uniforms in order (input angle, two-photon acceptance,
    branch, outcome), row-major in batches.  The input angle is drawn 1/2
    each and a candidate is kept with probability total_weight/2, which
    conditions on two-photon events; branch and outcome use inverse-CDF
    over the fixed orderings with boundary ties resolved to the lower
    index.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    _, total, bw, proj = outcome_table(theta, variant)
    accept = total / 2.0
    p_branch0 = bw[:, 0] / bw.sum(axis=1)
    cum = np.cumsum(proj, axis=1)
    counts = np.zeros(3, dtype=np.int64)
    remaining = n
    while remaining > 0:
        k = int(remaining / 0.7) + 16
        u = rng.random((k, 4))
        inp = (u[:, 0] >= 0.5).astype(np.intp)
        kept = u[:, 1] < accept[inp]
        inp = inp[kept]
        branch = (u[kept, 2] > p_branch0[inp]).astype(np.intp)
        row_cum = cum[2 * inp + branch]
        u_out = u[kept, 3]
        outcome = (u_out > row_cum[:, 0]).astype(np.intp) + (u_out > row_cum[:, 1])
        outcome = outcome[:remaining]
        counts += np.bincount(outcome, minlength=3)
        remaining = n - int(counts.sum())
    triple = CountTriple(int(counts[0]), int(counts[1]), int(counts[2]))
    return triple, triple.estimates()


def sweep(theta_min: float, theta_max: float, steps: int, variant: Variant):
    """Uniform angle grid of closed-form triples and differential rates.

    Returns a list of (theta, ProbabilityTriple, sigma20) rows, endpoints
    inclusive, ordered by theta.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not theta_min < theta_max:
        raise ValueError("theta_min must be < theta_max")
    for theta in (theta_min, theta_max):  # bounded ends keep linspace finite
        _check_angle(theta)
    rows = []
    for theta in np.linspace(theta_min, theta_max, steps):
        rows.append((float(theta), closed_form_probs(theta, variant), differential_sigma_20(theta)))
    return rows
