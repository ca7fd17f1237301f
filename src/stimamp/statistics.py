"""Mixture-averaged two-photon outcome statistics from the amplitudes.

The input ensemble is the 50/50 mixture of |theta> and |theta + pi/2>.
Outcome probabilities over the dipole-frame basis (|2,0>, |1,1>, |0,2>),
conditioned on a two-photon event, come from a first-principles
projection pipeline (the oracle, no closed forms) and from seeded Monte
Carlo; the closed forms they are checked against live in closed_form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplifier import scatter
from .closed_form import _MAX_COUNT, ProbabilityTriple, Variant, _check_angle, _check_int
# perfbench/tracing.py finds these two trace sites as statistics attributes;
# the line goes once the tracer names sites by their defining module (ROADMAP item 1a).
from .closed_form import closed_form_probs, sweep  # noqa: F401
from .fock import projection_triple

# Candidate rows per Monte Carlo chunk: 16384 x 4 doubles is 512 KiB.
_CHUNK_ROWS = 16384


@dataclass(frozen=True)
class CountTriple:
    """Counts of (|2,0>, |1,1>, |0,2>) outcomes, as monte_carlo_probs returns them."""

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


def outcome_table(theta: float, variant: Variant):
    """Amplifier outputs for the orthogonal-pair mixture: the one probability core.

    Scatters |theta> and |theta + pi/2> once each and returns
    (input weights, per-input total weights, branch weights, projections).
    Branch weights form a 2x2 array (input, branch) in units of
    lambda^2 dOmega; row 2*j + b of the 4x3 projection matrix holds the
    dipole-frame outcome probabilities of branch b of input j, in the
    branch layout of scatter.
    """
    theta = _check_angle(theta)
    (total0, branch0, states0), (total1, branch1, states1) = (
        scatter(angle, variant) for angle in (theta, theta + np.pi / 2.0)
    )
    proj = np.concatenate((projection_triple(states0), projection_triple(states1)))
    return np.array([0.5, 0.5]), np.array([total0, total1]), np.array([branch0, branch1]), proj


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
    per_input = branch[:, :1] * proj[0::2] + branch[:, 1:] * proj[1::2]
    weights = inputs[0] * per_input[0] + inputs[1] * per_input[1]
    return ProbabilityTriple(*(weights / (inputs[0] * total[0] + inputs[1] * total[1])))


def _sampling_thresholds(theta: float, variant: Variant):
    """monte_carlo_probs's per-symbol tables, from outcome_table.

    Returns (input weights, acceptance per input, branch-0 probability per
    input, outcome thresholds lo and hi per projection row).
    """
    inputs, total, bw, proj = outcome_table(theta, variant)
    accept = total / 2.0
    # Two-term sums added elementwise: the doubles of sum(axis=1) and cumsum, for less dispatch.
    (w00, w01), (w10, w11) = bw.tolist()
    p_branch0 = np.array([w00 / (w00 + w01), w10 / (w10 + w11)])
    lo = proj[:, 0]
    hi = lo + proj[:, 1]  # row thresholds; lo <= hi as proj >= 0
    return inputs, accept, p_branch0, lo, hi


def monte_carlo_probs(
    theta: float,
    variant: Variant,
    n: int,
    seed,
    *,
    thresholds=None,
    rng=None,
) -> CountTriple:
    """Sample n i.i.d. two-photon outcomes of the orthogonal-pair mixture.

    Returns only their CountTriple, whose total is n: a caller that wants
    the frequencies calls its estimates(), and transmit reads n20 / total.
    Stream discipline: one PCG64 stream, default_rng(seed), from a seed that
    is an integer >= 0 or a non-empty tuple of them; each candidate shot
    consumes four uniforms in order (input angle, two-photon acceptance,
    branch, outcome), row-major, in fixed-size chunks of one reused
    buffer; memory does not grow with n.  The input angle has outcome_table's
    weights (1/2 each, the oracle's mixture); a candidate is kept with
    probability total_weight/2, conditioning on two-photon events; branch and
    outcome use inverse-CDF over the fixed orderings, ties to the lower index.
    Outcomes are counted by threshold, exactly since each row's lo <= hi.
    Deterministic for a fixed seed.  A caller that samples one symbol many
    times passes thresholds=_sampling_thresholds(theta, variant), built
    once, and gets the same counts without rebuilding the tables.  A caller
    that seeds many streams passes rng=, a Generator that it has put in
    default_rng(seed)'s initial state (transmit loads its streams' states into one);
    the seed is still checked but not read, and the counts are the same.
    """
    _check_int("n", n, 1, _MAX_COUNT)
    for entry in seed if isinstance(seed, tuple) and seed else (seed,):
        _check_int("seed", entry, 0)
    if rng is None:
        rng = np.random.default_rng(seed)
    inputs, accept, p_branch0, lo, hi = thresholds if thresholds is not None else _sampling_thresholds(theta, variant)
    n20 = n11 = n02 = 0
    buf = np.empty((min(_CHUNK_ROWS, int(n / 0.7) + 16), 4))
    remaining = n
    while remaining > 0:
        u = buf[: min(len(buf), int(remaining / 0.7) + 16)]
        rng.random(out=u)
        inp = (u[:, 0] >= inputs[0]).astype(np.intp)
        kept = np.flatnonzero(u[:, 1] < accept.take(inp))[:remaining]
        v = u.take(kept, axis=0)  # u[kept]; take skips fancy indexing's overhead
        inp = inp.take(kept)
        row = 2 * inp + (v[:, 2] > p_branch0.take(inp))
        above_lo = int(np.count_nonzero(v[:, 3] > lo.take(row)))
        above_hi = int(np.count_nonzero(v[:, 3] > hi.take(row)))
        n20, n11, n02 = n20 + len(kept) - above_lo, n11 + above_lo - above_hi, n02 + above_hi
        remaining -= len(kept)
    return CountTriple(n20, n11, n02)
