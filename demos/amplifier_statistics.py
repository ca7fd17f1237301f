"""Walk through the amplifier's outcome statistics at a few angles.

The single-atom amplifier scatters an incoming photon polarized at angle
theta (to the atomic dipole) into a two-photon state.  For the 50/50
mixture of orthogonal inputs, the conditional outcome probabilities over
(|2,0>, |1,1>, |0,2>) depend on theta even though the input density
matrix does not -- that dependence is the whole story.
"""

from dataclasses import astuple

import numpy as np

from stimamp.closed_form import Variant, closed_form_probs, differential_sigma_20
from stimamp.statistics import first_principles_probs, monte_carlo_probs

angles = {"0": 0.0, "pi/8": np.pi / 8, "pi/4": np.pi / 4, "3pi/8": 3 * np.pi / 8}

for variant in Variant:
    print(f"\n=== {variant.value} atom final states ===")
    print(f"{'theta':>6} {'p20':>8} {'p11':>8} {'p02':>8} {'oracle gap':>11} {'sigma20':>8}")
    for label, theta in angles.items():
        closed = closed_form_probs(theta, variant)
        oracle = first_principles_probs(theta, variant)
        gap = np.max(np.abs(np.subtract(astuple(closed), astuple(oracle))))
        print(
            f"{label:>6} {closed.p20:8.4f} {closed.p11:8.4f} {closed.p02:8.4f}"
            f" {gap:11.1e} {differential_sigma_20(theta):8.4f}"
        )

print("\nMonte Carlo check at theta=pi/8, distinguishable, n=10^6, seed=1:")
counts = monte_carlo_probs(np.pi / 8, Variant.DISTINGUISHABLE, 10**6, 1)
est = counts.estimates()
ref = closed_form_probs(np.pi / 8, Variant.DISTINGUISHABLE)
print(f"  counts: {counts}")
print(f"  estimates: ({est.p20:.5f}, {est.p11:.5f}, {est.p02:.5f})")
print(f"  exact:     ({ref.p20:.5f}, {ref.p11:.5f}, {ref.p02:.5f})")
