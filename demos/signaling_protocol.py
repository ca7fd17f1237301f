"""Send a byte over the EPR signaling scheme and inspect why it 'works'.

Alice's basis choice (0 vs pi/4) steers Bob's amplifier statistics; Bob
decodes by estimating the |2,0> outcome rate.  Bob's reduced density
matrix is I/2 regardless of Alice's choice, so the decodable signal is
exactly the model's departure from density-matrix linearity.
"""

import numpy as np

from stimamp.closed_form import Variant
from stimamp.protocol import ProtocolConfig, linearity_gap, reduced_density, transmit

bits = [0, 1, 1, 0, 1, 0, 0, 1]
cfg = ProtocolConfig(pairs_per_bit=10**4, seed=0)
report = transmit(cfg, bits)

print(f"sent:    {list(report.sent_bits)}")
print(f"decoded: {list(report.decoded_bits)}")
print(f"p20 estimates: {[round(p, 3) for p in report.per_bit_estimates]}")
print(f"error rate: {report.error_rate}")

print("\nBob's reduced density matrix is basis-independent:")
for theta in (0.0, np.pi / 8, np.pi / 4):
    rho = reduced_density(theta)
    print(f"  theta={theta:.4f}: max|rho - I/2| = {np.max(np.abs(rho - np.eye(2) / 2)):.2e}")

print("\nLinearity gap (model prediction minus any linear channel's):")
for variant in Variant:
    rep = linearity_gap(np.pi / 4, variant)
    print(f"  {variant.value:>16} at pi/4: {rep.p_paper:.4f} - {rep.p_linear:.4f} = {rep.gap:+.4f}")
