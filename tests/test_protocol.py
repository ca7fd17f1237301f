import numpy as np
import pytest

from stimamp.amplifier import Variant
from stimamp.protocol import (
    ProtocolConfig,
    linearity_gap,
    reduced_density,
    transmit,
)

RNG = np.random.default_rng(11)


class TestConfig:
    def test_defaults(self):
        cfg = ProtocolConfig(pairs_per_bit=100)
        assert cfg.theta_bit0 == 0.0
        assert cfg.theta_bit1 == pytest.approx(np.pi / 4)

    def test_rejects_indistinguishable_symbols(self):
        # pi/2 apart means identical outcome statistics
        with pytest.raises(ValueError):
            ProtocolConfig(pairs_per_bit=100, theta_bit0=0.0, theta_bit1=np.pi / 2)

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            ProtocolConfig(pairs_per_bit=0)

    def test_rejects_angles_beyond_domain(self):
        # Checked before theta_bit0 - theta_bit1 can overflow to inf.
        with pytest.raises(ValueError, match="theta must satisfy"):
            ProtocolConfig(pairs_per_bit=1, theta_bit0=1.7e308, theta_bit1=-1.7e308)


class TestTransmit:
    def test_default_symbols_decode_cleanly(self):
        cfg = ProtocolConfig(pairs_per_bit=10**4, seed=1)
        report = transmit(cfg, [0, 1, 1, 0])
        assert report.decoded_bits == (0, 1, 1, 0)
        assert report.error_rate == 0.0

    def test_single_shot_estimates_degenerate(self):
        cfg = ProtocolConfig(pairs_per_bit=1, seed=2)
        bits = list(RNG.integers(0, 2, 1000))
        report = transmit(cfg, bits)
        assert set(report.per_bit_estimates) <= {0.0, 1.0}
        assert report.error_rate > 0.05

    def test_error_rate_non_increasing_in_pairs(self):
        bits = list(RNG.integers(0, 2, 1000))
        rates = []
        for n in (1, 10, 100, 10**4):
            cfg = ProtocolConfig(pairs_per_bit=n, seed=5)
            rates.append(transmit(cfg, bits).error_rate)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 0.0

    def test_rejects_bad_bits(self):
        cfg = ProtocolConfig(pairs_per_bit=10)
        with pytest.raises(ValueError):
            transmit(cfg, [])
        with pytest.raises(ValueError):
            transmit(cfg, [0, 2])

    def test_seed_determinism(self):
        cfg = ProtocolConfig(pairs_per_bit=50, seed=9)
        assert transmit(cfg, [1, 0, 1]) == transmit(cfg, [1, 0, 1])


class TestReducedDensity:
    def test_aligned_basis(self):
        np.testing.assert_allclose(reduced_density(0.0), np.eye(2) / 2, atol=1e-12)

    def test_maximally_mixed_for_all_angles(self):
        np.testing.assert_allclose(reduced_density(np.pi / 4), np.eye(2) / 2, atol=1e-12)
        worst = max(
            np.max(np.abs(reduced_density(theta) - np.eye(2) / 2))
            for theta in RNG.uniform(-5, 5, 1000)
        )
        assert worst < 1e-12

    def test_density_matrix_properties(self):
        rho = reduced_density(1.234)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert min(np.linalg.eigvalsh(rho)) > -1e-12


class TestLinearityGap:
    def test_zero_at_aligned_angle(self):
        assert linearity_gap(0.0, Variant.DISTINGUISHABLE).gap == pytest.approx(0.0, abs=1e-12)

    def test_distinguishable_gap_at_quarter_pi(self):
        rep = linearity_gap(np.pi / 4, Variant.DISTINGUISHABLE)
        assert rep.p_paper == pytest.approx(1 / 3, abs=1e-12)
        assert rep.p_linear == pytest.approx(2 / 3, abs=1e-12)
        assert rep.gap == pytest.approx(-1 / 3, abs=1e-12)

    def test_identical_gap_at_quarter_pi(self):
        assert linearity_gap(np.pi / 4, Variant.IDENTICAL).gap == pytest.approx(-2 / 3, abs=1e-12)

    def test_gap_extremes(self):
        for variant in Variant:
            gaps = [abs(linearity_gap(t, variant).gap) for t in np.linspace(0, np.pi / 2, 101)]
            assert np.argmax(gaps) == 50  # pi/4
            assert gaps[0] == pytest.approx(0.0, abs=1e-12)
            assert gaps[-1] == pytest.approx(0.0, abs=1e-12)
