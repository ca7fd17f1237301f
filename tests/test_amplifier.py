import numpy as np
import pytest

from stimamp.amplifier import (
    EmissionConstants,
    branch_weights,
    lambda_squared,
    scatter,
)
from stimamp.closed_form import Variant
from stimamp.fock import E20, projection_triple

RNG = np.random.default_rng(7)


class TestLambdaSquared:
    def test_natural_units(self):
        assert lambda_squared(EmissionConstants()) == pytest.approx(1 / (8 * np.pi**2), abs=1e-15)

    def test_cubic_frequency_scaling(self):
        base = lambda_squared(EmissionConstants(omega=1.0))
        assert lambda_squared(EmissionConstants(omega=2.0)) == pytest.approx(8 * base)

    def test_direct_substitution(self):
        k = EmissionConstants(omega=2.0, mu=3.0)
        assert lambda_squared(k) == pytest.approx(9 / np.pi**2)

    @pytest.mark.parametrize(
        "constants",
        # omega^3 overflows; c^3 underflows to 0 (a division by zero); omega^3 underflows to 0.
        [dict(omega=1e200), dict(c=1e-200), dict(omega=1e-200)],
    )
    def test_rejects_a_value_beyond_the_doubles(self, constants):
        with pytest.raises(ValueError, match="outside the positive finite doubles"):
            lambda_squared(EmissionConstants(**constants))

    def test_tiny_powers_that_cancel(self):
        # mu^2 = 1e-600 and c^3 = 1e-300 underflow alone, but their ratio is 1e-300.
        value = lambda_squared(EmissionConstants(mu=1e-300, c=1e-100))
        assert value == pytest.approx(1e-300 / (8 * np.pi**2), rel=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [dict(omega=0.0), dict(mu=-1.0), dict(hbar=0.0), dict(c=-2.0)]
        # NaN and the infinities too: each would give lambda^2 = nan, 0.0 or inf.
        + [{name: value} for name in ("omega", "mu", "hbar", "c") for value in (np.nan, np.inf, -np.inf)],
    )
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            EmissionConstants(**bad)


class TestBranchWeights:
    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, (2.0, 0.0)), (np.pi / 2, (0.0, 1.0)), (np.pi / 4, (1.0, 0.5))],
    )
    def test_values(self, theta, expected):
        np.testing.assert_allclose(branch_weights(theta), expected, atol=1e-12)

    def test_orthogonal_inputs_complement(self):
        # weights of the theta and theta+pi/2 inputs sum to (2, 1)
        for theta in RNG.uniform(0, np.pi, 500):
            a = np.array(branch_weights(theta))
            b = np.array(branch_weights(theta + np.pi / 2))
            np.testing.assert_allclose(a + b, [2.0, 1.0], atol=1e-12)


class TestScatter:
    def test_weights_match_amplitudes(self):
        for theta in RNG.uniform(0, np.pi, 500):
            total, weights, _ = scatter(theta, Variant.DISTINGUISHABLE)
            w20, w11 = branch_weights(theta)
            assert weights[0] == pytest.approx(w20, abs=1e-12)
            assert weights[1] == pytest.approx(w11, abs=1e-12)
            assert total == pytest.approx(w20 + w11, abs=1e-12)
            assert total == pytest.approx(1 + np.cos(theta) ** 2, abs=1e-12)

    def test_aligned_input_single_branch(self):
        _, weights, states = scatter(0.0, Variant.DISTINGUISHABLE)
        assert weights[0] == pytest.approx(2.0, abs=1e-12)
        assert weights[1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(states[0], E20, atol=1e-12)

    def test_identical_is_one_coherent_branch(self):
        for theta in RNG.uniform(-5, 5, 100):
            total, weights, states = scatter(theta, Variant.IDENTICAL)
            assert weights[0] == total
            assert weights[1] == 0
            np.testing.assert_array_equal(states[0], states[1])

    def test_perpendicular_input_coherent_state(self):
        _, _, states = scatter(np.pi / 2, Variant.IDENTICAL)
        assert projection_triple(states[0])[1] == pytest.approx(1.0, abs=1e-12)

    def test_quarter_pi_coherent_kills_parallel_outcome(self):
        _, _, states = scatter(np.pi / 4, Variant.IDENTICAL)
        assert projection_triple(states[0])[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("variant", ["identical", None])
    def test_rejects_variant_that_is_not_a_member(self, variant):
        with pytest.raises(ValueError, match="variant must be a Variant"):
            scatter(0.3, variant)

    def test_coherent_norm_1000_random(self):
        for theta in RNG.uniform(-5, 5, 1000):
            _, _, states = scatter(theta, Variant.IDENTICAL)
            assert np.linalg.norm(states[0]) == pytest.approx(1.0, abs=1e-12)
