import numpy as np
import pytest

from stimamp.amplifier import scatter
from stimamp.closed_form import Variant
from stimamp.fock import (
    E02,
    E11,
    E20,
    apply_rotation,
    projection_triple,
    rotation2,
    single_photon_state,
    symmetric_lift,
    two_photon_rotation,
)
from stimamp.protocol import reduced_density
from stimamp.statistics import outcome_table

RNG = np.random.default_rng(20260826)


@pytest.mark.parametrize(
    "theta,expected",
    [
        (0.0, (1.0, 0.0)),
        (np.pi / 2, (0.0, 1.0)),
        (np.pi / 4, (1 / np.sqrt(2), 1 / np.sqrt(2))),
    ],
)
def test_single_photon_state(theta, expected):
    np.testing.assert_allclose(single_photon_state(theta), expected, atol=1e-12)


def test_rotation_at_zero_is_identity():
    np.testing.assert_allclose(two_photon_rotation(0.0), np.eye(3), atol=1e-12)


def test_rotation_rows_match_quarter_pi_expansion():
    # both-parallel state at pi/4: half/over-root-two/half amplitudes
    u = two_photon_rotation(np.pi / 4)
    np.testing.assert_allclose(u[0], [0.5, 1 / np.sqrt(2), 0.5], atol=1e-12)


def test_rotation_at_half_pi():
    u = two_photon_rotation(np.pi / 2)
    np.testing.assert_allclose(apply_rotation(u, E20), E02, atol=1e-12)
    np.testing.assert_allclose(apply_rotation(u, E11), -E11, atol=1e-12)


def test_row_structure_random_theta():
    for theta in RNG.uniform(-5, 5, 200):
        u = two_photon_rotation(theta)
        c, s = np.cos(theta), np.sin(theta)
        np.testing.assert_allclose(
            u[0], [c * c, np.sin(2 * theta) / np.sqrt(2), s * s], atol=1e-12
        )


def test_orthogonality_1000_random():
    for theta in RNG.uniform(-10, 10, 1000):
        u = two_photon_rotation(theta)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


def test_homomorphism_1000_random_pairs():
    for a, b in RNG.uniform(-5, 5, (1000, 2)):
        np.testing.assert_allclose(
            two_photon_rotation(a) @ two_photon_rotation(b),
            two_photon_rotation(a + b),
            atol=1e-12,
        )


def test_periodicity():
    for theta in RNG.uniform(-5, 5, 100):
        np.testing.assert_allclose(
            two_photon_rotation(theta + np.pi), two_photon_rotation(theta), atol=1e-12
        )


def test_symmetric_lift_identity():
    np.testing.assert_allclose(symmetric_lift(np.eye(2)), np.eye(3), atol=1e-12)


def test_symmetric_lift_is_oracle_for_rotation():
    # tensor-square construction vs the closed-form rotation family
    np.testing.assert_allclose(
        symmetric_lift(rotation2(np.pi / 4)), two_photon_rotation(np.pi / 4), atol=1e-12
    )
    for theta in RNG.uniform(-10, 10, 1000):
        np.testing.assert_allclose(
            symmetric_lift(rotation2(theta)), two_photon_rotation(theta), atol=1e-12
        )


def test_symmetric_lift_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        symmetric_lift(np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize("matrix", [np.eye(3), np.eye(2)[0], [[1.0]], np.eye(4)])
def test_symmetric_lift_rejects_non_2x2(matrix):
    with pytest.raises(ValueError, match="2x2"):
        symmetric_lift(matrix)


def test_apply_preserves_norm():
    for theta in RNG.uniform(-5, 5, 200):
        amps = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        state = amps / np.linalg.norm(amps)
        out = apply_rotation(two_photon_rotation(theta), state)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_apply_composes():
    state = np.array([0.6, 0.0, 0.8j])
    for a, b in RNG.uniform(-5, 5, (100, 2)):
        once = apply_rotation(two_photon_rotation(a + b), state)
        twice = apply_rotation(two_photon_rotation(b), apply_rotation(two_photon_rotation(a), state))
        np.testing.assert_allclose(once, twice, atol=1e-12)


def test_projection_probability():
    assert projection_triple(E20)[0] == pytest.approx(1.0, abs=1e-12)
    assert projection_triple(E11)[0] == pytest.approx(0.0, abs=1e-12)
    rotated = apply_rotation(two_photon_rotation(np.pi / 4), E20)
    # cos^4(pi/4) overlap with the unrotated both-parallel state
    assert projection_triple(rotated)[0] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("variant", list(Variant))
def test_amplitude_layer_is_real(variant):
    # The model's amplitudes are all real, so every array it builds is float64.
    _, weights, states = scatter(0.3, variant)
    arrays = [weights, states, single_photon_state(0.3), apply_rotation(two_photon_rotation(0.3), E20)]
    arrays += [*outcome_table(0.3, variant), reduced_density(0.3)]
    assert [a.dtype for a in arrays] == [np.float64] * len(arrays)


def test_apply_keeps_a_complex_state_complex():
    out = apply_rotation(two_photon_rotation(0.3), np.array([0.6, 0.0, 0.8j]))
    assert out.dtype == np.complex128
    np.testing.assert_allclose(projection_triple(out).sum(), 1.0, atol=1e-12)
