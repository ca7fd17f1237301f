import numpy as np
import pytest

from stimamp.amplifier import Variant, branch_weights
from stimamp.statistics import (
    CountTriple,
    ProbabilityTriple,
    closed_form_probs,
    differential_sigma_20,
    first_principles_probs,
    monte_carlo_probs,
    outcome_table,
    sweep,
)

RNG = np.random.default_rng(31)


def test_probability_triple_validates():
    ProbabilityTriple(0.5, 0.3, 0.2)
    with pytest.raises(ValueError):
        ProbabilityTriple(0.5, 0.5, 0.5)


def test_count_triple():
    c = CountTriple(2, 1, 1)
    assert c.total == 4
    assert c.estimates().p20 == pytest.approx(0.5)
    with pytest.raises(ValueError):
        CountTriple(0, 0, 0).estimates()


@pytest.mark.parametrize(
    "theta,expected",
    [(0.0, 1.0), (np.pi / 4, 0.5), (np.pi / 8, 0.75)],
)
def test_differential_sigma(theta, expected):
    assert differential_sigma_20(theta) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "theta,variant,expected",
    [
        (0.0, Variant.DISTINGUISHABLE, (2 / 3, 1 / 3, 0.0)),
        (np.pi / 4, Variant.DISTINGUISHABLE, (1 / 3, 1 / 3, 1 / 3)),
        (np.pi / 4, Variant.IDENTICAL, (0.0, 1 / 3, 2 / 3)),
        (np.pi / 8, Variant.IDENTICAL, (1 / 3, 1 / 3, 1 / 3)),
        (np.pi / 8, Variant.DISTINGUISHABLE, (0.5, 1 / 3, 1 / 6)),
    ],
)
def test_closed_forms(theta, variant, expected):
    np.testing.assert_allclose(closed_form_probs(theta, variant).as_array(), expected, atol=1e-12)


def test_first_principles_matches_closed_forms():
    np.testing.assert_allclose(
        first_principles_probs(0.0, Variant.DISTINGUISHABLE).as_array(),
        [2 / 3, 1 / 3, 0.0],
        atol=1e-12,
    )
    for theta in RNG.uniform(-5, 5, 1000):
        for variant in Variant:
            np.testing.assert_allclose(
                first_principles_probs(theta, variant).as_array(),
                closed_form_probs(theta, variant).as_array(),
                atol=1e-12,
            )


class TestOutcomeTable:
    def test_branch_weights_match_closed_form(self):
        for theta in np.random.default_rng(1).uniform(-5, 5, 200):
            _, _, branch, _ = outcome_table(theta, Variant.DISTINGUISHABLE)
            for j, angle in enumerate((theta, theta + np.pi / 2)):
                np.testing.assert_allclose(branch[j], branch_weights(angle), atol=1e-12)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_rows_are_distributions(self, variant):
        for theta in np.random.default_rng(2).uniform(-5, 5, 200):
            inputs, total, branch, proj = outcome_table(theta, variant)
            np.testing.assert_allclose(proj.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(branch.sum(axis=1), total, atol=1e-12)
            assert inputs.sum() == 1.0

    def test_identical_has_one_coherent_branch(self):
        _, total, branch, _ = outcome_table(0.4, Variant.IDENTICAL)
        np.testing.assert_array_equal(branch[:, 0], total)
        np.testing.assert_array_equal(branch[:, 1], 0.0)


def test_normalization_and_complementarity():
    for theta in RNG.uniform(0, np.pi, 500):
        for variant in Variant:
            p = closed_form_probs(theta, variant)
            assert p.p20 + p.p11 + p.p02 == pytest.approx(1.0, abs=1e-12)
            assert p.p11 == pytest.approx(1 / 3, abs=1e-12)
            # parallel and perpendicular outcomes share the remaining 2/3
            assert p.p20 + p.p02 == pytest.approx(2 / 3, abs=1e-12)


def test_orthogonal_input_swaps_outcomes():
    for theta in RNG.uniform(0, np.pi, 200):
        a = closed_form_probs(theta, Variant.DISTINGUISHABLE)
        b = closed_form_probs(theta + np.pi / 2, Variant.DISTINGUISHABLE)
        assert a.p20 == pytest.approx(b.p20, abs=1e-12)
        assert a.p02 == pytest.approx(b.p02, abs=1e-12)


def test_differential_consistency():
    # sigma20 equals p20 times the total two-photon weight 3/2
    for theta in RNG.uniform(-5, 5, 500):
        p20 = closed_form_probs(theta, Variant.DISTINGUISHABLE).p20
        assert p20 == pytest.approx(differential_sigma_20(theta) / 1.5, abs=1e-12)


class TestMonteCarlo:
    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            monte_carlo_probs(0.0, Variant.DISTINGUISHABLE, 0, 1)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_angle(self, theta):
        # A NaN acceptance probability would keep no candidate and never stop.
        with pytest.raises(ValueError):
            monte_carlo_probs(theta, Variant.DISTINGUISHABLE, 10, 1)

    def test_seeded_determinism(self):
        a, _ = monte_carlo_probs(0.3, Variant.DISTINGUISHABLE, 5000, 123)
        b, _ = monte_carlo_probs(0.3, Variant.DISTINGUISHABLE, 5000, 123)
        assert a == b

    def test_exact_total(self):
        counts, _ = monte_carlo_probs(0.7, Variant.IDENTICAL, 12345, 5)
        assert counts.total == 12345

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("theta", [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
    def test_converges_to_closed_forms(self, theta, variant):
        _, est = monte_carlo_probs(theta, variant, 10**6, 42)
        ref = closed_form_probs(theta, variant)
        assert np.max(np.abs(est.as_array() - ref.as_array())) < 3e-3

    def test_zero_probability_outcome_never_drawn(self):
        counts, _ = monte_carlo_probs(np.pi / 4, Variant.IDENTICAL, 10**5, 9)
        assert counts.n20 == 0


class TestSweep:
    def test_grid_values(self):
        rows = sweep(0.0, np.pi / 2, 3, Variant.DISTINGUISHABLE)
        thetas = [r[0] for r in rows]
        np.testing.assert_allclose(thetas, [0.0, np.pi / 4, np.pi / 2], atol=1e-12)
        np.testing.assert_allclose([r[1].p20 for r in rows], [2 / 3, 1 / 3, 2 / 3], atol=1e-12)

    def test_two_steps_gives_endpoints(self):
        rows = sweep(0.0, 1.0, 2, Variant.IDENTICAL)
        assert [r[0] for r in rows] == [0.0, 1.0]

    def test_rows_normalized(self):
        for _, triple, _ in sweep(-1.0, 4.0, 57, Variant.IDENTICAL):
            assert triple.p20 + triple.p11 + triple.p02 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sweep(0.0, 1.0, 1, Variant.DISTINGUISHABLE)
        with pytest.raises(ValueError):
            sweep(1.0, 0.0, 5, Variant.DISTINGUISHABLE)
