import fractions
import json
import math
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stimamp import statistics
from stimamp.amplifier import branch_weights, scatter
from stimamp.closed_form import ProbabilityTriple, Variant, closed_form_probs, differential_sigma_20, sweep
from stimamp.fock import E11, E20, apply_rotation, projection_triple, two_photon_rotation
from stimamp.protocol import ProtocolConfig, linearity_gap, reduced_density, transmit
from stimamp.statistics import CountTriple, first_principles_probs, monte_carlo_probs, outcome_table

RNG = np.random.default_rng(31)

# outcome_table and first_principles_probs as float.hex, 30 angles and both
# variants, recorded while scatter still returned wrapper objects: a
# reference independent of its array shape.
CORE_BITS = json.loads((Path(__file__).parent / "probability_core_bits.json").read_text())


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
    np.testing.assert_allclose(astuple(closed_form_probs(theta, variant)), expected, atol=1e-12)


def test_first_principles_matches_closed_forms():
    np.testing.assert_allclose(
        astuple(first_principles_probs(0.0, Variant.DISTINGUISHABLE)),
        [2 / 3, 1 / 3, 0.0],
        atol=1e-12,
    )
    for theta in RNG.uniform(-5, 5, 1000):
        for variant in Variant:
            np.testing.assert_allclose(
                astuple(first_principles_probs(theta, variant)),
                astuple(closed_form_probs(theta, variant)),
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

    @pytest.mark.byte_identity
    @pytest.mark.parametrize("case", CORE_BITS, ids=lambda c: f"{c['variant']}-{c['theta']}")
    def test_recorded_bits(self, case):
        theta, variant = float.fromhex(case["theta"]), Variant(case["variant"])
        arrays = dict(zip(("inputs", "total", "branch", "proj"), outcome_table(theta, variant)))
        arrays["probs"] = astuple(first_principles_probs(theta, variant))
        for name, value in arrays.items():
            assert [float(x).hex() for x in np.ravel(value)] == case[name], name


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


def numpy_scalar_closed_forms(theta, variant):
    """The closed forms as numpy scalars compute them: the reference for math's doubles."""
    c2 = np.cos(2.0 * theta) ** 2
    s2 = np.sin(2.0 * theta) ** 2
    if variant is Variant.DISTINGUISHABLE:
        triple = ((1.0 + c2) / 3.0, 1.0 / 3.0, s2 / 3.0)
    else:
        triple = (2.0 * c2 / 3.0, 1.0 / 3.0, 2.0 * s2 / 3.0)
    return triple, 0.5 * (1.0 + c2)


# cos^2 2theta by pow and by c*c differ in the last bit here, and so does the identical p20.
POW_NOT_PRODUCT = 0.006702587926433824


@pytest.mark.byte_identity
@settings(max_examples=500)
@given(
    theta=st.floats(-(2.0**20), 2.0**20, allow_nan=False),
    variant=st.sampled_from(list(Variant)),
)
@example(theta=POW_NOT_PRODUCT, variant=Variant.IDENTICAL)
@example(theta=2.0**20, variant=Variant.DISTINGUISHABLE)
@example(theta=-(2.0**20), variant=Variant.IDENTICAL)
def test_closed_forms_match_numpy_scalars_bit_for_bit(theta, variant):
    # The CLI prints 17 digits, so the doubles, not a tolerance, must agree.
    triple, sigma = numpy_scalar_closed_forms(theta, variant)
    got = closed_form_probs(theta, variant)
    assert [float.hex(p) for p in (got.p20, got.p11, got.p02)] == [float.hex(float(p)) for p in triple]
    assert float.hex(differential_sigma_20(theta)) == float.hex(float(sigma))


@pytest.mark.byte_identity
def test_squares_are_pow_not_a_product():
    c = np.cos(2.0 * POW_NOT_PRODUCT)
    assert 2.0 * (c * c) / 3.0 != 2.0 * c**2 / 3.0
    assert closed_form_probs(POW_NOT_PRODUCT, Variant.IDENTICAL).p20.hex() == "0x1.5545a1c806a6dp-1"


def numpy_scalar_rotation(theta):
    """two_photon_rotation as numpy scalars computed it: the reference for math's doubles."""
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    s2t = np.sin(2.0 * theta)
    c2t = np.cos(2.0 * theta)
    r = 1.0 / np.sqrt(2.0)
    return np.array([[c2, r * s2t, s2], [-r * s2t, c2t, r * s2t], [s2, -r * s2t, c2]])


def numpy_scalar_scatter(theta, variant):
    """scatter on numpy scalars, on numpy_scalar_rotation."""
    c, s = np.cos(theta), np.sin(theta)
    u = numpy_scalar_rotation(theta)
    state20 = apply_rotation(u, E20)
    state11 = apply_rotation(u, E11)
    amp20 = np.sqrt(2.0) * c
    amp11 = s
    total = 1.0 + c * c
    if variant is Variant.DISTINGUISHABLE:
        return total, np.array([amp20**2, amp11**2]), np.array([state20, state11])
    coherent = (amp20 * state20 + amp11 * state11) * (1.0 / np.sqrt(total))
    return total, np.array([total, 0.0]), np.array([coherent, coherent])


def numpy_scalar_outcome_table(theta, variant):
    """outcome_table on numpy_scalar_scatter, filling preallocated arrays."""
    total = np.empty(2)
    branch = np.empty((2, 2))
    proj = np.empty((4, 3))
    for j, angle in enumerate((theta, theta + np.pi / 2.0)):
        total[j], branch[j], states = numpy_scalar_scatter(angle, variant)
        proj[2 * j : 2 * j + 2] = projection_triple(states)
    return np.array([0.5, 0.5]), total, branch, proj


def bits(*values):
    """Each value's shape and dtype, and its elements as float.hex."""
    return [(np.shape(v), np.asarray(v).dtype, [float(x).hex() for x in np.ravel(v)]) for v in values]


@pytest.mark.byte_identity
@settings(max_examples=500)
@given(theta=st.floats(-(2.0**20), 2.0**20, allow_nan=False))
@example(theta=0.0)
@example(theta=2.0**20)
@example(theta=-(2.0**20))
@example(theta=POW_NOT_PRODUCT)
def test_amplitude_layer_matches_numpy_scalars_bit_for_bit(theta):
    # The oracle columns print 17 digits and the MC tables set every count.
    assert bits(two_photon_rotation(theta)) == bits(numpy_scalar_rotation(theta))
    for variant in Variant:
        assert bits(*scatter(theta, variant)) == bits(*numpy_scalar_scatter(theta, variant))
        assert bits(*outcome_table(theta, variant)) == bits(*numpy_scalar_outcome_table(theta, variant))


ANGLE_LIMIT = 2.0**20
BEYOND_LIMIT = np.nextafter(ANGLE_LIMIT, np.inf)


class TestAngleDomain:
    """|theta| <= 2^20: beyond it theta + pi/2 rounds off orthogonality."""

    CALLS = {
        "closed_form": lambda theta: closed_form_probs(theta, Variant.IDENTICAL),
        "sigma20": differential_sigma_20,
        "oracle": lambda theta: first_principles_probs(theta, Variant.IDENTICAL),
        "monte_carlo": lambda theta: monte_carlo_probs(theta, Variant.IDENTICAL, 10, 1),
    }
    MORE_CALLS = {
        "sweep_min": lambda theta: sweep(theta, 2.0**20, 3, Variant.IDENTICAL),
        "sweep_max": lambda theta: sweep(-(2.0**20), theta, 3, Variant.IDENTICAL),
        "reduced_density": reduced_density,
        "linearity_gap": lambda theta: linearity_gap(theta, Variant.IDENTICAL),
        "protocol_config": lambda theta: ProtocolConfig(pairs_per_bit=20, theta_bit1=theta),
    }

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("call", CALLS)
    def test_accepts_limit_rejects_beyond(self, call, sign):
        self.CALLS[call](sign * ANGLE_LIMIT)
        with pytest.raises(ValueError, match=r"theta must satisfy .* got -?1048576\.0000000002"):
            self.CALLS[call](sign * BEYOND_LIMIT)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf, 2.0**20 + 1])
    def test_sigma20_rejects_what_closed_form_rejects(self, theta):
        # Unchecked, NaN gave NaN, 1e300 a number, and math.cos(inf) a bare "math domain error".
        with pytest.raises(ValueError, match="theta must satisfy"):
            differential_sigma_20(theta)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("call", [*CALLS, *MORE_CALLS])
    def test_rejects_int_beyond_the_doubles(self, call, sign):
        # The message's float(theta) raised OverflowError, not ValueError.
        with pytest.raises(ValueError, match=r"theta must satisfy .* got a number too large for a double$"):
            {**self.CALLS, **self.MORE_CALLS}[call](sign * 10**400)

    def test_message_names_numpy_angle_as_plain_float(self):
        with pytest.raises(ValueError, match=r"got 1e\+308$"):
            closed_form_probs(np.float64(1e308), Variant.DISTINGUISHABLE)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_float32_angle_is_computed_in_double(self, variant):
        # In float32, theta + pi/2 is not orthogonal to theta: the oracle missed the closed form by 1.07e-7.
        theta = np.float32(0.3)
        assert first_principles_probs(theta, variant) == first_principles_probs(float(theta), variant)
        oracle, closed = astuple(first_principles_probs(theta, variant)), astuple(closed_form_probs(theta, variant))
        assert max(abs(a - b) for a, b in zip(oracle, closed)) < 1e-15

    def test_sweep_reads_float32_ends_as_doubles(self):
        ends = np.float32(0.1), np.float32(0.5)
        rows = list(sweep(*ends, 5, Variant.IDENTICAL))
        assert rows == list(sweep(*map(float, ends), 5, Variant.IDENTICAL))
        assert all(type(x) is float for row in rows for x in row)

    def test_sweep_bounds_its_ends(self):
        list(sweep(-ANGLE_LIMIT, ANGLE_LIMIT, 2, Variant.DISTINGUISHABLE))
        # The ends are checked before their order, so a NaN end is an angle error.
        for ends in ((-1e308, 1e308), (float("nan"), 1.0), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="theta must satisfy"):
                sweep(*ends, 3, Variant.DISTINGUISHABLE)


@pytest.mark.parametrize("variant", ["identical", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda variant: closed_form_probs(0.3, variant),
        lambda variant: first_principles_probs(0.3, variant),
        lambda variant: monte_carlo_probs(0.3, variant, 10, 1),
    ],
    ids=["closed_form", "oracle", "monte_carlo"],
)
def test_rejects_variant_that_is_not_a_member(call, variant):
    # A string or None must not fall through to the identical model.
    with pytest.raises(ValueError, match="variant must be a Variant"):
        call(variant)


def reference_counts(theta, variant, n, seed):
    """The documented sampling rule, one candidate row at a time."""
    inputs, total, branch, proj = (a.tolist() for a in outcome_table(theta, variant))
    rng = np.random.default_rng(seed)
    counts = [0, 0, 0]
    while sum(counts) < n:
        for u_input, u_accept, u_branch, u_outcome in rng.random((16, 4)).tolist():
            j = int(u_input >= inputs[0])
            if not u_accept < total[j] / 2:
                continue
            row = proj[2 * j + int(u_branch > branch[j][0] / (branch[j][0] + branch[j][1]))]
            k, cdf = 0, row[0]  # inverse CDF, ties to the lower index
            while k < 2 and u_outcome > cdf:
                k += 1
                cdf += row[k]
            counts[k] += 1
            if sum(counts) == n:
                break
    return CountTriple(*counts)


# The Kolmogorov-Smirnov distance from uniform that 400 p-values exceed with probability 5%.
KS_CRITICAL_400_0_05 = 0.068


def chi2_p_value(counts, probs):
    """Pearson chi-squared p-value of counts against probs, for 1 or 2 degrees of freedom.

    A cell whose expected count is at most 1e-6 is dropped, after checking that it drew nothing.
    """
    n = sum(counts)
    cells = [(o, n * p) for o, p in zip(counts, probs)]
    assert all(o == 0 for o, e in cells if e <= 1e-6)
    cells = [(o, e) for o, e in cells if e > 1e-6]
    x = sum((o - e) ** 2 / e for o, e in cells)
    dof = len(cells) - 1
    assert dof in (1, 2)
    return math.exp(-x / 2) if dof == 2 else math.erfc(math.sqrt(x / 2))


def ks_distance_from_uniform(values):
    ordered = sorted(values)
    m = len(ordered)
    return max(max((i + 1) / m - v, v - i / m) for i, v in enumerate(ordered))


class TestMonteCarlo:
    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_angle(self, theta):
        # A NaN acceptance probability would keep no candidate and never stop.
        with pytest.raises(ValueError):
            monte_carlo_probs(theta, Variant.DISTINGUISHABLE, 10, 1)

    def test_seeded_determinism(self):
        a = monte_carlo_probs(0.3, Variant.DISTINGUISHABLE, 5000, 123)
        b = monte_carlo_probs(0.3, Variant.DISTINGUISHABLE, 5000, 123)
        assert a == b

    def test_exact_total(self):
        counts = monte_carlo_probs(0.7, Variant.IDENTICAL, 12345, 5)
        assert counts.total == 12345

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("theta", [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
    def test_converges_to_closed_forms(self, theta, variant):
        est = monte_carlo_probs(theta, variant, 10**6, 42).estimates()
        ref = closed_form_probs(theta, variant)
        assert np.max(np.abs(np.subtract(astuple(est), astuple(ref)))) < 3e-3

    def test_zero_probability_outcome_never_drawn(self):
        counts = monte_carlo_probs(np.pi / 4, Variant.IDENTICAL, 10**5, 9)
        assert counts.n20 == 0

    # Counts of the kernel that drew all candidates in one array: a
    # reference independent of the chunking.  n=49153 spans five chunks.
    @pytest.mark.parametrize(
        "theta,variant,n,seed,expected",
        [
            (0.0, Variant.IDENTICAL, 1, 0, CountTriple(0, 1, 0)),
            (0.3, Variant.DISTINGUISHABLE, 7, 0, CountTriple(3, 3, 1)),
            (1.1, Variant.IDENTICAL, 1000, 42, CountTriple(229, 335, 436)),
            (0.3, Variant.IDENTICAL, 49153, 1, CountTriple(22352, 16425, 10376)),
            (np.pi / 4, Variant.DISTINGUISHABLE, 300001, 42, CountTriple(100115, 100098, 99788)),
        ],
    )
    def test_recorded_counts(self, theta, variant, n, seed, expected):
        assert monte_carlo_probs(theta, variant, n, seed) == expected

    @pytest.mark.parametrize("chunk_rows", [1, 5, 4096])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_chunk_size_does_not_change_counts(self, chunk_rows, variant, monkeypatch):
        cases = [(n, seed) for n in (1, 7, 1000, 3 * statistics._CHUNK_ROWS + 1) for seed in (0, 42)]
        expected = [monte_carlo_probs(0.3, variant, n, seed) for n, seed in cases]
        monkeypatch.setattr(statistics, "_CHUNK_ROWS", chunk_rows)
        assert [monte_carlo_probs(0.3, variant, n, seed) for n, seed in cases] == expected

    @settings(max_examples=200)
    @given(
        st.floats(-(2.0**20), 2.0**20),
        st.sampled_from(Variant),
        st.integers(1, 64),
        st.integers(1, 3 * 48),
        st.integers(0, 2**64),
    )
    # Projection rows with zero entries, where lo == hi.
    @example(0.0, Variant.DISTINGUISHABLE, 16, 100, 3)
    @example(0.0, Variant.IDENTICAL, 16, 100, 3)
    @example(np.pi / 4, Variant.DISTINGUISHABLE, 16, 100, 3)
    @example(np.pi / 4, Variant.IDENTICAL, 16, 100, 3)
    def test_counts_match_a_per_row_reference(self, theta, variant, chunk_rows, n, seed):
        # Small chunks, so n spans several of them and the last is partial.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(statistics, "_CHUNK_ROWS", chunk_rows)
            counts = monte_carlo_probs(theta, variant, n, seed)
        assert counts == reference_counts(theta, variant, n, seed)

    @settings(max_examples=50)
    @given(st.integers(0, 2**200), st.integers(0, 10**6), st.sampled_from(Variant), st.integers(1, 200))
    def test_tuple_key_is_the_seed_sequence_of_that_key(self, s, i, variant, n):
        # transmit keys bit i by (seed, i), the stream of SeedSequence((seed, i)).
        expected = reference_counts(0.7, variant, n, np.random.SeedSequence((s, i)))
        assert monte_carlo_probs(0.7, variant, n, (s, i)) == expected

    @pytest.mark.parametrize(
        "theta,variant",
        [
            *((theta, variant) for variant in Variant for theta in (0.3, 1.1)),
            (0.0, Variant.DISTINGUISHABLE),  # p02 == 0
            (np.pi / 4, Variant.IDENTICAL),  # p20 ~ 2.5e-33
        ],
    )
    def test_counts_are_distributed_as_the_closed_form(self, theta, variant):
        # The tests above pin the stream; this one checks that the stream samples the right law:
        # over fixed seeds, the chi-squared p-values of the counts are uniform.
        probs = closed_form_probs(theta, variant)
        p_values = [
            chi2_p_value(astuple(monte_carlo_probs(theta, variant, 2000, seed)), astuple(probs))
            for seed in range(400)
        ]
        assert ks_distance_from_uniform(p_values) < KS_CRITICAL_400_0_05

    def test_memory_does_not_grow_with_n(self):
        # An array of all 2e6/0.7 candidates would take 87 MiB.
        tracemalloc.start()
        try:
            monte_carlo_probs(0.3, Variant.IDENTICAL, 2_000_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSweep:
    def test_grid_values(self):
        rows = list(sweep(0.0, np.pi / 2, 3, Variant.DISTINGUISHABLE))
        thetas = [r[0] for r in rows]
        np.testing.assert_allclose(thetas, [0.0, np.pi / 4, np.pi / 2], atol=1e-12)
        np.testing.assert_allclose([r[1] for r in rows], [2 / 3, 1 / 3, 2 / 3], atol=1e-12)

    def test_two_steps_gives_endpoints(self):
        rows = sweep(0.0, 1.0, 2, Variant.IDENTICAL)
        assert [r[0] for r in rows] == [0.0, 1.0]

    @pytest.mark.byte_identity
    @given(
        st.floats(-ANGLE_LIMIT, ANGLE_LIMIT),
        st.floats(-ANGLE_LIMIT, ANGLE_LIMIT),
        st.integers(2, 300),
        st.sampled_from(list(Variant)),
    )
    @example(-1.0, 4.0, 57, Variant.IDENTICAL)
    @example(-ANGLE_LIMIT, ANGLE_LIMIT, 300, Variant.DISTINGUISHABLE)
    def test_rows_normalized(self, a, b, steps, variant):
        # sweep checks only its ends; every row is the checked closed forms at its angle, bit for bit.
        assume(a != b)
        for theta, p20, p11, p02, sigma in sweep(min(a, b), max(a, b), steps, variant):
            want = (*astuple(closed_form_probs(theta, variant)), differential_sigma_20(theta))
            assert [x.hex() for x in (p20, p11, p02, sigma)] == [x.hex() for x in want]
            assert p20 + p11 + p02 == pytest.approx(1.0, abs=1e-12)
            ProbabilityTriple(p20, p11, p02)

    @pytest.mark.parametrize("steps", [3, 10001])
    def test_no_probability_triple_per_row(self, steps, monkeypatch):
        # The ends go through the angle and variant checks, not closed_form_probs; the rows are flat floats.
        calls = []
        check = ProbabilityTriple.__post_init__
        monkeypatch.setattr(ProbabilityTriple, "__post_init__", lambda self: calls.append(self) or check(self))
        assert len(list(sweep(0.0, 1.0, steps, Variant.IDENTICAL))) == steps
        assert len(calls) == 0

    @pytest.mark.byte_identity
    def test_numpy_integer_steps_give_python_floats(self):
        # The grid divides by a Python int, so no numpy scalar reaches a row.
        rows = list(sweep(0.0, 1.0, np.int64(5), Variant.IDENTICAL))
        assert all(type(x) is float for row in rows for x in row)
        assert rows == list(sweep(0.0, 1.0, 5, Variant.IDENTICAL))

    def test_checks_in_order(self):
        # steps, variant, theta_min, theta_max, then the ends' order.
        for args, message in [
            ((3e6, 2e6, 1, None), "^steps must be an integer >= 2$"),
            ((3e6, 2e6, 5, None), "^variant must be a Variant"),
            ((3e6, 2e6, 5, Variant.IDENTICAL), r"got 3000000\.0$"),
            ((1.0, 2e6, 5, Variant.IDENTICAL), r"got 2000000\.0$"),
            ((1.0, 0.5, 5, Variant.IDENTICAL), "^theta_min must be < theta_max$"),
        ]:
            with pytest.raises(ValueError, match=message):
                sweep(*args)

    def test_grid_memory_does_not_grow_with_steps(self):
        # np.linspace would hold all 1e7 angles: 76 MiB.
        tracemalloc.start()
        try:
            rows = sweep(0.0, 1.0, 10**7, Variant.DISTINGUISHABLE)
            for _ in range(3):
                next(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sweep(0.0, 1.0, 1, Variant.DISTINGUISHABLE)
        with pytest.raises(ValueError):
            sweep(1.0, 0.0, 5, Variant.DISTINGUISHABLE)

    @pytest.mark.parametrize("variant", ["identical", None])
    def test_rejects_variant_that_is_not_a_member_at_the_call(self, variant):
        # Not at the first row, when the iterator is read.
        with pytest.raises(ValueError, match="variant must be a Variant"):
            sweep(0.0, 1.0, 5, variant)


# The integer rule at each call site: (argument name, minimum, call).  A call
# reads no sweep row and builds a ProtocolConfig without transmitting, so a
# rejection must come at the call.  Unchecked, a float would reach range or
# the MC kernel's slicing, a bool would pass as 0 or 1, a None seed would draw
# OS entropy, a Generator would advance the caller's, and () would give seed
# 0's stream.
INTEGER_SITES = {
    "mc_n": ("n", 1, lambda v: monte_carlo_probs(0.3, Variant.DISTINGUISHABLE, v, 1)),
    "mc_seed": ("seed", 0, lambda v: monte_carlo_probs(0.7, Variant.IDENTICAL, 50, v)),
    "sweep_steps": ("steps", 2, lambda v: sweep(0.0, 1.0, v, Variant.IDENTICAL)),
    "pairs_per_bit": ("pairs_per_bit", 1, lambda v: ProtocolConfig(pairs_per_bit=v, seed=3)),
    "config_seed": ("seed", 0, lambda v: ProtocolConfig(pairs_per_bit=20, seed=v)),
}
NOT_INTEGERS = [2.5, 1e3, np.float64(7.0), "10", None, True, False, np.True_, fractions.Fraction(5)]
SITE_NOT_INTEGERS = {
    "mc_seed": [np.random.default_rng(1), (), (1, -1), (1, True)],
    "sweep_steps": [5.0, np.float64(5.0), "5"],
    "config_seed": [np.float64(3.0), "3"],
}
NUMPY_INTEGERS = {
    "mc_n": [np.int64(7), np.uint8(7)],
    "mc_seed": [np.int64(3), (np.uint64(3), np.int32(4))],
    "sweep_steps": [np.int64(5)],
    "pairs_per_bit": [np.int64(20)],
    # transmit seeds from the seed's bits: a numpy seed of every width gives the Python int's report.
    "config_seed": [np.int64(3), np.uint32(7), np.uint64(2**64 - 1)],
}


def site_param(site, value):
    # A Generator's repr holds its address: name it by its type, so the test id is stable.
    label = type(value).__name__ if isinstance(value, np.random.Generator) else repr(value)
    return pytest.param(site, value, id=f"{site}-{label}")


@pytest.mark.parametrize(
    "site,value",
    [
        site_param(site, value)
        for site, (_, minimum, _) in INTEGER_SITES.items()
        for value in [*NOT_INTEGERS, minimum - 1, *SITE_NOT_INTEGERS.get(site, [])]
    ],
)
def test_integer_rule_rejects(site, value):
    name, minimum, call = INTEGER_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {minimum}$"):
        call(value)


# n, steps and pairs_per_bit share one maximum, numpy's int64; seeds have none.
# Beyond it int(n / 0.7) and the sweep's step raised OverflowError.
COUNT_SITES = ["mc_n", "sweep_steps", "pairs_per_bit"]


@pytest.mark.parametrize(
    "site,value",
    [
        pytest.param(site, value, id=f"{site}-{label}")
        for site in COUNT_SITES
        for label, value in (("2**63", 2**63), ("10**400", 10**400), ("uint64_max", np.uint64(2**64 - 1)))
    ],
)
def test_count_rule_rejects_beyond_the_maximum(site, value):
    name, _, call = INTEGER_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer <= {2**63 - 1}$"):
        call(value)


@pytest.mark.parametrize("site", ["sweep_steps", "pairs_per_bit"])
def test_count_rule_accepts_the_maximum(site):
    # Both only check at the call: no run near 2**63 - 1 could finish.
    INTEGER_SITES[site][2](2**63 - 1)


@pytest.mark.byte_identity
@pytest.mark.parametrize(
    "site,value",
    [site_param(site, value) for site, values in NUMPY_INTEGERS.items() for value in values],
)
def test_integer_rule_accepts_numpy_integers(site, value):
    call = INTEGER_SITES[site][2]
    got, expected = call(value), call(tuple(map(int, value)) if isinstance(value, tuple) else int(value))
    if isinstance(got, ProtocolConfig):
        got, expected = transmit(got, [0, 1, 1]), transmit(expected, [0, 1, 1])
    elif site == "sweep_steps":  # iterators of rows
        got, expected = list(got), list(expected)
    assert got == expected
