import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stimamp import protocol, statistics
from stimamp.closed_form import ProbabilityTriple, Variant, closed_form_probs
from stimamp.protocol import (
    ProtocolConfig,
    linearity_gap,
    reduced_density,
    transmit,
)
from stimamp.statistics import CountTriple, monte_carlo_probs

RNG = np.random.default_rng(11)

# test_estimate_at_the_midpoint_decodes_to_0's symbols, and that pair mirrored.
MIDPOINT_SYMBOLS = (0.5002685393768099, 0.2118899894991768)
MIRRORED_MIDPOINT_SYMBOLS = MIDPOINT_SYMBOLS[::-1]

# Upper 0.1% points of the chi-squared law, by degrees of freedom.
CHI2_CRITICAL_0_001 = {6: 22.458, 8: 26.124}


def binomial_chi2(counts, n, p):
    """Pearson chi-squared of counts of k in 0..n against Binomial(n, p), and its degrees of freedom.

    Each tail bin with an expected count below 5 is pooled into its neighbour.
    """
    histogram = [0] * (n + 1)
    for k in counts:
        histogram[k] += 1
    expected = [len(counts) * math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    for end in (0, -1):
        while expected[end] < 5.0:
            tail, tail_count = expected.pop(end), histogram.pop(end)
            expected[end] += tail
            histogram[end] += tail_count
    return sum((o - e) ** 2 / e for o, e in zip(histogram, expected)), len(expected) - 1


def binomial_tail(n, p, lo, hi):
    """P(lo <= X < hi) for X ~ Binomial(n, p), 0 < p < 1, summed in log space so it scales to any n."""
    if lo >= hi:
        return 0.0
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in range(lo, hi)
    ]
    top = max(log_pmf)
    return math.exp(top) * math.fsum(math.exp(t - top) for t in log_pmf)


def binomial_tail_by_comb(n, p, lo, hi):
    """binomial_tail from math.comb and powers: exact terms, but comb(n, k) overflows a double past n ~ 1030."""
    return math.fsum(math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(lo, hi))


class TestBinomialTail:
    @pytest.mark.parametrize("n", [1, 2, 7, 10, 31, 60])
    @pytest.mark.parametrize("p", [1.0 / 3.0, 2.0 / 3.0, 0.5, 0.01, 0.999])
    def test_equals_the_comb_sum_at_small_n(self, n, p):
        for lo, hi in ((0, n // 2), (n // 2, n + 1), (0, n + 1), (1, n), (n, n + 1), (3, 3)):
            assert binomial_tail(n, p, lo, hi) == pytest.approx(binomial_tail_by_comb(n, p, lo, hi), rel=1e-12, abs=0)

    def test_stays_finite_where_the_comb_sum_overflows(self):
        n, p = 2000, 2.0 / 3.0
        with pytest.raises(OverflowError):
            binomial_tail_by_comb(n, p, 0, n // 2)
        below, above = binomial_tail(n, p, 0, n // 2), binomial_tail(n, p, n // 2, n + 1)
        assert 0.0 < below < 1e-40
        assert above == pytest.approx(1.0 - below, rel=1e-12)


class TestConfig:
    def test_defaults(self):
        cfg = ProtocolConfig(pairs_per_bit=100)
        assert cfg.theta_bit0 == 0.0
        assert cfg.theta_bit1 == pytest.approx(np.pi / 4)

    def test_rejects_indistinguishable_symbols(self):
        # pi/2 apart, or mirror images: the same |2,0> probability, so the
        # decoder cannot tell them apart.
        for variant in Variant:
            for theta_bit0, theta_bit1 in ((0.0, np.pi / 2), (np.pi / 8, -np.pi / 8)):
                with pytest.raises(ValueError, match=r"same \|2,0> probability"):
                    ProtocolConfig(100, theta_bit0, theta_bit1, variant)

    def test_rejects_symbols_within_tolerance_near_a_flat_point(self):
        # p20 is flat at theta = 0: 1e-7 moves it ~1.3e-14, 1e-6 ~1.3e-12.
        with pytest.raises(ValueError, match=r"same \|2,0> probability"):
            ProtocolConfig(pairs_per_bit=100, theta_bit0=0.0, theta_bit1=1e-7)
        ProtocolConfig(pairs_per_bit=100, theta_bit0=0.0, theta_bit1=1e-6)

    @pytest.mark.parametrize("variant", ["identical", None])
    def test_rejects_variant_that_is_not_a_member(self, variant):
        with pytest.raises(ValueError, match="variant must be a Variant"):
            ProtocolConfig(pairs_per_bit=100, variant=variant)

    def test_rejects_angles_beyond_domain(self):
        # Opposite angles near the top of the double range: each is checked alone.
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

    def test_estimate_at_the_midpoint_decodes_to_0(self, monkeypatch):
        # Symbols whose midpoint rounds nearer p1, so the distance rule alone would say 1.
        cfg = ProtocolConfig(10, *MIDPOINT_SYMBOLS)
        p0 = closed_form_probs(cfg.theta_bit0, cfg.variant).p20
        p1 = closed_form_probs(cfg.theta_bit1, cfg.variant).p20
        midpoint = 0.5 * (p0 + p1)
        assert abs(midpoint - p1) < abs(midpoint - p0)
        k = int(midpoint * 2**60)  # k / 2**60 == midpoint exactly
        monkeypatch.setattr(protocol, "monte_carlo_probs", lambda *args, **kwargs: CountTriple(k, 0, 2**60 - k))
        report = transmit(cfg, [1])
        assert report.per_bit_estimates == (midpoint,)
        assert report.decoded_bits == (0,)

    def test_rejects_bad_bits(self):
        cfg = ProtocolConfig(pairs_per_bit=10)
        with pytest.raises(ValueError):
            transmit(cfg, [])
        with pytest.raises(ValueError):
            transmit(cfg, [0, 2])

    @pytest.mark.parametrize("bit", [0.5, 1.7, "1", np.float64(1.0), None, True, False])
    def test_rejects_bits_that_are_not_the_integers_0_or_1(self, bit):
        # int() used to truncate: [0.5, 1.7] was sent as (0, 1).
        with pytest.raises(ValueError, match=r"^bits must be the integers 0 or 1$"):
            transmit(ProtocolConfig(pairs_per_bit=10), [0, bit])

    def test_accepts_numpy_integer_bits(self):
        cfg = ProtocolConfig(pairs_per_bit=20, seed=4)
        report = transmit(cfg, [np.int64(1), np.uint8(0), np.int32(1)])
        assert report == transmit(cfg, [1, 0, 1])
        assert all(type(b) is int for b in report.sent_bits)

    def test_seed_determinism(self):
        cfg = ProtocolConfig(pairs_per_bit=50, seed=9)
        assert transmit(cfg, [1, 0, 1]) == transmit(cfg, [1, 0, 1])

    @pytest.mark.byte_identity
    @settings(max_examples=200)
    @given(
        st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**200)),
        st.integers(1, 40),
    )
    @example(0, 5)
    @example(3, 5)
    @example(2**32 - 1, 5)
    @example(2**32, 5)
    @example(2**64 - 1, 5)
    @example(12345678901234567890, 5)
    @example(2**130 + 7, 5)
    @example(5, 2 * protocol._SEED_BLOCK + 3)  # three blocks, the last partial
    def test_seeding_equals_numpys(self, seed, count):
        # transmit's seeding of every bit at once is a second implementation of numpy's.
        expected = [np.random.default_rng((seed, i)).bit_generator.state for i in range(count)]
        assert list(protocol._pcg64_states(seed, count)) == expected

    @pytest.mark.byte_identity
    @settings(max_examples=150)
    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=40),
        st.integers(0, 2**64),
        st.integers(1, 2000),
        st.sampled_from(Variant),
        st.sampled_from([(0.0, np.pi / 4), MIDPOINT_SYMBOLS, MIRRORED_MIDPOINT_SYMBOLS]),
    )
    @example([1, 0, 1], 3, 20000, Variant.IDENTICAL, (0.0, np.pi / 4))  # a bit spans two _CHUNK_ROWS chunks
    @example([0, 1, 1, 0], 7, 37, Variant.DISTINGUISHABLE, MIRRORED_MIDPOINT_SYMBOLS)
    @example(  # three seeding blocks, the last partial
        [i % 2 for i in range(2 * protocol._SEED_BLOCK + 3)], 5, 3, Variant.DISTINGUISHABLE, (0.0, np.pi / 4)
    )
    def test_estimates_equal_per_bit_kernel_calls(self, bits, seed, pairs, variant, symbols):
        # The thresholds built once per transmit give each bit's own kernel call's doubles.
        cfg = ProtocolConfig(pairs, *symbols, variant, seed)
        expected = [
            monte_carlo_probs(symbols[bit], variant, pairs, (seed, i)).estimates().p20.hex()
            for i, bit in enumerate(bits)
        ]
        assert [p.hex() for p in transmit(cfg, bits).per_bit_estimates] == expected

    @pytest.mark.parametrize(
        "variant,symbols", [(Variant.DISTINGUISHABLE, (0.0, np.pi / 4)), (Variant.IDENTICAL, (np.pi / 8, np.pi / 3))]
    )
    def test_per_bit_counts_follow_the_binomial_law(self, variant, symbols):
        # Bit i's |2,0> count is Binomial(pairs, p20) and independent of the other bits'.
        pairs, length = 10, 4000
        counts = ([], [])
        for seed in (0, 1):
            report = transmit(ProtocolConfig(pairs, *symbols, variant, seed), [i % 2 for i in range(length)])
            for bit, estimate in zip(report.sent_bits, report.per_bit_estimates):
                counts[bit].append(round(estimate * pairs))
        for theta, symbol_counts in zip(symbols, counts):
            chi2, dof = binomial_chi2(symbol_counts, pairs, closed_form_probs(theta, variant).p20)
            assert chi2 < CHI2_CRITICAL_0_001[dof]

    def test_error_rate_matches_the_binomial_tail(self):
        # Bit 0's |2,0> count is Binomial(10, 2/3), and it errs below 5 of 10; bit 1's is
        # Binomial(10, 1/3), and it errs at 5 or more, since the midpoint 1/2 decodes to 0.
        pairs, length = 10, 4000
        cfg0 = ProtocolConfig(pairs)
        p0, p1 = (closed_form_probs(t, cfg0.variant).p20 for t in (cfg0.theta_bit0, cfg0.theta_bit1))
        per_bit = (binomial_tail(pairs, p0, 0, pairs // 2), binomial_tail(pairs, p1, pairs // 2, pairs + 1))
        errors, sent = [0, 0], [0, 0]
        for seed in (0, 1):
            report = transmit(ProtocolConfig(pairs, seed=seed), [i % 2 for i in range(length)])
            for bit, decoded in zip(report.sent_bits, report.decoded_bits):
                errors[bit] += decoded != bit
                sent[bit] += 1
        for bit in (0, 1):
            q = per_bit[bit]
            assert abs(errors[bit] - sent[bit] * q) < 4.0 * math.sqrt(sent[bit] * q * (1.0 - q))

    def test_memory_does_not_grow_with_the_bit_count(self):
        # The report holds ~60 B per bit; a state dict held for every bit would add ~700 B.
        cfg, bits = ProtocolConfig(pairs_per_bit=1), [i % 2 for i in range(20_000)]
        transmit(cfg, bits[:10])  # numpy's first-call allocations are not the bits'
        tracemalloc.start()
        try:
            transmit(cfg, bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("length", [1, 200])
    def test_tables_are_built_once_per_call(self, length, monkeypatch):
        # Each symbol scatters |theta> and |theta + pi/2> once, whatever the bit count.
        calls = []
        scatter = statistics.scatter
        monkeypatch.setattr(statistics, "scatter", lambda *args: calls.append(args) or scatter(*args))
        transmit(ProtocolConfig(pairs_per_bit=10), [i % 2 for i in range(length)])
        assert len(calls) == 4

    @pytest.mark.parametrize("length", [1, 200])
    def test_no_probability_triple_per_bit(self, length, monkeypatch):
        # The decoder reads n20 / total from the counts; only the symbols' closed-form p20s build triples.
        cfg, calls = ProtocolConfig(pairs_per_bit=10), []
        check = ProbabilityTriple.__post_init__
        monkeypatch.setattr(ProbabilityTriple, "__post_init__", lambda self: calls.append(self) or check(self))
        transmit(cfg, [i % 2 for i in range(length)])
        assert len(calls) == 2


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

    def test_float32_angle_is_computed_in_double(self):
        # In float32, theta + pi/2 is not orthogonal to theta: the matrix was 5.96e-8 from I/2.
        rho = reduced_density(np.float32(0.3))
        assert rho.dtype == np.float64
        assert np.array_equal(rho, reduced_density(float(np.float32(0.3))))
        assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-15

    @pytest.mark.parametrize("theta", [2.0**20 + 1, 2.0**53, 1e300, float("nan"), float("inf"), float("-inf")])
    def test_rejects_angles_beyond_domain(self, theta):
        # Beyond 2^20, theta + pi/2 is not orthogonal to theta, so the matrix is not I/2.
        with pytest.raises(ValueError, match="theta must satisfy"):
            reduced_density(theta)


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
