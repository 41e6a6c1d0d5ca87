"""Tests for the stochastic photon readout model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from lockinsim import readout
from lockinsim.readout import (
    ReadoutModel,
    depolarization_survival,
    expected_counts,
    noise_variance,
    sample_counts,
    threshold_gain,
)

# Frozen reference values at the standard operating point
# (n = 260 readouts, gain slope 0.105 photons, contrast 0.35).
REFERENCE_GAIN = 27.3
REFERENCE_NOISE_VARIANCE = 45.34700625
REFERENCE_THRESHOLD = 26.93877551020409

# Golden first draws for a pinned seed: the two-stage draw order
# (Bernoulli uniforms, then count uniforms) must stay reproducible across
# versions. Depolarization takes no draws of its own and leaves p = 1/2 at
# 1/2, so the two lists are equal.
GOLDEN_COUNTS_PLAIN = [37, 15, 26, 19, 22, 22, 20, 19]
GOLDEN_COUNTS_DEPOLARIZED = [37, 15, 26, 19, 22, 22, 20, 19]


def reference_model(**kwargs) -> ReadoutModel:
    return ReadoutModel(qnd_repetitions=260, contrast=0.35, **kwargs)


class TestModelValidation:
    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            ReadoutModel(qnd_repetitions=0, contrast=0.35)

    @pytest.mark.parametrize("contrast", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_contrast_outside_open_unit_interval(self, contrast):
        with pytest.raises(ValueError):
            ReadoutModel(qnd_repetitions=100, contrast=contrast)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            ReadoutModel(qnd_repetitions=100, contrast=0.35, gain_slope_photons=-0.1)
        with pytest.raises(ValueError):
            ReadoutModel(qnd_repetitions=100, contrast=0.35, depolarization_per_readout=-1e-4)
        with pytest.raises(ValueError):
            ReadoutModel(qnd_repetitions=100, contrast=0.35, readout_unit_time_s=0.0)

    def test_mean_gain_is_capped_at_2_to_the_32_photons(self):
        ReadoutModel(qnd_repetitions=2**32, contrast=0.35, gain_slope_photons=1.0)
        with pytest.raises(ValueError, match=r"qnd_repetitions \* gain_slope_photons"):
            ReadoutModel(qnd_repetitions=2**32, contrast=0.35, gain_slope_photons=1.0 + 2**-40)

    def test_gain_and_readout_time_scale_with_repetitions(self):
        model = reference_model()
        assert model.mean_gain_photons == pytest.approx(REFERENCE_GAIN, rel=1e-15)
        assert model.readout_time_s == pytest.approx(260 * 2.32e-6, rel=1e-15)
        long = ReadoutModel(qnd_repetitions=1000, contrast=0.35)
        assert long.readout_time_s == pytest.approx(2.32e-3, rel=1e-12)


class TestThresholdGain:
    def test_reference_contrast_threshold(self):
        value = threshold_gain(0.35)
        assert value == pytest.approx(REFERENCE_THRESHOLD, rel=1e-14)
        assert value == pytest.approx(26.94, abs=0.01)

    @given(st.floats(0.05, 0.95))
    def test_threshold_balances_projection_and_shot_noise(self, contrast):
        gain = threshold_gain(contrast)
        projection = 0.25 * gain**2 * contrast**2
        shot = gain * (1.0 - contrast / 2.0)
        assert projection == pytest.approx(shot, rel=1e-12)

    def test_rejects_invalid_contrast(self):
        with pytest.raises(ValueError):
            threshold_gain(0.0)
        with pytest.raises(ValueError):
            threshold_gain(1.5)


class TestNoiseVariance:
    def test_reference_operating_point_value(self):
        assert noise_variance(reference_model()) == pytest.approx(
            REFERENCE_NOISE_VARIANCE, rel=1e-15
        )

    def test_matches_sum_of_projection_and_shot_terms(self):
        model = ReadoutModel(qnd_repetitions=996, contrast=0.2)
        gain = model.mean_gain_photons
        expected = 0.25 * gain**2 * 0.2**2 + gain * (1.0 - 0.1)
        assert noise_variance(model) == pytest.approx(expected, rel=1e-14)

    def test_vanishes_with_the_gain(self):
        tiny = ReadoutModel(qnd_repetitions=1, contrast=0.35, gain_slope_photons=1e-9)
        assert noise_variance(tiny) < 1e-8

    def test_monotone_in_repetitions(self):
        values = [
            noise_variance(ReadoutModel(qnd_repetitions=n, contrast=0.35))
            for n in (10, 100, 500, 2000)
        ]
        assert values == sorted(values)


class TestDepolarization:
    def test_survival_is_exponential_in_total_readouts(self):
        assert depolarization_survival(reference_model(depolarization_per_readout=1.4e-4)) == (
            pytest.approx(0.9642545145266648, rel=1e-14)
        )
        heavy = ReadoutModel(
            qnd_repetitions=2000, contrast=0.35, depolarization_per_readout=1.4e-4
        )
        assert depolarization_survival(heavy) ** 2 == pytest.approx(
            math.exp(-0.56), rel=1e-12
        )

    def test_no_depolarization_means_full_survival(self):
        assert depolarization_survival(reference_model()) == 1.0


class TestExpectedCounts:
    def test_endpoint_probabilities(self):
        model = reference_model()
        assert expected_counts(model, 0.0) == pytest.approx(REFERENCE_GAIN, rel=1e-14)
        assert expected_counts(model, 1.0) == pytest.approx(REFERENCE_GAIN * 0.65, rel=1e-14)
        assert expected_counts(model, 0.5) == pytest.approx(REFERENCE_GAIN * (1 - 0.175), rel=1e-14)

    def test_depolarization_pulls_probability_toward_one_half(self):
        model = ReadoutModel(
            qnd_repetitions=500, contrast=0.35, depolarization_per_readout=1e-3
        )
        survival = math.exp(-0.5)
        p_eff = survival * 0.9 + (1.0 - survival) / 2.0
        gain = model.mean_gain_photons
        assert expected_counts(model, 0.9) == pytest.approx(
            gain * (1.0 - 0.35 * p_eff), rel=1e-12
        )


class TestSampleCounts:
    def test_deterministic_for_a_fixed_seed(self):
        model = reference_model()
        p = np.linspace(0.1, 0.9, 100)
        a = sample_counts(model, p, np.random.default_rng(np.random.SeedSequence(7)))
        b = sample_counts(model, p, np.random.default_rng(np.random.SeedSequence(7)))
        np.testing.assert_array_equal(a, b)

    def test_golden_draws_pin_the_draw_order(self):
        p = np.full(8, 0.5)
        plain = sample_counts(
            reference_model(), p, np.random.default_rng(np.random.SeedSequence(1234))
        )
        assert list(plain) == GOLDEN_COUNTS_PLAIN
        depol = sample_counts(
            reference_model(depolarization_per_readout=1.4e-4),
            p,
            np.random.default_rng(np.random.SeedSequence(1234)),
        )
        assert list(depol) == GOLDEN_COUNTS_DEPOLARIZED

    def test_rejects_probabilities_outside_unit_interval(self):
        model = reference_model()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_counts(model, np.array([-0.01]), rng)
        with pytest.raises(ValueError):
            sample_counts(model, np.array([0.2, 1.01]), rng)
        with pytest.raises(ValueError, match=r"^probabilities must be finite, got nan$"):
            sample_counts(model, np.array([math.nan, math.nan, 0.5]), rng)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32))
    def test_counts_are_nonnegative_integers(self, probs):
        counts = sample_counts(
            reference_model(), np.array(probs), np.random.default_rng(3)
        )
        assert counts.dtype.kind in "iu"
        assert np.all(counts >= 0)

    def test_bright_and_dark_state_means(self):
        model = reference_model()
        rng = np.random.default_rng(42)
        draws = 400_000
        dark = sample_counts(model, np.zeros(draws), rng)
        se = math.sqrt(REFERENCE_GAIN / draws)
        assert abs(float(np.mean(dark)) - REFERENCE_GAIN) <= 4.0 * se
        bright = sample_counts(model, np.ones(draws), rng)
        mean_bright = REFERENCE_GAIN * 0.65
        se_b = math.sqrt(mean_bright / draws)
        assert abs(float(np.mean(bright)) - mean_bright) <= 4.0 * se_b

    def test_variance_at_balanced_probability_matches_noise_model(self):
        model = reference_model()
        rng = np.random.default_rng(2718)
        draws = 2_000_000
        counts = sample_counts(model, np.full(draws, 0.5), rng).astype(float)
        sample_var = float(np.var(counts, ddof=1))
        centered = counts - counts.mean()
        var_of_var = float(np.mean(centered**4) - sample_var**2) / draws
        assert abs(sample_var - REFERENCE_NOISE_VARIANCE) <= 4.0 * math.sqrt(var_of_var)

    def test_vanishing_contrast_is_state_independent_shot_noise(self):
        model = ReadoutModel(qnd_repetitions=260, contrast=1e-9)
        rng = np.random.default_rng(11)
        draws = 300_000
        counts = sample_counts(model, np.full(draws, 0.9), rng).astype(float)
        se = math.sqrt(REFERENCE_GAIN / draws)
        assert abs(float(np.mean(counts)) - REFERENCE_GAIN) <= 4.0 * se
        var_se = REFERENCE_GAIN * math.sqrt(2.0 / draws) * 2.0
        assert abs(float(np.var(counts)) - REFERENCE_GAIN) <= 4.0 * var_se

    def test_depolarized_sampling_matches_effective_probability(self):
        model = ReadoutModel(
            qnd_repetitions=500, contrast=0.35, depolarization_per_readout=1e-3
        )
        rng = np.random.default_rng(555)
        draws = 400_000
        counts = sample_counts(model, np.full(draws, 0.9), rng).astype(float)
        expected = expected_counts(model, 0.9)
        se = math.sqrt(float(np.var(counts)) / draws)
        assert abs(float(np.mean(counts)) - float(expected)) <= 4.0 * se


class _Uniforms:
    """A stand-in generator whose ``random`` returns the given arrays in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        out = self.draws.pop(0)
        assert out.size == np.prod(size)
        return out.reshape(size)


class TestCountTable:
    @pytest.mark.parametrize("mean", [0.07, 6.8, 27.3, 210.0, 1e4])
    def test_cdf_matches_scipy(self, mean):
        k0, cdf = readout._count_cdf(mean)
        assert cdf[-1] == 1.0
        assert k0 <= mean - 10.0 * math.sqrt(mean) or k0 == 0
        assert k0 + cdf.size - 1 >= mean + 10.0 * math.sqrt(mean)
        reference = stats.poisson.cdf(np.arange(k0, k0 + cdf.size), mean)
        np.testing.assert_allclose(cdf, reference, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mean", [0.0, 5e-324, 1e-21])
    def test_a_vanishing_mean_is_one_entry_at_zero(self, mean):
        with np.errstate(all="raise"):
            k0, cdf = readout._count_cdf(mean)
        assert k0 == 0 and cdf.tolist() == [1.0]

    def test_smallest_gain_draws_zeros_without_a_fault(self):
        # The bright-state mean C (1 - eps) / k underflows to 0 in the log pmf.
        model = ReadoutModel(qnd_repetitions=1, contrast=0.35, gain_slope_photons=5e-324)
        with np.errstate(all="raise"):
            counts = sample_counts(model, np.linspace(0.0, 1.0, 101), np.random.default_rng(4))
        np.testing.assert_array_equal(counts, 0)

    @pytest.mark.parametrize("gain_slope", [0.105, 2.0**32 / 260], ids=["shipped", "largest"])
    def test_guide_lookup_is_the_inverse_transform(self, gain_slope):
        """Every uniform, at and just below each guide-bucket edge and each
        CDF value, gets the count a binary search of its state's CDF gives."""
        model = ReadoutModel(qnd_repetitions=260, contrast=0.35, gain_slope_photons=gain_slope)
        gain = model.mean_gain_photons
        tables = [readout._count_cdf(gain), readout._count_cdf(gain * (1.0 - model.contrast))]
        edges = np.arange(readout._MAX_GUIDE_BUCKETS) / readout._MAX_GUIDE_BUCKETS
        steps = np.concatenate([cdf[cdf < 1.0] for _, cdf in tables])
        exact = np.concatenate([edges, steps])
        u = np.concatenate(
            [exact, np.nextafter(exact[1:], 0.0), np.random.default_rng(8).random(4096)]
        )
        state = np.repeat([False, True], u.size)
        u = np.tile(u, 2)
        counts = sample_counts(model, state.astype(float), _Uniforms(np.full(u.size, 0.5), u))
        for b, (k0, cdf) in enumerate(tables):
            expected = k0 + np.searchsorted(cdf, u[state == b], side="right")
            np.testing.assert_array_equal(counts[state == b], expected)

    @pytest.mark.parametrize(
        ("depolarization", "p", "seed"), [(0.0, 0.0, 21), (0.0, 1.0, 22), (1e-3, 0.9, 23)]
    )
    def test_chi_square_against_the_poisson_mixture(self, depolarization, p, seed):
        """10^6 draws against the law b ~ Bernoulli(p_eff), y ~ Poisson(C (1 - eps b)),
        with bins of expected count below 5 pooled into the tails."""
        model = ReadoutModel(
            qnd_repetitions=500, contrast=0.35, depolarization_per_readout=depolarization
        )
        draws = 1_000_000
        counts = sample_counts(model, np.full(draws, p), np.random.default_rng(seed))
        gain = model.mean_gain_photons
        survival = depolarization_survival(model)
        p_eff = survival * p + (1.0 - survival) / 2.0
        k = np.arange(int(counts.max()) + 1)
        pmf = (1.0 - p_eff) * stats.poisson.pmf(k, gain) + p_eff * stats.poisson.pmf(
            k, gain * (1.0 - model.contrast)
        )
        observed = np.bincount(counts, minlength=k.size)
        keep = np.flatnonzero(pmf * draws >= 5.0)
        lo, hi = keep[0], keep[-1]
        expected = np.concatenate(
            [[pmf[: lo + 1].sum()], pmf[lo + 1 : hi], [1.0 - pmf[:hi].sum()]]
        ) * draws
        binned = np.concatenate(
            [[observed[: lo + 1].sum()], observed[lo + 1 : hi], [observed[hi:].sum()]]
        )
        assert binned.sum() == draws
        result = stats.chisquare(binned, expected)
        assert result.pvalue > 1e-3, result
