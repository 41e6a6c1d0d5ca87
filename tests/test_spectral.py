"""Tests for spectra, SNR accounting, Lorentzian fitting, and scaling studies."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from lockinsim.lockin import CpmgSequence
from lockinsim.readout import ReadoutModel, noise_variance
from lockinsim.sampler import SamplingSchedule, TimeTrace, run_sampling, undersampled_bin
from lockinsim.signal import AcSignal, FmNoise, Tone
from lockinsim.spectral import (
    FitError,
    PowerSpectrum,
    _SPLIT_PRIME,
    _largest_prime_factor,
    _lorentzian_jacobian,
    _median,
    _reseed_fm,
    _rfft_power,
    average_spectra,
    default_noise_band,
    find_peak_bin,
    fit_lorentzian,
    locate_target_peak,
    lorentzian,
    measure_snr,
    noise_floor_level,
    power_spectrum,
    predicted_snr,
    scaling_study,
)

from .helpers import brute_force_power, omega_for_phi_max, two_sided_total

REFERENCE_MODEL = ReadoutModel(qnd_repetitions=260, contrast=0.35)
REFERENCE_SNR_AT_1E4_SAMPLES = 314.58121684163  # C=27.3, contrast 0.35, phi=0.5


def synthetic_spectrum(power: np.ndarray, bin_width_hz: float = 1.0) -> PowerSpectrum:
    n_bins = power.size
    num_samples = 2 * (n_bins - 1)
    return PowerSpectrum(
        power=np.asarray(power, dtype=float),
        sample_rate_hz=bin_width_hz * num_samples,
        num_samples=num_samples,
    )


def band_mask(spectrum: PowerSpectrum, bins: list[int]) -> np.ndarray:
    """The noise-band mask that holds exactly ``bins``."""
    mask = np.zeros(spectrum.num_bins, dtype=bool)
    mask[bins] = True
    return mask


def zero_signal_trace(num_samples: int, seed: int):
    f_ac = 1.2e6
    seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * f_ac))
    sched = SamplingSchedule(5e-4, num_samples)
    sig = AcSignal(tones=(Tone(frequency_hz=f_ac, amplitude_rad_per_s=0.0),))
    return run_sampling(sig, seq, REFERENCE_MODEL, sched, seed)


def onbin_tone_trace(num_samples: int, seed: int, phi_max: float = 0.5, fold: float = 0.31415):
    """Trace of a resonant tone whose fold lands exactly on a record bin."""
    f_ac = 1.2e6
    seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * f_ac))
    t_s = SamplingSchedule(5e-4, num_samples).period_s(seq, REFERENCE_MODEL)
    fold = round(fold * num_samples) / num_samples  # land exactly on a record bin
    cycles = round(f_ac * t_s) + fold
    f_sig = cycles / t_s
    seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * f_sig))
    sched = SamplingSchedule.from_period(seq, REFERENCE_MODEL, t_s, num_samples)
    omega = omega_for_phi_max(phi_max, seq.sensing_time_s)
    sig = AcSignal(tones=(Tone(frequency_hz=f_sig, amplitude_rad_per_s=omega, phase_rad=0.6),))
    trace = run_sampling(sig, seq, REFERENCE_MODEL, sched, seed)
    return trace, undersampled_bin(f_sig, trace.sample_rate_hz, num_samples)


class TestPowerSpectrum:
    @pytest.mark.parametrize("num_samples", [17, 97, 256, 1000])
    def test_matches_direct_dft_sum(self, num_samples):
        rng = np.random.default_rng(num_samples)
        counts = rng.integers(0, 60, num_samples)
        spec = power_spectrum(counts.astype(np.int64), sample_rate_hz=100.0)
        oracle = brute_force_power(counts.astype(float))
        np.testing.assert_allclose(spec.power, oracle, rtol=1e-9, atol=1e-6)

    @pytest.mark.parametrize("num_samples", [64, 65])
    def test_total_power_matches_time_domain_energy(self, num_samples):
        rng = np.random.default_rng(3 * num_samples)
        values = rng.normal(10.0, 3.0, num_samples)
        spec = power_spectrum(values, sample_rate_hz=50.0)
        total = two_sided_total(spec.power, num_samples)
        assert total == pytest.approx(num_samples * float(np.sum(values**2)), rel=1e-10)

    def test_constant_trace_concentrates_at_dc(self):
        spec = power_spectrum(np.full(128, 7.0), sample_rate_hz=10.0)
        assert spec.power[0] == pytest.approx((128 * 7.0) ** 2, rel=1e-12)
        assert float(np.max(spec.power[1:])) <= 1e-18 * spec.power[0]

    def test_onbin_cosine_peak_power(self):
        n, amp, bin_idx = 500, 3.0, 40
        k = np.arange(n)
        values = 10.0 + amp * np.cos(2.0 * math.pi * bin_idx * k / n + 1.1)
        spec = power_spectrum(values, sample_rate_hz=1.0)
        assert spec.power[bin_idx] == pytest.approx((n * amp / 2.0) ** 2, rel=1e-10)

    def test_bin_width_is_reciprocal_duration(self):
        spec = power_spectrum(np.arange(100, dtype=np.int64), sample_rate_hz=200.0)
        assert spec.bin_width_hz == pytest.approx(2.0, rel=1e-15)
        np.testing.assert_allclose(
            spec.frequencies_hz, 2.0 * np.arange(51), rtol=1e-15
        )
        assert spec.num_bins == 51

    def test_bin_width_is_the_rate_over_the_length(self):
        assert PowerSpectrum(np.ones(5), sample_rate_hz=3.0, num_samples=8).bin_width_hz == 3.0 / 8

    def test_hour_long_reference_trace_resolves_sub_millihertz(self):
        # One hour at the reference 4.21152 ms period: bin width 278 uHz.
        t_s = 4.21152e-3
        num = int(round(3600.0 / t_s))
        spec = power_spectrum(np.ones(8, dtype=np.int64), sample_rate_hz=1.0 / t_s)
        bin_width = (1.0 / t_s) / num
        assert bin_width * 1e6 == pytest.approx(278.0, abs=0.5)
        assert spec.bin_width_hz == pytest.approx((1.0 / t_s) / 8.0, rel=1e-12)

    def test_raw_array_requires_sample_rate(self):
        with pytest.raises(ValueError):
            power_spectrum(np.arange(8, dtype=np.int64))

    def test_accepts_time_trace_objects(self):
        trace = zero_signal_trace(64, 5)
        spec = power_spectrum(trace)
        assert spec.num_samples == 64
        assert spec.sample_rate_hz == pytest.approx(1.0 / trace.sampling_period_s)


def direct_rfft(values: np.ndarray) -> np.ndarray:
    """X_k for k <= N/2 by the O(N^2) DFT sum, twiddle angles reduced mod N in int64."""
    n = values.size
    j = np.arange(n)
    return np.concatenate(
        [
            np.exp((-2j * math.pi / n) * (np.outer(k, j) % n)) @ values
            for k in np.array_split(np.arange(n // 2 + 1), 8)
        ]
    )


def rfft_power(x: np.ndarray) -> np.ndarray:
    """|X_k|^2 of ``np.fft.rfft(x)`` as re^2 + im^2."""
    spectrum = np.fft.rfft(x)
    return spectrum.real**2 + spectrum.imag**2


class TestSplitRfft:
    """``_rfft_power`` splits N = p q at a large prime factor p; elsewhere it
    squares rfft."""

    @pytest.mark.parametrize("n", [3 * 1009, 4 * 1009])
    def test_split_and_rfft_match_the_direct_dft(self, n):
        # q = 3 packs one pair of columns and transforms the last alone;
        # q = 4 packs two pairs. Bins within eps M of the oracle's, with M its
        # largest magnitude, have powers within (2 + eps) eps M^2 of its.
        assert _largest_prime_factor(n) > _SPLIT_PRIME
        x = np.random.default_rng(7).poisson(3.0, n).astype(float)
        oracle = np.abs(direct_rfft(x)) ** 2
        for got in (_rfft_power(x), rfft_power(x)):
            assert np.abs(got - oracle).max() <= (2 + 1e-12) * 1e-12 * oracle.max()

    @pytest.mark.parametrize("n", [385_263, 854_798, 757_759, 1009**2])
    def test_split_power_matches_rfft_on_poisson_traces(self, n):
        assert _SPLIT_PRIME < _largest_prime_factor(n) < n
        x = np.random.default_rng(n).poisson(3.0, n).astype(float)
        got, ref = _rfft_power(x), np.abs(np.fft.rfft(x)) ** 2
        # Noise bins within 1e-10 of their median power; the DC bin holds the
        # squared sum of all counts, so it is compared to its own size.
        assert np.abs(got[1:] - ref[1:]).max() <= 1e-10 * np.median(ref[1:])
        assert got[0] == pytest.approx(ref[0], rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 2**16, 456_190, 100_003, 331_553])
    def test_unsplit_lengths_are_rfft_bit_for_bit(self, n):
        p = _largest_prime_factor(n)
        assert p <= _SPLIT_PRIME or p == n
        x = np.random.default_rng(n).poisson(3.0, n).astype(float)
        assert np.array_equal(_rfft_power(x), rfft_power(x))

    @pytest.mark.parametrize("n", [3 * 1009, 385_263, 854_798])
    def test_no_transform_runs_over_the_whole_length(self, n, monkeypatch):
        lengths = []
        for name in ("fft", "rfft"):
            real = getattr(np.fft, name)

            def spy(a, *args, _real=real, axis=-1, **kwargs):
                lengths.append(np.shape(a)[axis])
                return _real(a, *args, axis=axis, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        p = _largest_prime_factor(n)
        spec = power_spectrum(np.ones(n), sample_rate_hz=1.0)
        assert spec.power[0] == pytest.approx(float(n) ** 2, rel=1e-13)
        assert lengths and n not in lengths
        assert max(lengths) <= max(p, n // p)

    @pytest.mark.parametrize("n", [385_263, 854_798])
    def test_split_spectrum_memory_peaks_below_two_and_a_half_counts(self, n):
        # The sweep record (p = 751, q = 513) and the hour-long AM record
        # (p = 61 057, q = 14). The counts go in uncopied and each row block
        # leaves as power, so the peak is the packed columns (the counts'
        # size), the power (half that) and one block.
        trace = TimeTrace(np.random.default_rng(5).poisson(3.0, n), 1.0)
        tracemalloc.start()
        try:
            power_spectrum(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * trace.counts.nbytes


class TestAverageSpectra:
    def test_mean_of_replicates(self):
        a = synthetic_spectrum(np.array([1.0, 2.0, 3.0]))
        b = synthetic_spectrum(np.array([3.0, 6.0, 9.0]))
        avg = average_spectra([a, b])
        np.testing.assert_allclose(avg.power, [2.0, 4.0, 6.0], rtol=1e-15)

    def test_rejects_mismatched_or_empty_inputs(self):
        a = synthetic_spectrum(np.array([1.0, 2.0, 3.0]))
        b = synthetic_spectrum(np.array([1.0, 2.0, 3.0]), bin_width_hz=2.0)
        with pytest.raises(ValueError):
            average_spectra([a, b])
        with pytest.raises(ValueError):
            average_spectra([])


class TestNoiseFloor:
    def test_floor_level_is_record_length_times_readout_variance(self):
        assert noise_floor_level(REFERENCE_MODEL, 4096) == pytest.approx(
            4096 * 45.34700625, rel=1e-12
        )

    def test_zero_signal_floor_mean_and_std_agree_with_model(self):
        trace = zero_signal_trace(4096, 21)
        spec = power_spectrum(trace)
        noise = spec.power[1:-1]
        level = noise_floor_level(REFERENCE_MODEL, 4096)
        n = noise.size
        mean = float(np.mean(noise))
        std = float(np.std(noise, ddof=1))
        # Exponential bins: the sample mean has std level/sqrt(n).
        assert abs(mean - level) <= 4.0 * level / math.sqrt(n)
        # and the sample std concentrates around the same level.
        assert abs(std - level) <= 6.0 * level / math.sqrt(n)

    def test_zero_signal_bins_are_exponentially_distributed(self):
        trace = zero_signal_trace(4096, 77)
        spec = power_spectrum(trace)
        noise = spec.power[1:-1]
        normalized = noise / float(np.mean(noise))
        result = stats.kstest(normalized, "expon")
        assert result.pvalue > 1e-3


class TestSnrMeasurement:
    def test_band_validation(self):
        spec = synthetic_spectrum(np.arange(1.0, 32.0))
        with pytest.raises(ValueError, match="overlaps"):
            measure_snr(spec, 10, band_mask(spec, [8, 9, 10, 11]))
        with pytest.raises(ValueError, match="DC"):
            measure_snr(spec, 10, band_mask(spec, [0, 1, 2]))
        with pytest.raises(ValueError, match="two bins"):
            measure_snr(spec, 10, band_mask(spec, [5]))
        with pytest.raises(ValueError, match="out of range"):
            measure_snr(spec, spec.num_bins, band_mask(spec, [4, 5, 6]))
        with pytest.raises(ValueError, match="zero variance"):
            flat = synthetic_spectrum(np.full(32, 3.0))
            measure_snr(flat, 10, band_mask(flat, [4, 5, 6]))

    def test_band_must_be_a_mask_over_the_bins(self):
        spec = synthetic_spectrum(np.arange(1.0, 32.0))
        good = band_mask(spec, [4, 5, 6])
        for wrong in (good[:-1], np.append(good, False), good[None, :], [4, 5, 6],
                      good.astype(int)):
            with pytest.raises(ValueError, match="boolean mask of 31 bins"):
                measure_snr(spec, 10, wrong)

    def test_report_counts_the_band_and_reads_it_in_bin_order(self):
        spec = synthetic_spectrum(np.array([0.0, 4.0, 6.0, 100.0, 5.0, 3.0, 6.0]))
        report = measure_snr(spec, 3, band_mask(spec, [1, 2, 4, 5, 6]))
        noise = np.array([4.0, 6.0, 5.0, 3.0, 6.0])
        assert report.noise_band_bins == 5
        assert report.noise_mean == float(noise.mean())
        assert report.noise_std == float(noise.std(ddof=1))
        assert report.measured_snr == 100.0 / float(noise.std(ddof=1))

    def test_exact_mode_subtracts_the_noise_power_bias(self):
        spec = synthetic_spectrum(np.array([0.0, 4.0, 6.0, 100.0, 5.0, 3.0, 6.0]))
        band = band_mask(spec, [1, 2, 4, 5, 6])
        plain = measure_snr(spec, 3, band)
        exact = measure_snr(spec, 3, band, exact=True)
        assert exact.measured_snr == pytest.approx(plain.measured_snr - 1.0, rel=1e-12)

    def test_reference_prediction_value(self):
        assert predicted_snr(0.5, 10_000, REFERENCE_MODEL) == pytest.approx(
            REFERENCE_SNR_AT_1E4_SAMPLES, rel=1e-10
        )

    def test_prediction_doubles_with_record_length(self):
        one = predicted_snr(0.4, 50_000, REFERENCE_MODEL)
        two = predicted_snr(0.4, 100_000, REFERENCE_MODEL)
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_prediction_saturates_at_projection_noise_limit(self):
        # As the gain grows, shot noise becomes negligible and the SNR
        # approaches N phi^2 / 4.
        huge_gain = ReadoutModel(
            qnd_repetitions=1_000_000, contrast=0.35, gain_slope_photons=1.0
        )
        value = predicted_snr(0.3, 2_000, huge_gain)
        assert value == pytest.approx(2_000 * 0.09 / 4.0, rel=1e-3)

    def test_depolarization_costs_the_squared_survival(self):
        model = ReadoutModel(
            qnd_repetitions=2000, contrast=0.35, depolarization_per_readout=1.4e-4
        )
        ideal = predicted_snr(0.5, 10_000, model)
        depol = predicted_snr(0.5, 10_000, model, depolarized=True)
        assert depol == pytest.approx(ideal * math.exp(-0.56), rel=1e-12)

    def test_depolarized_gain_curve_peaks_near_840_readouts(self):
        # With the reference depolarization rate the analytic SNR-vs-n curve
        # has an interior optimum far above the threshold gain, and reaches
        # 80% of that optimum already near n = 283.
        ns = np.arange(10, 2001)
        curve = np.array(
            [
                predicted_snr(
                    0.5,
                    30_000,
                    ReadoutModel(
                        qnd_repetitions=int(n),
                        contrast=0.35,
                        depolarization_per_readout=1.4e-4,
                    ),
                    depolarized=True,
                )
                for n in ns
            ]
        )
        best = int(ns[np.argmax(curve)])
        knee = int(ns[np.argmax(curve >= 0.8 * np.max(curve))])
        assert best == 838
        assert knee == 283
        assert curve[-1] < 0.9 * np.max(curve)

    def test_measured_snr_tracks_the_prediction(self):
        num = 30_000
        trace, peak = onbin_tone_trace(num, seed=910)
        spec = power_spectrum(trace)
        found = find_peak_bin(spec)
        assert found == peak
        band = default_noise_band(spec, [peak])
        report = measure_snr(spec, peak, band)
        assert report.measured_snr == pytest.approx(
            predicted_snr(0.5, num, REFERENCE_MODEL), rel=0.2
        )

    def test_find_peak_ties_resolve_to_the_lowest_bin(self):
        power = np.ones(33)
        power[7] = power[21] = 50.0
        assert find_peak_bin(synthetic_spectrum(power)) == 7
        with pytest.raises(ValueError):
            find_peak_bin(synthetic_spectrum(power), 40, 10)

    def test_default_noise_band_guards_signal_dc_and_nyquist(self):
        spec = synthetic_spectrum(np.ones(201))
        band = default_noise_band(spec, [100], linewidth_bins=1.0, guard_linewidths=10.0)
        assert band.dtype == bool and band.shape == (spec.num_bins,)
        assert not band[0]
        assert not band[200]
        np.testing.assert_array_equal(np.flatnonzero(~band[1:200]) + 1, np.arange(90, 111))
        sub_bin = default_noise_band(spec, [100], linewidth_bins=0.2)
        np.testing.assert_array_equal(band, sub_bin)  # linewidth floors at one bin
        odd = PowerSpectrum(np.ones(201), sample_rate_hz=401.0, num_samples=401)
        assert default_noise_band(odd, [100])[200]  # bin 200 is no Nyquist bin at N = 401


def spiked_spectrum(spikes: dict[int, float]) -> PowerSpectrum:
    """201 bins of 1 Hz (N = 400, f_s = 400 Hz) on a floor of 1: f folds to f mod 400."""
    power = np.ones(201)
    for b, value in spikes.items():
        power[b] = value
    return synthetic_spectrum(power)


class TestTargetPeak:
    WINDOW = {"window_bins": 12, "window_linewidth_factor": 8.0}

    def test_searches_the_half_window_around_the_folded_bin(self):
        spec = spiked_spectrum({105: 20.0, 120: 50.0})
        peak = locate_target_peak(spec, 500.0, 0.0, **self.WINDOW)
        assert (peak.expected_bin, peak.peak_bin, peak.window) == (100, 105, (93, 118))

    def test_window_widens_with_the_linewidth(self):
        spec = spiked_spectrum({105: 20.0, 120: 50.0})
        peak = locate_target_peak(spec, 100.0, 2.5, **self.WINDOW)
        assert (peak.peak_bin, peak.window) == (120, (100, 141))

    def test_window_excludes_dc_and_stops_at_the_last_bin(self):
        low = locate_target_peak(spiked_spectrum({0: 1e3, 2: 5.0}), 3.0, 0.0, **self.WINDOW)
        assert (low.peak_bin, low.window) == (2, (1, 15))
        high = locate_target_peak(spiked_spectrum({200: 5.0}), 199.0, 0.0, **self.WINDOW)
        assert (high.peak_bin, high.window) == (200, (188, 201))


class TestMedian:
    def test_equals_numpy_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for size in [*range(1, 12), 100, 101, 1000, 1001]:
            values = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)
            assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()
            ties = rng.integers(0, 3, size).astype(float)
            assert _median(ties) == np.median(ties)

    def test_any_nan_gives_nan_as_numpy_does(self):
        for size in (1, 2, 7, 8):
            for where in range(size):
                values = np.arange(size, dtype=float)
                values[where] = np.nan
                assert math.isnan(_median(values)) and np.isnan(np.median(values))


class TestLorentzianFit:
    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        freqs = np.linspace(0.0, 100.0, 73)
        for _ in range(10):
            center = float(rng.uniform(20.0, 80.0))
            width = float(rng.uniform(0.5, 10.0))
            amp = float(rng.uniform(1.0, 100.0))
            jac = _lorentzian_jacobian(freqs, center, width, amp)
            for column, (name, step) in enumerate(
                [("center", 1e-5), ("width", 1e-6), ("amplitude", 1e-6)]
            ):
                params = [center, width, amp, 0.0]
                hi, lo = list(params), list(params)
                hi[column] += step
                lo[column] -= step
                numeric = (lorentzian(freqs, *hi) - lorentzian(freqs, *lo)) / (2 * step)
                np.testing.assert_allclose(
                    jac[:, column], numeric, rtol=1e-5, atol=1e-7 * max(1.0, amp / width)
                )
            np.testing.assert_allclose(jac[:, 3], np.ones(freqs.size))

    def test_noiseless_lorentzian_is_recovered_exactly(self):
        freqs = np.arange(2049.0)
        power = lorentzian(freqs, 1000.0, 8.0, 50.0, 5.0)
        spec = synthetic_spectrum(power)
        fit = fit_lorentzian(spec, (960, 1041))
        assert fit.converged
        assert fit.center_hz == pytest.approx(1000.0, abs=1e-9)
        assert fit.width_hz == pytest.approx(8.0, rel=1e-9)
        assert fit.amplitude == pytest.approx(50.0, rel=1e-9)
        assert fit.offset == pytest.approx(5.0, rel=1e-9)
        assert fit.sigma_center_hz < 1e-10

    def test_center_uncertainty_agrees_with_parametric_bootstrap(self):
        # Homoscedastic Gaussian noise on a resolved line: the covariance
        # route and a 200-replicate parametric bootstrap must agree within
        # a factor of 1.5.
        freqs = np.arange(2049.0)
        clean = lorentzian(freqs, 1000.0, 8.0, 50.0, 5.0)
        fit = fit_lorentzian(
            synthetic_spectrum(
                np.maximum(clean + np.random.default_rng(404).normal(0, 1.0, freqs.size), 0.0)
            ),
            (960, 1041),
        )
        centers = np.empty(200)
        for b in range(200):
            rng = np.random.default_rng(1000 + b)
            noisy = np.maximum(clean + rng.normal(0, 1.0, freqs.size), 0.0)
            centers[b] = fit_lorentzian(synthetic_spectrum(noisy), (960, 1041)).center_hz
        bootstrap = float(np.std(centers, ddof=1))
        assert 1.0 / 1.5 <= fit.sigma_center_hz / bootstrap <= 1.5

    def test_resolution_limited_peak_pins_the_width_floor(self):
        power = np.full(201, 2.0)
        power[100] = 5000.0
        spec = synthetic_spectrum(power, bin_width_hz=0.5)
        fit = fit_lorentzian(spec, (80, 121))
        assert fit.converged
        assert fit.width_hz == pytest.approx(0.25 * 0.5, rel=1e-12)
        assert fit.center_hz == pytest.approx(100 * 0.5, abs=1e-6)

    def test_window_must_span_at_least_five_bins(self):
        spec = synthetic_spectrum(np.ones(64))
        with pytest.raises(ValueError):
            fit_lorentzian(spec, (10, 14))

    def test_featureless_window_raises_fit_error(self):
        spec = synthetic_spectrum(np.full(64, 3.0))
        with pytest.raises(FitError):
            fit_lorentzian(spec, (10, 40))


def coherent_study_signal(phi_max=0.25, f_ac=1.2e6, pulse_count=32):
    tau = 1.0 / (2.0 * f_ac)
    seq = CpmgSequence(pulse_count=pulse_count, tau_s=tau)
    omega = omega_for_phi_max(phi_max, seq.sensing_time_s)
    sig = AcSignal(tones=(Tone(frequency_hz=f_ac, amplitude_rad_per_s=omega, phase_rad=0.7),))
    model = ReadoutModel(qnd_repetitions=498, contrast=0.35)
    sched = SamplingSchedule.from_period(seq, model, 20160.31 / f_ac, num_samples=1)
    return sig, seq, model, sched


class TestScalingStudy:
    def test_validates_the_duration_ladder(self):
        sig, seq, model, sched = coherent_study_signal()
        with pytest.raises(ValueError):
            scaling_study(sig, seq, model, sched, [4130], seed=1)
        with pytest.raises(ValueError):
            scaling_study(sig, seq, model, sched, [4130, 160_030], seed=1)
        with pytest.raises(ValueError):
            scaling_study(sig, seq, model, sched, [4130, 5230], seed=1, seeds_per_point=0)

    def test_coherent_smoke_study_reports_unresolved_regime(self):
        sig, seq, model, sched = coherent_study_signal()
        result = scaling_study(
            sig, seq, model, sched, [4130, 5230, 6730], seed=11, seeds_per_point=2
        )
        assert result.durations_s.shape == (3,)
        assert np.all(np.isfinite(result.width_hz))
        assert np.all(result.sigma_center_hz > 0.0)
        assert not result.resolved_mask.any()
        assert result.intrinsic_width_hz == 0.0
        # A zero-linewidth tone fits at the resolution floor everywhere.
        np.testing.assert_allclose(result.width_hz, 0.25 * result.bin_width_hz, rtol=1e-6)
        assert result.width_slope_unresolved is not None
        assert result.sigma_center_slope_unresolved is not None
        assert result.width_plateau_hz is None
        assert result.sigma_center_slope_resolved is None

    def test_fm_reseeding_is_deterministic_and_leaves_coherent_signals_alone(self):
        sig, seq, model, sched = coherent_study_signal()
        assert _reseed_fm(sig, (1, 2, 3)) is sig
        broadened = AcSignal(
            tones=sig.tones, fm=FmNoise(linewidth_hz=7.6e-4, rng_seed=5)
        )
        a = _reseed_fm(broadened, (1, 2, 3))
        b = _reseed_fm(broadened, (1, 2, 3))
        c = _reseed_fm(broadened, (1, 2, 4))
        assert a.fm.rng_seed == b.fm.rng_seed
        assert a.fm.rng_seed != c.fm.rng_seed
        assert a.fm.linewidth_hz == broadened.fm.linewidth_hz
