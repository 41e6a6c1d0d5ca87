"""Tests for the sampling schedule, trace generation, folding, and trace IO."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lockinsim.lockin import CpmgSequence, phase_amplitude
from lockinsim.readout import ReadoutModel, expected_counts, noise_variance
from lockinsim.sampler import (
    CHUNK_SAMPLES,
    SamplingSchedule,
    TimeTrace,
    expected_probabilities,
    read_trace,
    run_sampling,
    undersampled_bin,
    write_trace,
)
from lockinsim.signal import AcSignal, FmNoise, Tone

F_CARRIER = 1.2e6


def make_parts(dead_time_s=5e-4, num_samples=64, pulse_count=16, qnd=260, **sched_kwargs):
    seq = CpmgSequence(pulse_count=pulse_count, tau_s=1.0 / (2.0 * F_CARRIER))
    model = ReadoutModel(qnd_repetitions=qnd, contrast=0.35)
    sched = SamplingSchedule.from_components(
        seq, model, dead_time_s, num_samples, **sched_kwargs
    )
    return seq, model, sched


def tone_signal(frequency_hz=F_CARRIER, amplitude=5e4, phase=0.0, **kwargs) -> AcSignal:
    return AcSignal(
        tones=(Tone(frequency_hz=frequency_hz, amplitude_rad_per_s=amplitude, phase_rad=phase),),
        **kwargs,
    )


def fast_fm_signal(seq) -> AcSignal:
    """FM with tau_c = 50 t_a, below the quasi-static threshold."""
    return tone_signal(
        amplitude=4e4,
        fm=FmNoise(linewidth_hz=1e-2, rng_seed=5, correlation_time_s=50.0 * seq.sensing_time_s),
    )


def best_time_per_sample(sig, seq, model, sched) -> float:
    """Best of three wall times of run_sampling, per sample."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        run_sampling(sig, seq, model, sched, 1)
        best = min(best, time.perf_counter() - start)
    return best / sched.num_samples


class TestSamplingSchedule:
    def test_period_is_sum_of_sensing_readout_and_dead_time(self):
        seq, model, sched = make_parts(dead_time_s=5e-4)
        assert sched.sampling_period_s == pytest.approx(
            seq.sensing_time_s + model.readout_time_s + 5e-4, rel=1e-15
        )
        assert sched.sample_rate_hz == pytest.approx(1.0 / sched.sampling_period_s, rel=1e-15)
        assert sched.duration_s == pytest.approx(64 * sched.sampling_period_s, rel=1e-15)

    def test_reference_period_reciprocal(self):
        # The reference operating point samples at exactly 1 / 4.21152 ms.
        seq = CpmgSequence(pulse_count=32, tau_s=26.622e-6 / 32.0)
        model = ReadoutModel(qnd_repetitions=1000, contrast=0.35)
        sched = SamplingSchedule.from_period(seq, model, 4.21152e-3, 100)
        assert sched.sample_rate_hz == pytest.approx(1.0 / 4.21152e-3, rel=1e-15)
        assert sched.sample_rate_hz == pytest.approx(237.4, abs=0.1)

    def test_from_period_derives_dead_time(self):
        seq, model, _ = make_parts()
        sched = SamplingSchedule.from_period(seq, model, 1.31524e-3, 8)
        assert sched.dead_time_s == pytest.approx(
            1.31524e-3 - seq.sensing_time_s - model.readout_time_s, rel=1e-12
        )

    def test_from_period_rejects_period_shorter_than_overhead(self):
        seq, model, _ = make_parts()
        with pytest.raises(ValueError):
            SamplingSchedule.from_period(seq, model, 1e-5, 8)

    def test_rejects_invalid_arguments(self):
        seq, model, _ = make_parts()
        with pytest.raises(ValueError):
            SamplingSchedule.from_components(seq, model, -1e-6, 8)
        with pytest.raises(ValueError):
            SamplingSchedule.from_components(seq, model, 1e-4, 0)
        with pytest.raises(ValueError):
            SamplingSchedule(
                sensing_time_s=0.0,
                readout_time_s=1e-4,
                dead_time_s=1e-4,
                num_samples=4,
            )


class TestTimeTrace:
    def test_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            TimeTrace(counts=np.array([1, -2, 3]), sampling_period_s=1e-3)
        with pytest.raises(ValueError):
            TimeTrace(counts=np.array([1.5, 2.0]), sampling_period_s=1e-3)
        with pytest.raises(ValueError):
            TimeTrace(counts=np.array([[1, 2], [3, 4]]), sampling_period_s=1e-3)
        with pytest.raises(ValueError):
            TimeTrace(counts=np.array([], dtype=int), sampling_period_s=1e-3)

    def test_nominal_times_follow_the_grid(self):
        trace = TimeTrace(
            counts=np.arange(5), sampling_period_s=2e-3, start_time_s=1.0
        )
        np.testing.assert_allclose(trace.times_s, 1.0 + 2e-3 * np.arange(5), rtol=1e-15)
        assert trace.num_samples == 5


class TestUndersampledBin:
    def test_quarter_rate_folds_to_quarter_of_the_record(self):
        assert undersampled_bin(25.0, 100.0, 1000) == 250

    def test_harmonics_of_the_rate_fold_to_dc(self):
        for j in (1, 2, 5):
            assert undersampled_bin(j * 100.0, 100.0, 1000) == 0

    def test_upper_half_mirrors(self):
        assert undersampled_bin(75.0, 100.0, 1000) == 250
        assert undersampled_bin(99.0, 100.0, 1000) == 10

    def test_rounding_ties_go_to_even(self):
        assert undersampled_bin(0.3125 * 100.0, 100.0, 8) == 2  # position 2.5
        assert undersampled_bin(0.4375 * 100.0, 100.0, 8) == 4  # position 3.5

    def test_fold_is_periodic_in_the_sample_rate(self):
        for j in range(4):
            assert undersampled_bin(31.4 + j * 100.0, 100.0, 1000) == undersampled_bin(
                31.4, 100.0, 1000
            )

    def test_mirror_symmetry_about_zero(self):
        assert undersampled_bin(100.0 - 31.4, 100.0, 1000) == undersampled_bin(
            31.4, 100.0, 1000
        )

    @given(st.floats(1e-3, 1e7), st.integers(8, 4096))
    def test_result_is_a_valid_one_sided_bin(self, frequency, num_samples):
        got = undersampled_bin(frequency, 100.0, num_samples)
        assert 0 <= got <= num_samples // 2


class TestRunSampling:
    def test_deterministic_for_fixed_seed_and_chunking(self):
        seq, model, sched = make_parts(num_samples=CHUNK_SAMPLES + 1001)
        sig = tone_signal()
        a = run_sampling(sig, seq, model, sched, 99, num_threads=1)
        b = run_sampling(sig, seq, model, sched, 99, num_threads=4)
        c = run_sampling(sig, seq, model, sched, np.random.SeedSequence(99), num_threads=2)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.counts, c.counts)

    def test_more_threads_than_samples_is_harmless(self):
        seq, model, sched = make_parts(num_samples=10)
        a = run_sampling(tone_signal(), seq, model, sched, 5, num_threads=8)
        b = run_sampling(tone_signal(), seq, model, sched, 5, num_threads=1)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_metadata_records_the_run(self):
        seq, model, sched = make_parts(num_samples=16)
        trace = run_sampling(tone_signal(), seq, model, sched, 123)
        meta = trace.metadata
        assert meta["seed"] == 123
        assert meta["phase_method"] == "closed_form"
        assert meta["schedule"]["num_samples"] == 16
        assert "tool_version" in meta

    def test_zero_amplitude_signal_gives_balanced_counts(self):
        seq, model, sched = make_parts(num_samples=40_000)
        trace = run_sampling(tone_signal(amplitude=0.0), seq, model, sched, 31)
        mean = float(np.mean(trace.counts))
        expected = expected_counts(model, 0.5)
        se = math.sqrt(noise_variance(model) / trace.num_samples)
        assert abs(mean - float(expected)) <= 4.0 * se

    def test_dead_time_changes_rate_but_not_zero_signal_statistics(self):
        seq, model, sched_a = make_parts(dead_time_s=5e-4, num_samples=512)
        _, _, sched_b = make_parts(dead_time_s=9e-4, num_samples=512)
        sig = tone_signal(amplitude=0.0)
        a = run_sampling(sig, seq, model, sched_a, 77)
        b = run_sampling(sig, seq, model, sched_b, 77)
        assert sched_a.sample_rate_hz != sched_b.sample_rate_hz
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_sampled_signal_matches_expected_probabilities_per_phase_class(self):
        # Choose the tone so its phase advances by exactly 3/8 of a cycle per
        # sample: the probability sequence has period eight, and each residue
        # class mean over many samples must match the modeled counts.
        seq, model, sched0 = make_parts(num_samples=8)
        t_s = sched0.sampling_period_s
        cycles = round(F_CARRIER * t_s) + 3.0 / 8.0
        f_sig = cycles / t_s
        seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * f_sig))
        model = ReadoutModel(qnd_repetitions=260, contrast=0.35)
        sched = SamplingSchedule.from_period(seq, model, t_s, 160_000)
        omega = 0.5 * math.pi / (2.0 * seq.sensing_time_s)
        sig = tone_signal(f_sig, omega, 0.8)
        probs = expected_probabilities(sig, seq, SamplingSchedule.from_period(seq, model, t_s, 8))
        assert float(np.ptp(probs)) > 0.1  # the classes genuinely differ
        trace = run_sampling(sig, seq, model, sched, 2024, num_threads=2)
        counts = trace.counts.astype(float)
        per_class = counts.reshape(-1, 8)
        se = math.sqrt(noise_variance(model) / per_class.shape[0])
        for k in range(8):
            expected = float(expected_counts(model, float(probs[k])))
            assert abs(float(np.mean(per_class[:, k])) - expected) <= 4.0 * se

    def test_tone_aliased_by_one_rate_period_is_equivalent_after_gain_rescale(self):
        # A tone moved up by exactly one sample rate folds onto the same bin.
        # After rescaling the drive so both tones accumulate the same phase
        # amplitude, the sampled sequences differ only by a carrier phase
        # offset from the filter's phase response, so their power spectra
        # must agree bin by bin.
        seq, model, sched = make_parts(num_samples=64)
        f_s = sched.sample_rate_hz
        t_s = sched.sampling_period_s
        # Pin the fold to bin 13 of 64 exactly so every nonlinear harmonic
        # also lands on an exact line and leakage cannot couple to the
        # carrier phase.
        f_lo = (round(F_CARRIER * t_s) + 13.0 / 64.0) / t_s
        f_hi = f_lo + f_s
        assert undersampled_bin(f_lo, f_s, 64) == 13
        assert undersampled_bin(f_hi, f_s, 64) == 13
        gain_lo = phase_amplitude(Tone(frequency_hz=f_lo, amplitude_rad_per_s=1.0), seq)
        gain_hi = phase_amplitude(Tone(frequency_hz=f_hi, amplitude_rad_per_s=1.0), seq)
        omega = 4.0e4
        base = expected_probabilities(tone_signal(f_lo, omega, 0.3), seq, sched)
        aliased = expected_probabilities(
            tone_signal(f_hi, omega * gain_lo / gain_hi, 0.3), seq, sched
        )
        power_base = np.abs(np.fft.rfft(base - np.mean(base))) ** 2
        power_alias = np.abs(np.fft.rfft(aliased - np.mean(aliased))) ** 2
        np.testing.assert_allclose(
            power_alias, power_base, rtol=1e-9, atol=1e-9 * float(np.max(power_base))
        )

    def test_clock_jitter_perturbs_recorded_sample_times(self):
        seq, model, sched = make_parts(num_samples=64, clock_jitter_std_s=1e-8)
        trace = run_sampling(tone_signal(), seq, model, sched, 3)
        assert trace.sample_times_s is not None
        nominal = sched.sampling_period_s * np.arange(64)
        offsets = trace.sample_times_s - nominal
        assert float(np.max(np.abs(offsets))) > 0.0
        assert float(np.max(np.abs(offsets))) < 1e-6  # a few jitter sigmas
        again = run_sampling(tone_signal(), seq, model, sched, 3)
        np.testing.assert_array_equal(trace.sample_times_s, again.sample_times_s)

    def test_no_jitter_means_no_recorded_times(self):
        seq, model, sched = make_parts(num_samples=8)
        trace = run_sampling(tone_signal(), seq, model, sched, 3)
        assert trace.sample_times_s is None

    def test_quasi_static_fm_agrees_with_windowed_quadrature(self):
        # At the shipped scale the frequency noise is frozen over a single
        # sensing window (correlation time ~ 300000 windows), so the frozen
        # phase-offset evaluation must match full quadrature.
        seq, model, sched = make_parts(num_samples=48)
        sig = tone_signal(amplitude=4e4, fm=FmNoise(linewidth_hz=7.6e-4, rng_seed=5))
        quasi = expected_probabilities(sig, seq, sched, phase_method="closed_form")
        exact = expected_probabilities(sig, seq, sched, phase_method="integration")
        assert float(np.max(np.abs(quasi - exact))) < 2e-5

    def test_auto_selects_quadrature_for_fast_frequency_noise(self):
        seq, model, sched = make_parts(num_samples=8)
        trace = run_sampling(fast_fm_signal(seq), seq, model, sched, 1)
        assert trace.metadata["phase_method"] == "integration"

    def test_rejects_unknown_phase_method(self):
        seq, model, sched = make_parts(num_samples=8)
        with pytest.raises(ValueError):
            run_sampling(tone_signal(), seq, model, sched, 1, phase_method="magic")

    def test_rejects_schedule_inconsistent_with_sequence(self):
        seq, model, _ = make_parts()
        other_seq = CpmgSequence(pulse_count=32, tau_s=1.0 / (2.0 * F_CARRIER))
        sched = SamplingSchedule.from_components(other_seq, model, 5e-4, 8)
        with pytest.raises(ValueError):
            run_sampling(tone_signal(), seq, model, sched, 1)

    def test_rejects_schedule_inconsistent_with_readout(self):
        seq, model, _ = make_parts()
        other_model = ReadoutModel(qnd_repetitions=996, contrast=0.35)
        sched = SamplingSchedule.from_components(seq, other_model, 5e-4, 8)
        with pytest.raises(ValueError):
            run_sampling(tone_signal(), seq, model, sched, 1)

    def test_generation_time_scales_linearly_in_the_record_length(self):
        seq, model, small = make_parts(num_samples=25_000)
        _, _, large = make_parts(num_samples=200_000)
        sig = tone_signal()
        assert best_time_per_sample(sig, seq, model, large) <= 2.5 * best_time_per_sample(
            sig, seq, model, small
        )

    def test_fast_fm_generation_time_scales_linearly_in_the_record_length(self):
        seq, model, small = make_parts(num_samples=5_000)
        _, _, large = make_parts(num_samples=40_000)
        sig = fast_fm_signal(seq)
        assert best_time_per_sample(sig, seq, model, large) <= 2.5 * best_time_per_sample(
            sig, seq, model, small
        )

    def test_fast_fm_counts_do_not_depend_on_the_thread_count(self):
        seq, model, sched = make_parts(num_samples=CHUNK_SAMPLES + 1001)
        sig = fast_fm_signal(seq)
        a = run_sampling(sig, seq, model, sched, 99, num_threads=1)
        b = run_sampling(sig, seq, model, sched, 99, num_threads=2)
        np.testing.assert_array_equal(a.counts, b.counts)


class TestTraceIO:
    def test_roundtrip_preserves_counts_times_and_metadata(self, tmp_path):
        seq, model, sched = make_parts(num_samples=32, clock_jitter_std_s=1e-9)
        trace = run_sampling(tone_signal(), seq, model, sched, 8)
        path = tmp_path / "trace.csv"
        write_trace(trace, str(path))
        assert (tmp_path / "trace.meta.json").exists()
        loaded = read_trace(str(path))
        np.testing.assert_array_equal(loaded.counts, trace.counts)
        assert loaded.sampling_period_s == trace.sampling_period_s
        assert loaded.start_time_s == trace.start_time_s
        np.testing.assert_allclose(loaded.sample_times_s, trace.sample_times_s, rtol=0, atol=1e-17)
        assert loaded.metadata["seed"] == 8
        assert loaded.metadata["schedule"] == trace.metadata["schedule"]

    def test_write_is_deterministic(self, tmp_path):
        seq, model, sched = make_parts(num_samples=16)
        trace = run_sampling(tone_signal(), seq, model, sched, 8)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(trace, str(a))
        write_trace(trace, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()

    def test_read_rejects_corrupt_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trace(str(empty))
        headless = tmp_path / "headless.csv"
        headless.write_text("0,0.0,12\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(str(headless))

    def test_read_requires_metadata_sidecar(self, tmp_path):
        seq, model, sched = make_parts(num_samples=8)
        trace = run_sampling(tone_signal(), seq, model, sched, 8)
        path = tmp_path / "trace.csv"
        write_trace(trace, str(path))
        (tmp_path / "trace.meta.json").unlink()
        with pytest.raises(ValueError, match="sidecar"):
            read_trace(str(path))

    def test_read_rejects_malformed_sample_line(self, tmp_path):
        seq, model, sched = make_parts(num_samples=8)
        trace = run_sampling(tone_signal(), seq, model, sched, 8)
        path = tmp_path / "trace.csv"
        write_trace(trace, str(path))
        lines = path.read_text().splitlines()
        lines[-1] = "oops"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_trace(str(path))
