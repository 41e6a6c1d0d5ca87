"""Tests for the sampling schedule, trace generation, folding, and trace IO."""

from __future__ import annotations

import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lockinsim import sampler as sampler_module
from lockinsim._io import two_prod, two_sum
from lockinsim import signal as signal_module
from lockinsim.lockin import (
    CpmgSequence,
    phase_amplitude,
    phase_by_integration,
    phase_closed_form,
    transition_probability,
)
from lockinsim.readout import ReadoutModel, expected_counts, noise_variance, sample_counts
from lockinsim.sampler import (
    CHUNK_SAMPLES,
    SamplingSchedule,
    TimeTrace,
    _nominal_times,
    _schedule_paths,
    expected_probabilities,
    read_trace,
    run_sampling,
    undersampled_bin,
    write_trace,
)
from lockinsim.signal import AcSignal, FmNoise, Tone

from .helpers import drawn_nodes

F_CARRIER = 1.2e6


def make_parts(dead_time_s=5e-4, num_samples=64, pulse_count=16, qnd=260, **sched_kwargs):
    seq = CpmgSequence(pulse_count=pulse_count, tau_s=1.0 / (2.0 * F_CARRIER))
    model = ReadoutModel(qnd_repetitions=qnd, contrast=0.35)
    return seq, model, SamplingSchedule(dead_time_s, num_samples, **sched_kwargs)


def tone_signal(frequency_hz=F_CARRIER, amplitude=5e4, phase=0.0, **kwargs) -> AcSignal:
    return AcSignal(
        tones=(Tone(frequency_hz=frequency_hz, amplitude_rad_per_s=amplitude, phase_rad=phase),),
        **kwargs,
    )


def fast_fm_signal(seq) -> AcSignal:
    """FM with tau_c = 50 t_a: a path node every few sensing windows."""
    return tone_signal(
        amplitude=4e4,
        fm=FmNoise(linewidth_hz=1e-2, rng_seed=5, correlation_time_s=50.0 * seq.sensing_time_s),
    )


def slow_fm_signal() -> AcSignal:
    """FM with the shipped tau_c = 2 s: hundreds of windows per path segment."""
    return tone_signal(amplitude=4e4, fm=FmNoise(linewidth_hz=7.6e-4, rng_seed=5))


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
        assert sched.period_s(seq, model) == seq.sensing_time_s + model.readout_time_s + 5e-4
        trace = run_sampling(tone_signal(), seq, model, sched, 1)
        assert trace.sampling_period_s == sched.period_s(seq, model)

    def test_reference_period_reciprocal(self):
        # The reference operating point samples at exactly 1 / 4.21152 ms.
        seq = CpmgSequence(pulse_count=32, tau_s=26.622e-6 / 32.0)
        model = ReadoutModel(qnd_repetitions=1000, contrast=0.35)
        sched = SamplingSchedule.from_period(seq, model, 4.21152e-3, 100)
        f_s = 1.0 / sched.period_s(seq, model)
        assert f_s == pytest.approx(1.0 / 4.21152e-3, rel=1e-15)
        assert f_s == pytest.approx(237.4, abs=0.1)

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
        with pytest.raises(ValueError):
            SamplingSchedule(-1e-6, 8)
        with pytest.raises(ValueError):
            SamplingSchedule(1e-4, 0)
        with pytest.raises(ValueError):
            SamplingSchedule(1e-4, 4, start_time_s=-1.0)


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
        # 2^63 does not fit int64: the held array's sign refuses it.
        with pytest.raises(ValueError, match=r"^counts must be >= 0, got -9223372036854775808$"):
            TimeTrace(counts=np.array([2**63], dtype=np.uint64), sampling_period_s=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
    def test_rejects_non_finite_or_negative_sample_times(self, bad):
        with pytest.raises(ValueError, match=r"^sample_times_s must be "):
            TimeTrace(np.arange(3), 1e-3, sample_times_s=np.array([0.0, bad, 2e-3]))

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
    @pytest.mark.parametrize("jitter_s", [0.0, 1e-8])
    def test_deterministic_for_fixed_seed_and_chunking(self, jitter_s):
        seq, model, sched = make_parts(
            num_samples=CHUNK_SAMPLES + 1001, clock_jitter_std_s=jitter_s
        )
        sig = tone_signal()
        seed = np.random.SeedSequence(99)
        a = run_sampling(sig, seq, model, sched, 99, num_threads=1)
        others = [
            run_sampling(sig, seq, model, sched, 99, num_threads=4),
            run_sampling(sig, seq, model, sched, seed, num_threads=2),
            run_sampling(sig, seq, model, sched, seed, num_threads=2),  # the same object again
        ]
        assert seed.n_children_spawned == 0
        assert (a.sample_times_s is None) == (jitter_s == 0.0)
        for b in others:
            np.testing.assert_array_equal(a.counts, b.counts)
            np.testing.assert_array_equal(a.sample_times_s, b.sample_times_s)

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
        assert meta["schedule"] == {
            "dead_time_s": 5e-4, "num_samples": 16, "start_time_s": 0.0, "clock_jitter_std_s": 0.0
        }
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
        assert a.sampling_period_s != b.sampling_period_s
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_sampled_signal_matches_expected_probabilities_per_phase_class(self):
        # Choose the tone so its phase advances by exactly 3/8 of a cycle per
        # sample: the probability sequence has period eight, and each residue
        # class mean over many samples must match the modeled counts.
        seq, model, sched0 = make_parts(num_samples=8)
        t_s = sched0.period_s(seq, model)
        cycles = round(F_CARRIER * t_s) + 3.0 / 8.0
        f_sig = cycles / t_s
        seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * f_sig))
        model = ReadoutModel(qnd_repetitions=260, contrast=0.35)
        sched = SamplingSchedule.from_period(seq, model, t_s, 160_000)
        omega = 0.5 * math.pi / (2.0 * seq.sensing_time_s)
        sig = tone_signal(f_sig, omega, 0.8)
        probs = expected_probabilities(
            sig, seq, model, SamplingSchedule.from_period(seq, model, t_s, 8)
        )
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
        t_s = sched.period_s(seq, model)
        f_s = 1.0 / t_s
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
        base = expected_probabilities(tone_signal(f_lo, omega, 0.3), seq, model, sched)
        aliased = expected_probabilities(
            tone_signal(f_hi, omega * gain_lo / gain_hi, 0.3), seq, model, sched
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
        nominal = trace.sampling_period_s * np.arange(64)
        offsets = trace.sample_times_s - nominal
        assert float(np.max(np.abs(offsets))) > 0.0
        assert float(np.max(np.abs(offsets))) < 1e-6  # a few jitter sigmas
        again = run_sampling(tone_signal(), seq, model, sched, 3)
        np.testing.assert_array_equal(trace.sample_times_s, again.sample_times_s)

    def test_no_jitter_means_no_recorded_times(self):
        seq, model, sched = make_parts(num_samples=8)
        trace = run_sampling(tone_signal(), seq, model, sched, 3)
        assert trace.sample_times_s is None

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
        # Slow FM too: runs of windows sharing one path segment, and so one
        # gain, cross the chunk edge.
        seq, model, sched = make_parts(num_samples=CHUNK_SAMPLES + 1001)
        for sig in (fast_fm_signal(seq), slow_fm_signal()):
            a = run_sampling(sig, seq, model, sched, 99, num_threads=1)
            b = run_sampling(sig, seq, model, sched, 99, num_threads=2)
            np.testing.assert_array_equal(a.counts, b.counts)


class TestSparseFmPaths:
    """The sampler draws a fast FM path only at the nodes its windows read."""

    @pytest.mark.parametrize("jitter", [0.0, 2e-6])
    def test_every_window_has_its_nodes_and_a_spare_either_side(self, jitter):
        seq, model, sched = make_parts(num_samples=5_000, clock_jitter_std_s=jitter)
        t_s = sched.period_s(seq, model)
        margin = 8.0 * jitter
        (path,) = _schedule_paths(fast_fm_signal(seq), seq, sched, t_s, margin)
        dt = path.dt_s
        starts = np.arange(sched.num_samples) * t_s
        lo = np.floor((starts - margin) / dt) - 1
        hi = np.floor((starts + seq.sensing_time_s + margin) / dt) + 2
        nodes = drawn_nodes(path)
        for k in range(int((hi - lo).max()) + 1):  # node lo + k of every window
            assert np.isin(np.minimum(np.maximum(lo, 0) + k, hi), nodes).all()
        assert path.run_starts.size > sched.num_samples // 2
        width = seq.sensing_time_s + 2.0 * margin
        assert nodes.size <= sched.num_samples * (math.ceil(width / dt) + 4) + 1
        assert nodes.size < (starts[-1] + width) / dt / 3.0

    def test_windows_between_runs_are_refused(self):
        seq, model, sched = make_parts(num_samples=50)
        t_s = sched.period_s(seq, model)
        sig = fast_fm_signal(seq)
        paths = _schedule_paths(sig, seq, sched, t_s, 0.0)
        between = np.array([10.5 * t_s])
        for phase in (phase_closed_form, phase_by_integration):
            phase(sig, seq, between - 0.5 * t_s, phase_noise=paths)
            with pytest.raises(ValueError, match="outside the materialized range"):
                phase(sig, seq, between, phase_noise=paths)

    def test_closed_form_and_quadrature_agree_on_a_sparse_path(self):
        # Starts up to a sensing window either side of the schedule's, so
        # windows straddle the nodes that bracket them.
        seq, model, sched = make_parts(num_samples=40)
        t_s = sched.period_s(seq, model)
        sig = fast_fm_signal(seq)
        paths = _schedule_paths(sig, seq, sched, t_s, seq.sensing_time_s)
        offsets = np.resize([-1.0, -0.4, 0.0, 0.6, 1.0], 40) * seq.sensing_time_s
        starts = np.arange(40) * t_s + offsets
        starts = np.maximum(starts, 0.0)
        exact = phase_closed_form(sig, seq, starts, phase_noise=paths)
        quad = phase_by_integration(sig, seq, starts, phase_noise=paths)
        np.testing.assert_allclose(exact, quad, rtol=0.0, atol=1e-9 * 4e4 * seq.sensing_time_s)

    def test_the_node_cap_counts_drawn_nodes(self, monkeypatch):
        seq, model, sched = make_parts(num_samples=2_000)
        t_s = sched.period_s(seq, model)
        sig = fast_fm_signal(seq)
        (path,) = _schedule_paths(sig, seq, sched, t_s, 0.0)
        grid = path.duration_s / path.dt_s
        assert path.psi_rad.size < grid / 3.0
        monkeypatch.setattr(signal_module, "_MAX_FM_NODES", path.psi_rad.size)
        (again,) = _schedule_paths(sig, seq, sched, t_s, 0.0)
        np.testing.assert_array_equal(again.psi_rad, path.psi_rad)
        monkeypatch.setattr(signal_module, "_MAX_FM_NODES", path.psi_rad.size - 1)
        message = re.escape(f"needs {path.psi_rad.size:.3g} FM path nodes")
        with pytest.raises(ValueError, match=message):
            _schedule_paths(sig, seq, sched, t_s, 0.0)


class TestCarrierPhaseAccuracy:
    """The schedule's carrier phase is exact over the one-hour AM record."""

    @pytest.mark.parametrize("start_time_s", [0.0, 1.0 / 3.0])
    def test_hour_long_schedule_phase_matches_the_exact_cycle_count(self, start_time_s):
        # configs/am_sidebands_hour.yaml: carrier, lock-in and sampling period;
        # a start off zero also rounds in start + k t_s.
        f = 601254.7
        seq = CpmgSequence.for_frequency(f, 32)
        model = ReadoutModel(qnd_repetitions=1000, contrast=0.35)
        sched = SamplingSchedule.from_period(
            seq, model, 4.21152e-3, 854_798, start_time_s=start_time_s
        )
        tone = Tone(frequency_hz=f, amplitude_rad_per_s=1e5, phase_rad=0.3)
        signal = AcSignal(tones=(tone,))
        gain = -phase_amplitude(tone, seq)  # on resonance, negative for K/2 even
        rng = np.random.default_rng(11)
        k = np.unique(np.r_[0:20, rng.integers(0, 854_798, 400), 854_778:854_798])
        t_s = sched.period_s(seq, model)
        t, t_lo = _nominal_times(sched.start_time_s, t_s, 0, sched.num_samples)
        assert t[-1] == pytest.approx(3600.0, rel=1e-3)
        nominal = sched.start_time_s + np.arange(854_798) * t_s
        np.testing.assert_array_equal(t, nominal)  # the times themselves are unchanged
        phi = phase_closed_form(signal, seq, t[k], t_lo=t_lo[k])
        # Angle the closed form adds to the carrier: alpha + K omega tau / 2.
        offset = tone.phase_rad + seq.pulse_count * (2.0 * math.pi * f * seq.tau_s / 2.0)
        start, period = Fraction(sched.start_time_s), Fraction(t_s)
        exact = []
        for index in k.tolist():
            cycles = Fraction(f) * (start + index * period)
            exact.append(math.sin(2.0 * math.pi * float(cycles - round(cycles)) + offset))
        # phi = gain sin(carrier angle), so this bounds the angle error in rad.
        np.testing.assert_allclose(phi / gain, exact, rtol=0.0, atol=1e-12)
        # The sampler's own phases come from the same times and errors.
        p = expected_probabilities(signal, seq, model, sched)[k]
        p_exact = 0.5 * (1.0 - np.sin(gain * np.array(exact)))
        np.testing.assert_allclose(p, p_exact, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("start_time_s", [0.0, 1.0 / 3.0])
    @pytest.mark.parametrize(
        "lo, hi", [(0, 4096), (2**26 - 4096, 2**26), (2**26 - 2048, 2**26 + 2048)]
    )
    def test_nominal_times_match_the_general_two_product(self, start_time_s, lo, hi):
        # Below 2**26 the index is not split and, at start 0, the two-sum is
        # skipped; the bits must be those of the general path either way.
        seq, model, sched = make_parts()
        t_s = sched.period_s(seq, model)
        k_t_s, product_error = two_prod(np.arange(lo, hi, dtype=float), t_s)
        t_k, sum_error = two_sum(start_time_s, k_t_s)
        t, t_lo = _nominal_times(start_time_s, t_s, lo, hi)
        np.testing.assert_array_equal(t.view(np.int64), t_k.view(np.int64))
        t_lo_general = product_error + sum_error
        np.testing.assert_array_equal(t_lo.view(np.int64), t_lo_general.view(np.int64))

    @pytest.mark.parametrize("num_threads", [1, 2])
    def test_chunks_draw_from_their_grid_phases(self, monkeypatch, num_threads):
        # Three chunks, the last one short, at a start that rounds in
        # start + k t_s; two tones, so the grid sums its terms per tone.
        seq, model, sched = make_parts(
            num_samples=2 * CHUNK_SAMPLES + 1001, start_time_s=1.0 / 3.0
        )
        signal = AcSignal(
            tones=(Tone(F_CARRIER, 5e4, 0.2), Tone(F_CARRIER + 1234.5, 2e4, 1.1))
        )
        expected = expected_probabilities(signal, seq, model, sched)
        t, t_lo = _nominal_times(sched.start_time_s, sched.period_s(seq, model), 0, expected.size)
        exact = phase_closed_form(signal, seq, t, t_lo=t_lo)
        chunk_of = {
            expected[lo : lo + CHUNK_SAMPLES].tobytes(): lo
            for lo in range(0, expected.size, CHUNK_SAMPLES)
        }
        phases, drawn = {}, []

        def spy_probability(phi):
            p = transition_probability(phi)
            phases[id(p)] = phi
            return p

        def spy_counts(model, p, rng):
            drawn.append((chunk_of[p.tobytes()], phases[id(p)]))  # p is bit for bit a chunk
            return sample_counts(model, p, rng)

        def no_closed_form(*args, **kwargs):
            raise AssertionError("the grid path calls phase_closed_form")

        monkeypatch.setattr(sampler_module, "transition_probability", spy_probability)
        monkeypatch.setattr(sampler_module, "sample_counts", spy_counts)
        monkeypatch.setattr(sampler_module, "phase_closed_form", no_closed_form)
        run_sampling(signal, seq, model, sched, 3, num_threads=num_threads)
        assert sorted(lo for lo, _ in drawn) == list(chunk_of.values())
        for lo, phi in drawn:
            np.testing.assert_allclose(phi, exact[lo : lo + phi.size], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("case", ["jitter", "fm", "short"])
    def test_other_schedules_keep_the_closed_form(self, monkeypatch, case):
        # Per sample: the jittered times as they are, the nominal times of
        # FM or of a schedule too short for the grid with their rounding
        # errors.
        num_samples = sampler_module._GRID_MIN_SAMPLES - 1 if case == "short" else None
        jitter = 1e-9 if case == "jitter" else 0.0
        seq, model, sched = make_parts(
            num_samples=num_samples or CHUNK_SAMPLES + 1001,
            start_time_s=1.0 / 3.0,
            clock_jitter_std_s=jitter,
        )
        signal = fast_fm_signal(seq) if case == "fm" else tone_signal()
        seen = []

        def spy(signal, seq, t, *, t_lo=0.0, phase_noise=None):
            seen.append((t, np.broadcast_to(t_lo, t.shape)))
            return phase_closed_form(signal, seq, t, t_lo=t_lo, phase_noise=phase_noise)

        monkeypatch.setattr(sampler_module, "phase_closed_form", spy)
        trace = run_sampling(signal, seq, model, sched, 3, num_threads=2)
        seen.sort(key=lambda chunk: chunk[0][0])
        sizes = [num_samples] if num_samples else [CHUNK_SAMPLES, 1001]
        assert [c[0].size for c in seen] == sizes
        t = np.concatenate([c[0] for c in seen])
        t_lo = np.concatenate([c[1] for c in seen])
        if case == "jitter":
            np.testing.assert_array_equal(t, trace.sample_times_s)
            assert not t_lo.any()
        else:
            nominal = _nominal_times(sched.start_time_s, sched.period_s(seq, model), 0, t.size)
            np.testing.assert_array_equal(t, nominal[0])
            np.testing.assert_array_equal(t_lo, nominal[1])
            assert np.count_nonzero(t_lo) > 0.9 * t_lo.size


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

    def test_read_rejects_a_truncated_trace(self, tmp_path):
        seq, model, sched = make_parts(num_samples=200)
        path = tmp_path / "trace.csv"
        write_trace(run_sampling(tone_signal(), seq, model, sched, 8), str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-100]) + "\n")
        with pytest.raises(ValueError, match="trace.csv holds 100 samples.*says 200"):
            read_trace(str(path))

    def test_read_rejects_an_edited_sidecar(self, tmp_path):
        seq, model, sched = make_parts(num_samples=200)
        path = tmp_path / "trace.csv"
        write_trace(run_sampling(tone_signal(), seq, model, sched, 8), str(path))
        meta_path = tmp_path / "trace.meta.json"
        meta_path.write_text(meta_path.read_text().replace('"num_samples":200', '"num_samples":100'))
        with pytest.raises(ValueError, match="trace.meta.json does not match"):
            read_trace(str(path))

    def test_read_rejects_a_non_finite_sample_time(self, tmp_path):
        seq, model, sched = make_parts(num_samples=8, clock_jitter_std_s=1e-8)
        path = tmp_path / "trace.csv"
        write_trace(run_sampling(tone_signal(), seq, model, sched, 8), str(path))
        lines = path.read_text().splitlines()
        k, _, counts = lines[-1].split(",")
        lines[-1] = f"{k},nan,{counts}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"^sample_times_s must be finite, got nan$"):
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
