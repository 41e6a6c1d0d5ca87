"""Tests for signal construction, AM expansion, and FM phase-noise paths."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lockinsim.signal import (
    _ar1,
    GYROMAGNETIC_RATIO_RAD_PER_S_PER_T,
    AcSignal,
    AmModulation,
    CompositeSignal,
    FmNoise,
    Tone,
    amplitude_from_field_tesla,
    evaluate,
    expand_am,
    materialize_fm_noise,
    max_linewidth_hz,
    strongest_tone,
)

from .helpers import brute_force_power, drawn_nodes


def reference_ar1(v: np.ndarray, alpha: float | np.ndarray) -> np.ndarray:
    """x_k = v_k + alpha_k * x_(k-1) from x_(-1) = 0, one step at a time;
    a scalar alpha is every alpha_k."""
    x = np.empty(len(v))
    prev = 0.0
    for k, (value, a) in enumerate(zip(v, np.broadcast_to(alpha, len(v)))):
        prev = value + a * prev
        x[k] = prev
    return x


def single_tone(frequency_hz=50.0, amplitude=2.0, phase=0.3, **kwargs) -> AcSignal:
    return AcSignal(
        tones=(Tone(frequency_hz=frequency_hz, amplitude_rad_per_s=amplitude, phase_rad=phase),),
        **kwargs,
    )


class TestToneValidation:
    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Tone(frequency_hz=0.0, amplitude_rad_per_s=1.0)
        with pytest.raises(ValueError):
            Tone(frequency_hz=-5.0, amplitude_rad_per_s=1.0)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            Tone(frequency_hz=1.0, amplitude_rad_per_s=-1e-9)

    def test_zero_amplitude_allowed(self):
        assert Tone(frequency_hz=1.0, amplitude_rad_per_s=0.0).amplitude_rad_per_s == 0.0

    def test_rejects_nonfinite_phase(self):
        with pytest.raises(ValueError):
            Tone(frequency_hz=1.0, amplitude_rad_per_s=1.0, phase_rad=math.nan)

    def test_phase_canonicalized_mod_two_pi(self):
        tone = Tone(frequency_hz=1.0, amplitude_rad_per_s=1.0, phase_rad=2.0 * math.pi + 0.3)
        assert tone.phase_rad == pytest.approx(0.3, abs=1e-12)

    def test_signal_requires_at_least_one_tone(self):
        with pytest.raises(ValueError):
            AcSignal(tones=())

    def test_composite_requires_groups(self):
        with pytest.raises(ValueError):
            CompositeSignal(groups=())


class TestEvaluate:
    def test_single_tone_at_time_zero_is_amplitude_times_cos_phase(self):
        sig = single_tone(amplitude=2.0, phase=0.3)
        assert evaluate(sig, 0.0) == pytest.approx(2.0 * math.cos(0.3), rel=1e-14)

    def test_multi_tone_matches_manual_cosine_sum(self):
        rng = np.random.default_rng(11)
        tones = tuple(
            Tone(
                frequency_hz=float(f),
                amplitude_rad_per_s=float(a),
                phase_rad=float(p),
            )
            for f, a, p in zip(
                rng.uniform(1e3, 1e6, 5), rng.uniform(0.1, 10.0, 5), rng.uniform(0, 6.0, 5)
            )
        )
        sig = AcSignal(tones=tones)
        t = rng.uniform(0.0, 1e-3, 64)
        manual = sum(
            tone.amplitude_rad_per_s
            * np.cos(2.0 * math.pi * tone.frequency_hz * t + tone.phase_rad)
            for tone in tones
        )
        np.testing.assert_allclose(evaluate(sig, t), manual, rtol=1e-12, atol=1e-12)

    @given(
        frequency=st.floats(1e3, 1e6),
        amplitude=st.floats(1e-3, 1e4),
        phase=st.floats(0.0, 6.28),
        t=st.floats(0.0, 1e-3),
    )
    def test_periodicity_in_one_signal_period(self, frequency, amplitude, phase, t):
        sig = single_tone(frequency_hz=frequency, amplitude=amplitude, phase=phase)
        period = 1.0 / frequency
        a = evaluate(sig, t)
        b = evaluate(sig, t + period)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9 * amplitude)

    def test_composite_is_sum_of_groups(self):
        g1 = single_tone(frequency_hz=40.0, amplitude=1.0, phase=0.1)
        g2 = single_tone(frequency_hz=90.0, amplitude=3.0, phase=1.4)
        comp = CompositeSignal(groups=(g1, g2))
        t = np.linspace(0.0, 0.05, 33)
        np.testing.assert_allclose(
            evaluate(comp, t), evaluate(g1, t) + evaluate(g2, t), rtol=1e-14
        )

    @pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_times(self, bad):
        with pytest.raises(ValueError, match=r"^t must be "):
            evaluate(single_tone(), np.array([0.0, bad]))

    def test_fm_signal_requires_phase_noise_path(self):
        sig = single_tone(fm=FmNoise(linewidth_hz=1e-3, rng_seed=0))
        with pytest.raises(ValueError):
            evaluate(sig, 0.0)

    def test_strongest_tone_and_linewidth_span_all_groups(self):
        coherent = single_tone(frequency_hz=40.0, amplitude=3.0)
        broadened = AcSignal(
            tones=(
                Tone(frequency_hz=90.0, amplitude_rad_per_s=5.0),
                Tone(frequency_hz=95.0, amplitude_rad_per_s=5.0),
            ),
            fm=FmNoise(linewidth_hz=2e-3, rng_seed=0),
        )
        comp = CompositeSignal(groups=(coherent, broadened))
        assert strongest_tone(comp).frequency_hz == 90.0  # ties go to the first
        assert max_linewidth_hz(comp) == 2e-3
        assert strongest_tone(coherent).frequency_hz == 40.0
        assert max_linewidth_hz(coherent) == 0.0


class TestAmExpansion:
    def test_expansion_matches_modulated_waveform_pointwise(self):
        sig = AcSignal(
            tones=(Tone(frequency_hz=50.0, amplitude_rad_per_s=2.0, phase_rad=0.3),),
            am=AmModulation(mod_frequency_hz=5.0, mod_depth=0.8, mod_phase_rad=0.7),
        )
        expanded = expand_am(sig)
        assert expanded.am is None
        t = np.linspace(0.0, 0.4, 257)
        carrier = 2.0 * np.cos(2.0 * math.pi * 50.0 * t + 0.3)
        envelope = 1.0 + 0.8 * np.cos(2.0 * math.pi * 5.0 * t + 0.7)
        np.testing.assert_allclose(evaluate(expanded, t), envelope * carrier, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(evaluate(sig, t), envelope * carrier, rtol=1e-12, atol=1e-12)

    def test_sideband_tones_carry_half_depth_amplitude_and_shifted_phase(self):
        sig = AcSignal(
            tones=(Tone(frequency_hz=50.0, amplitude_rad_per_s=2.0, phase_rad=0.3),),
            am=AmModulation(mod_frequency_hz=5.0, mod_depth=1.0, mod_phase_rad=0.1),
        )
        expanded = expand_am(sig)
        by_freq = {tone.frequency_hz: tone for tone in expanded.tones}
        assert set(by_freq) == {45.0, 50.0, 55.0}
        assert by_freq[50.0].amplitude_rad_per_s == pytest.approx(2.0)
        assert by_freq[45.0].amplitude_rad_per_s == pytest.approx(1.0)
        assert by_freq[55.0].amplitude_rad_per_s == pytest.approx(1.0)
        assert by_freq[45.0].phase_rad == pytest.approx(0.2, abs=1e-12)
        assert by_freq[55.0].phase_rad == pytest.approx(0.4, abs=1e-12)

    def test_full_depth_modulation_gives_one_quarter_sideband_power(self):
        # Sample a full-depth AM waveform on an integer-period grid and read
        # the three line powers off a direct DFT: carrier to sideband = 4:1.
        sig = AcSignal(
            tones=(Tone(frequency_hz=50.0, amplitude_rad_per_s=2.0),),
            am=AmModulation(mod_frequency_hz=5.0, mod_depth=1.0),
        )
        n = 1000
        t = np.arange(n) / 1000.0
        power = brute_force_power(evaluate(sig, t))
        carrier = power[50]
        lower, upper = power[45], power[55]
        assert lower == pytest.approx(carrier / 4.0, rel=1e-9)
        assert upper == pytest.approx(carrier / 4.0, rel=1e-9)

    def test_modulation_frequency_must_stay_below_tone_frequency(self):
        sig = AcSignal(
            tones=(Tone(frequency_hz=5.0, amplitude_rad_per_s=1.0),),
            am=AmModulation(mod_frequency_hz=5.0, mod_depth=0.5),
        )
        with pytest.raises(ValueError):
            expand_am(sig)


class TestFmNoise:
    def test_frequency_std_follows_from_linewidth_and_correlation_time(self):
        fm = FmNoise(linewidth_hz=7.6e-4, rng_seed=0, correlation_time_s=2.0)
        assert fm.frequency_std_hz == pytest.approx(
            math.sqrt(7.6e-4 / (2.0 * math.pi * 2.0)), rel=1e-12
        )

    def test_rejects_negative_linewidth(self):
        with pytest.raises(ValueError):
            FmNoise(linewidth_hz=-1e-6, rng_seed=0)

    def test_path_is_deterministic_in_seed(self):
        sig = single_tone(fm=FmNoise(linewidth_hz=1e-3, rng_seed=42))
        a = materialize_fm_noise(sig, duration_s=3.0, dt_s=0.5)
        b = materialize_fm_noise(sig, duration_s=3.0, dt_s=0.5)
        np.testing.assert_array_equal(a.psi_rad, b.psi_rad)
        other = single_tone(fm=FmNoise(linewidth_hz=1e-3, rng_seed=43))
        c = materialize_fm_noise(other, duration_s=3.0, dt_s=0.5)
        assert not np.array_equal(a.psi_rad, c.psi_rad)

    def test_path_starts_at_zero_phase_and_covers_duration(self):
        sig = single_tone(fm=FmNoise(linewidth_hz=1e-3, rng_seed=1))
        path = materialize_fm_noise(sig, duration_s=1.0, dt_s=0.25)
        assert path.psi_rad[0] == 0.0
        assert path.duration_s >= 1.0

    def test_phase_at_rejects_times_outside_materialized_range(self):
        sig = single_tone(fm=FmNoise(linewidth_hz=1e-3, rng_seed=1))
        path = materialize_fm_noise(sig, duration_s=1.0, dt_s=0.25)
        with pytest.raises(ValueError):
            path.phase_at(-0.1)
        with pytest.raises(ValueError):
            path.phase_at(path.duration_s + 0.5)

    def test_materialize_validates_step_and_duration(self):
        sig = single_tone(fm=FmNoise(linewidth_hz=1e-3, rng_seed=1, correlation_time_s=2.0))
        with pytest.raises(ValueError):
            materialize_fm_noise(sig, duration_s=1.0, dt_s=0.6)  # step > correlation_time / 4
        with pytest.raises(ValueError):
            materialize_fm_noise(sig, duration_s=0.1, dt_s=0.5)
        with pytest.raises(ValueError):
            materialize_fm_noise(single_tone(), duration_s=1.0, dt_s=0.25)
        with pytest.raises(ValueError, match=r"correlation_time_s.*2e\+12 FM path nodes"):
            materialize_fm_noise(sig, duration_s=1.0, dt_s=5e-13)  # refused before allocating

    @pytest.mark.parametrize("alpha", [math.exp(-0.25), math.exp(-0.125), math.exp(-0.001)])
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 257, 92_481])
    def test_ar1_scan_matches_the_sequential_recurrence(self, n, alpha):
        # alpha = exp(-dt/tau_c): dt = tau_c/4 is the largest step allowed.
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        v[1:] *= math.sqrt(1.0 - alpha * alpha)
        expected = reference_ar1(v, alpha)
        err = np.max(np.abs(_ar1(v, alpha) - expected))
        assert err <= 1e-14 * np.max(np.abs(expected))

    def test_phase_increments_are_stationary_with_exponential_memory(self):
        # One long path: the psi increments over a step D have the variance
        # (2 pi sigma_f tau_c)^2 * 2 (D/tau_c - 1 + exp(-D/tau_c)) of the
        # integrated mean-reverting frequency process, and neighbouring
        # increments share the covariance (2 pi sigma_f tau_c)^2
        # (1 - exp(-D/tau_c))^2 of its exponential memory.
        tau_c = 2.0
        fm = FmNoise(linewidth_hz=7.6e-4, rng_seed=9, correlation_time_s=tau_c)
        sig = single_tone(fm=fm)
        dt = tau_c / 4.0
        n_nodes = 200_000
        path = materialize_fm_noise(sig, duration_s=n_nodes * dt, dt_s=dt)
        d = np.diff(path.psi_rad)
        d -= d.mean()
        scale = (2.0 * math.pi * fm.frequency_std_hz * tau_c) ** 2
        decay = math.exp(-dt / tau_c)
        assert float(d @ d) / d.size == pytest.approx(
            scale * 2.0 * (dt / tau_c - 1.0 + decay), rel=0.05
        )
        assert float(d[:-1] @ d[1:]) / (d.size - 1) == pytest.approx(
            scale * (1.0 - decay) ** 2, rel=0.05
        )

    def test_path_keeps_psi_alone(self):
        # x_f is needed only while the path is built: what stays is the
        # 8-byte psi per node, while building holds about six such arrays.
        sig = single_tone(fm=FmNoise(linewidth_hz=1e-3, rng_seed=2, correlation_time_s=2.0))
        dt = 0.5
        n_nodes = 1_000_000
        materialize_fm_noise(sig, duration_s=10.0, dt_s=dt)  # first-use imports are not the path's
        tracemalloc.start()
        try:
            path = materialize_fm_noise(sig, duration_s=n_nodes * dt, dt_s=dt)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.psi_rad.size >= n_nodes
        assert kept <= 9 * n_nodes
        assert peak <= 49 * n_nodes

    @pytest.mark.parametrize("steps,dt_fraction", [(5, 0.2), (20, 0.05)])
    def test_accumulated_phase_variance_matches_closed_form(self, steps, dt_fraction):
        # Var[psi(T)] for the integrated mean-reverting frequency process is
        # (2 pi sigma_f tau_c)^2 * 2 * (T/tau_c - 1 + exp(-T/tau_c)).  The
        # discretization is exact, so the Monte-Carlo variance must match the
        # closed form at the node times for any step size.
        tau_c = 2.0
        gamma = 7.6e-4
        sigma_f = math.sqrt(gamma / (2.0 * math.pi * tau_c))
        dt = tau_c * dt_fraction
        total = steps * dt  # = tau_c for both parametrizations
        replicates = 2000
        psi_end = np.empty(replicates)
        for r in range(replicates):
            sig = single_tone(
                fm=FmNoise(linewidth_hz=gamma, rng_seed=r, correlation_time_s=tau_c)
            )
            path = materialize_fm_noise(sig, duration_s=total, dt_s=dt)
            psi_end[r] = path.phase_at(total)
        ratio = total / tau_c
        expected = (2.0 * math.pi * sigma_f * tau_c) ** 2 * 2.0 * (
            ratio - 1.0 + math.exp(-ratio)
        )
        observed = float(np.var(psi_end))
        tolerance = 4.0 * expected * math.sqrt(2.0 / (replicates - 1))
        assert abs(observed - expected) <= tolerance

    def test_fm_shifts_are_visible_in_the_waveform(self):
        sig = single_tone(
            frequency_hz=100.0,
            fm=FmNoise(linewidth_hz=0.5, rng_seed=3, correlation_time_s=2.0),
        )
        path = materialize_fm_noise(sig, duration_s=1.0, dt_s=0.25)
        t = np.linspace(0.0, 1.0, 101)
        with_noise = evaluate(sig, t, phase_noise=(path,))
        clean = evaluate(single_tone(frequency_hz=100.0), t)
        assert not np.allclose(with_noise, clean)
        # The frozen path reproduces exactly.
        np.testing.assert_array_equal(with_noise, evaluate(sig, t, phase_noise=(path,)))


def blocked_scan_reference(v: np.ndarray, alpha: float) -> np.ndarray:
    """The single-coefficient blocked scan written out: blocks of 16 from
    zero, block ends by recursion in alpha**16, and alpha**(j+1) carries.
    It pins the bits of the dense path's scan."""
    n = v.size
    rows = -(-n // 16)
    y = np.zeros((rows, 16))
    y.reshape(-1)[:n] = v
    for j in range(1, 16):
        y[:, j] += alpha * y[:, j - 1]
    if rows > 1:
        ends = blocked_scan_reference(y[:-1, -1], alpha**16)
        y[1:] += np.multiply.outer(ends, alpha ** np.arange(1, 17))
    return y.reshape(-1)[:n]


class TestSparseFmPath:
    """Paths drawn only at the nodes of sparse sensing windows."""

    TAU_C = 2.0
    DT = TAU_C / 8.0
    FM = FmNoise(linewidth_hz=7.6e-4, rng_seed=9, correlation_time_s=TAU_C)

    @classmethod
    def runs_of_four(cls, count):
        """Windows inside one segment each, 18 or 19 segments apart: runs of
        4 nodes (unit steps) separated by gaps of 15 and 16 nodes."""
        segments = 10 + np.cumsum(np.resize([18, 19], count))
        starts = (segments + 0.5) * cls.DT
        duration = float(starts[-1]) + 3.0 * cls.DT
        return materialize_fm_noise(
            single_tone(fm=cls.FM), duration, cls.DT, (starts, 0.1 * cls.DT)
        )

    def test_increments_across_gaps_have_the_exact_variance_and_lag_covariance(self):
        # Over a step D the psi increment has variance
        # (2 pi sigma_f tau_c)^2 * 2 (D/tau_c - 1 + exp(-D/tau_c)), and two
        # adjacent increments over D1 then D2 have covariance
        # (2 pi sigma_f tau_c)^2 (1 - exp(-D1/tau_c)) (1 - exp(-D2/tau_c)).
        path = self.runs_of_four(60_000)
        gaps = np.diff(drawn_nodes(path))
        d = np.diff(path.psi_rad)
        assert set(np.unique(gaps[2:]).tolist()) == {1, 15, 16}  # after nodes 0 and 1
        scale = (2.0 * math.pi * self.FM.frequency_std_hz * self.TAU_C) ** 2
        memory = {g: 1.0 - math.exp(-g * self.DT / self.TAU_C) for g in (1, 15, 16)}
        for g in (1, 15, 16):
            ratio = g * self.DT / self.TAU_C
            picked = d[gaps == g]
            assert float(picked @ picked) / picked.size == pytest.approx(
                scale * 2.0 * (ratio - 1.0 + math.exp(-ratio)), rel=0.05
            )
        for g1, g2 in ((1, 1), (1, 15), (1, 16), (15, 1), (16, 1)):
            pair = np.flatnonzero((gaps[:-1] == g1) & (gaps[1:] == g2))
            assert pair.size > 20_000
            assert float(d[pair] @ d[pair + 1]) / pair.size == pytest.approx(
                scale * memory[g1] * memory[g2], rel=0.05
            )

    def test_runs_hold_each_window_and_nothing_between(self):
        path = self.runs_of_four(5)
        nodes = drawn_nodes(path)
        segments = 10 + np.cumsum(np.resize([18, 19], 5))
        expected = np.concatenate([[0, 1], *(np.arange(j - 1, j + 3) for j in segments)])
        np.testing.assert_array_equal(nodes, expected)
        np.testing.assert_array_equal(path.run_starts, [0, *(segments - 1)])
        assert path.psi_rad[0] == 0.0
        assert path.duration_s == (segments[-1] + 2) * self.DT
        gap_time = (segments[0] + 6.5) * self.DT
        with pytest.raises(ValueError, match="outside the materialized range"):
            path.phase_at(gap_time)
        with pytest.raises(ValueError, match="outside the materialized range"):
            path.phase_at(5.5 * self.DT)  # between nodes 0 and 1 and the first window
        with pytest.raises(ValueError, match="outside the materialized range"):
            # past the end of the run that holds the window start
            path.segment_at((segments[0] + 2.5) * self.DT, run_of=segments[0] * self.DT)
        inside = (segments + 0.5) * self.DT
        np.testing.assert_array_equal(
            path.phase_at(inside),
            np.interp(inside, nodes * self.DT, path.psi_rad),
        )

    def test_windows_that_leave_no_gap_give_the_dense_path(self):
        sig = single_tone(fm=self.FM)
        starts = np.arange(0.0, 40.0, 0.3 * self.DT)
        duration = float(starts[-1]) + 0.01 + 2.0 * self.DT
        dense = materialize_fm_noise(sig, duration, self.DT)
        windowed = materialize_fm_noise(sig, duration, self.DT, (starts, 0.01))
        np.testing.assert_array_equal(windowed.psi_rad, dense.psi_rad)
        np.testing.assert_array_equal(windowed.run_starts, [0])
        assert dense.psi_rad.size == math.ceil(duration / self.DT) + 2

    def test_window_starts_must_not_decrease(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            materialize_fm_noise(
                single_tone(fm=self.FM), 10.0, self.DT, (np.array([5.0, 1.0]), 0.01)
            )

    def test_a_grid_too_fine_to_index_is_refused(self):
        # One window late in a long grid draws few nodes, but node indices
        # past 2**52 would not be exact floats.
        with pytest.raises(ValueError, match="FM grid steps"):
            materialize_fm_noise(
                single_tone(fm=self.FM), 1e16 + 1.0, self.DT, (np.array([1e16]), 0.01)
            )

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 257, 20_800])
    def test_per_step_scan_matches_the_sequential_recurrence(self, n):
        rng = np.random.default_rng(n)
        alpha = rng.choice(np.exp(-np.array([1.0, 15.0, 16.0]) / 8.0), n)
        v = rng.standard_normal(n)
        expected = reference_ar1(v, alpha)
        err = np.max(np.abs(_ar1(v, alpha) - expected))
        assert err <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [1, 17, 92_481])
    def test_single_coefficient_scan_keeps_its_bits(self, n):
        alpha = math.exp(-0.125)
        v = np.random.default_rng(n).standard_normal(n)
        np.testing.assert_array_equal(_ar1(v, alpha), blocked_scan_reference(v, alpha))

    def test_non_finite_step_moments_are_refused_naming_both_fields(self):
        # sigma_f^2 tau_c^2 overflows while tau_c^2 does not.
        fm = FmNoise(linewidth_hz=1e160, rng_seed=1, correlation_time_s=1e154)
        with pytest.raises(ValueError, match="fm.linewidth_hz.*fm.correlation_time_s"):
            materialize_fm_noise(single_tone(fm=fm), 1e156, 1e154 / 8.0)


class TestFieldConversion:
    def test_conversion_uses_electron_gyromagnetic_ratio(self):
        b = 170e-9
        assert amplitude_from_field_tesla(b) == pytest.approx(
            GYROMAGNETIC_RATIO_RAD_PER_S_PER_T * b, rel=1e-15
        )

    def test_reference_field_is_a_kilohertz_scale_signal(self):
        # 170 nT maps to an angular amplitude near 2 pi x 4.7 kHz.
        omega = amplitude_from_field_tesla(170e-9)
        assert omega / (2.0 * math.pi) == pytest.approx(4700.0, rel=0.02)
