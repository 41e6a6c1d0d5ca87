"""Tests for CPMG phase accumulation and the nonlinear harmonic predictions."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from lockinsim._io import two_prod, two_sum
from lockinsim.lockin import (
    CpmgSequence,
    carrier_cycles,
    nonlinear_spectrum_prediction,
    phase_amplitude,
    phase_by_integration,
    phase_closed_form,
    phase_on_grid,
    transition_probability,
)
from lockinsim.sampler import _materialize_paths
from lockinsim.signal import (
    AcSignal,
    AmModulation,
    CompositeSignal,
    FmNoise,
    Tone,
    materialize_fm_noise,
)

# Frozen independent value: sum of squared odd-order Bessel amplitudes at
# argument 14 equals (1 - J0(28)) / 4.
ODD_BESSEL_POWER_SUM_AT_14 = 0.2682892526372499


def tone_signal(frequency_hz, amplitude=1000.0, phase=0.0) -> AcSignal:
    return AcSignal(
        tones=(Tone(frequency_hz=frequency_hz, amplitude_rad_per_s=amplitude, phase_rad=phase),)
    )


class TestCpmgSequence:
    def test_rejects_odd_or_too_small_pulse_count(self):
        with pytest.raises(ValueError):
            CpmgSequence(pulse_count=15, tau_s=1e-6)
        with pytest.raises(ValueError):
            CpmgSequence(pulse_count=0, tau_s=1e-6)

    def test_rejects_nonpositive_delay_and_even_harmonic(self):
        with pytest.raises(ValueError):
            CpmgSequence(pulse_count=16, tau_s=0.0)
        with pytest.raises(ValueError):
            CpmgSequence(pulse_count=16, tau_s=1e-6, harmonic=2)

    def test_timing_properties(self):
        seq = CpmgSequence(pulse_count=32, tau_s=0.8e-6)
        assert seq.sensing_time_s == pytest.approx(25.6e-6, rel=1e-15)
        assert seq.lockin_frequency_hz == pytest.approx(1.0 / 1.6e-6, rel=1e-15)
        assert seq.bandwidth_hz == pytest.approx(1.0 / (2.0 * 25.6e-6), rel=1e-15)

    def test_harmonic_scales_lockin_frequency(self):
        seq = CpmgSequence(pulse_count=16, tau_s=1.25e-6, harmonic=3)
        assert seq.lockin_frequency_hz == pytest.approx(3.0 / (2.0 * 1.25e-6), rel=1e-15)

    def test_for_frequency_roundtrip(self):
        seq = CpmgSequence.for_frequency(601.2547e3, 32)
        assert seq.pulse_count == 32
        assert seq.lockin_frequency_hz == pytest.approx(601.2547e3, rel=1e-12)
        seq3 = CpmgSequence.for_frequency(1.2e6, 16, harmonic=3)
        assert seq3.lockin_frequency_hz == pytest.approx(1.2e6, rel=1e-12)


class TestPhaseClosedForm:
    def test_matches_numeric_quadrature_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            pulses = 2 * int(rng.integers(1, 33))
            f_ac = float(10 ** rng.uniform(3.0, 6.5))
            m = int(rng.choice([1, 1, 3, 5]))
            tau = m / (2.0 * f_ac)
            seq = CpmgSequence(pulse_count=pulses, tau_s=tau, harmonic=m)
            detune = float(rng.uniform(-1.2, 1.2))
            f_sig = f_ac * (1.0 + detune / (pulses * m))
            omega = float(10 ** rng.uniform(2.0, 5.0))
            sig = tone_signal(f_sig, omega, float(rng.uniform(0.0, 2.0 * math.pi)))
            t = float(rng.uniform(0.0, 3.0 / f_sig))
            closed = phase_closed_form(sig, seq, t)
            quad = phase_by_integration(sig, seq, t)
            scale = omega * seq.sensing_time_s
            if abs(quad) > 1e-6 * scale:
                assert closed == pytest.approx(quad, rel=1e-8)
            else:
                assert abs(closed - quad) <= 1e-8 * scale

    @pytest.mark.parametrize("pulses,m", [(16, 1), (32, 1), (16, 3), (32, 5)])
    def test_on_resonance_amplitude_is_two_t_a_omega_over_m_pi(self, pulses, m):
        f_ac = 601.2547e3
        omega = 2.0 * math.pi * 4.7e3
        seq = CpmgSequence(pulse_count=pulses, tau_s=m / (2.0 * f_ac), harmonic=m)
        tone = Tone(frequency_hz=f_ac, amplitude_rad_per_s=omega)
        expected = 2.0 * seq.sensing_time_s * omega / (m * math.pi)
        assert phase_amplitude(tone, seq) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("pulses,alpha", [(16, 0.0), (32, 0.0), (16, 0.7), (30, 1.9)])
    def test_on_resonance_phase_oscillates_at_signal_frequency(self, pulses, alpha):
        # On resonance the accumulated phase is a pure oscillation at the
        # signal frequency whose envelope is the resonant amplitude.  The
        # carrier is in quadrature with the signal at the window start; the
        # overall sign depends on the pulse count.
        f_ac = 1.2e6
        omega = 5.0e4
        seq = CpmgSequence(pulse_count=pulses, tau_s=1.0 / (2.0 * f_ac))
        sig = tone_signal(f_ac, omega, alpha)
        t = np.linspace(0.0, 2.0 / f_ac, 41)
        phases = np.array([phase_closed_form(sig, seq, float(u)) for u in t])
        amp = 2.0 * seq.sensing_time_s * omega / math.pi
        carrier = amp * np.sin(2.0 * math.pi * f_ac * t + alpha)
        plus = float(np.max(np.abs(phases - carrier)))
        minus = float(np.max(np.abs(phases + carrier)))
        assert min(plus, minus) < 1e-10 * amp
        assert float(np.max(np.abs(phases))) == pytest.approx(
            float(np.max(np.abs(carrier))), rel=1e-9
        )

    def test_filter_null_at_detuning_of_one_over_sensing_time(self):
        f_lock = 601.0e3
        seq = CpmgSequence(pulse_count=32, tau_s=1.0 / (2.0 * f_lock))
        omega = 1000.0
        detuned = tone_signal(f_lock + 1.0 / seq.sensing_time_s, omega, 0.4)
        for t in np.linspace(0.0, 2.0 / f_lock, 7):
            phi = phase_closed_form(detuned, seq, float(t))
            assert abs(phi) < 1e-12 * omega * seq.sensing_time_s
            assert phi == pytest.approx(phase_by_integration(detuned, seq, float(t)), abs=1e-9 * omega * seq.sensing_time_s)

    def test_continuous_through_the_resonance_singularity(self):
        # The closed form has a removable singularity exactly on resonance;
        # values a part-per-billion away must agree smoothly.
        f_ac = 1.2e6
        seq = CpmgSequence(pulse_count=32, tau_s=1.0 / (2.0 * f_ac))
        omega = 1000.0
        t = 0.3 / f_ac
        on = phase_closed_form(tone_signal(f_ac, omega), seq, t)
        for rel_shift in (-1e-9, 1e-9):
            near = phase_closed_form(tone_signal(f_ac * (1.0 + rel_shift), omega), seq, t)
            assert near == pytest.approx(on, rel=1e-6)

    def test_multi_tone_phase_is_sum_of_single_tone_phases(self):
        seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * 1.2e6))
        tones = (
            Tone(frequency_hz=1.2e6, amplitude_rad_per_s=500.0, phase_rad=0.3),
            Tone(frequency_hz=1.2001e6, amplitude_rad_per_s=900.0, phase_rad=2.1),
            Tone(frequency_hz=1.1999e6, amplitude_rad_per_s=50.0, phase_rad=4.4),
        )
        t = 1.7e-7
        total = phase_closed_form(AcSignal(tones=tones), seq, t)
        parts = sum(phase_closed_form(AcSignal(tones=(tn,)), seq, t) for tn in tones)
        assert total == pytest.approx(parts, rel=1e-12)

    def test_low_frequency_signals_are_rejected_by_the_filter(self):
        seq = CpmgSequence(pulse_count=32, tau_s=1.0 / (2.0 * 601.0e3))
        omega = 1000.0
        slow = tone_signal(1.0, omega, 0.2)
        phi = phase_closed_form(slow, seq, 0.0)
        assert abs(phi) < 1e-4 * omega * seq.sensing_time_s

    def test_fm_signal_requires_its_path(self):
        sig = AcSignal(
            tones=(Tone(frequency_hz=1.2e6, amplitude_rad_per_s=100.0),),
            fm=FmNoise(linewidth_hz=1e-3, rng_seed=0),
        )
        seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * 1.2e6))
        with pytest.raises(ValueError):
            phase_closed_form(sig, seq, 0.0)

    def test_quadrature_rejects_coarse_step(self):
        seq = CpmgSequence(pulse_count=16, tau_s=1e-6)
        with pytest.raises(ValueError):
            phase_by_integration(tone_signal(5e5), seq, 0.0, dt=seq.tau_s / 10.0)


class TestPhaseOnGrid:
    SEQ = CpmgSequence(pulse_count=32, tau_s=1.0 / (2.0 * 601254.7))
    # An AM group (expanded into sideband tones) next to a plain group.
    SIGNAL = CompositeSignal(
        (
            AcSignal(
                tones=(Tone(601254.7, 1e5, 0.3), Tone(601300.0, 4e4, 2.0)),
                am=AmModulation(mod_frequency_hz=0.75, mod_depth=0.4, mod_phase_rad=1.0),
            ),
            AcSignal(tones=(Tone(601100.5, 6e4, 5.5),)),
        )
    )

    def test_matches_the_closed_form_at_each_summed_time(self):
        rng = np.random.default_rng(12)
        t = np.sort(rng.uniform(0.0, 3600.0, 40))
        t_lo = rng.uniform(-1e-13, 1e-13, t.size)
        dt, dt_lo = two_prod(np.arange(16.0), 4.21152e-3)
        got = phase_on_grid(self.SIGNAL, self.SEQ, t, t_lo, dt, dt_lo)
        assert got.shape == (t.size, dt.size)
        start, sum_lo = two_sum(t[:, None], dt)
        exact = phase_closed_form(
            self.SIGNAL, self.SEQ, start, t_lo=sum_lo + t_lo[:, None] + dt_lo
        )
        # Each carrier angle of tens of rad rounds to ~4e-15 rad in either
        # form; the phases peak near 4 rad.
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-13)
        assert np.abs(exact).max() > 1.0

    def test_rejects_fm(self):
        signal = AcSignal(tones=(Tone(1.2e6, 100.0),), fm=FmNoise(linewidth_hz=1e-3, rng_seed=0))
        with pytest.raises(ValueError, match="FM"):
            phase_on_grid(signal, self.SEQ, np.zeros(2), np.zeros(2), np.zeros(3), np.zeros(3))


class TestPhaseOverFmPath:
    """The closed form over a materialized FM path, against quadrature.

    Correlation times span tau_c/t_a = 3e5 (the shipped tau_c = 2 s: nearly
    every window inside one path segment) and 50 (a node every few windows)
    to 0.1 (80 nodes per window). Window starts sit on path nodes, just
    before them and one ulp either side of a node and of node - t_a, so
    windows straddle nodes or end exactly on one, where floor(t/dt) rounding
    decides between the in-segment closed form and the piecewise kernel.
    """

    SEQ = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * 1.2e6))

    @classmethod
    def fm(cls, ratio):
        return FmNoise(
            linewidth_hz=100.0, rng_seed=7, correlation_time_s=ratio * cls.SEQ.sensing_time_s
        )

    @classmethod
    def check(cls, signal, fm_group, paths_for):
        t_a = cls.SEQ.sensing_time_s
        dt = fm_group.fm.correlation_time_s / 8.0
        nodes = dt * (math.ceil(t_a / dt) + np.array([1.0, 2.0, 5.0]))
        ulp_away = [np.nextafter(x, side) for x in (nodes, nodes - t_a) for side in (0.0, np.inf)]
        starts = np.concatenate(
            [nodes, nodes - 0.4 * t_a, [0.0, 0.37 * t_a, 3.1 * t_a], *ulp_away]
        )
        path = materialize_fm_noise(fm_group, float(starts.max()) + t_a, dt)
        exact = phase_closed_form(signal, cls.SEQ, starts, phase_noise=paths_for(path))
        quad = phase_by_integration(signal, cls.SEQ, starts, phase_noise=paths_for(path))
        omega = max(tone.amplitude_rad_per_s for g in signal.groups for tone in g.tones)
        tol = 1e-9 * omega * t_a
        np.testing.assert_allclose(exact, quad, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("ratio", [3e5, 50.0, 5.0, 1.0, 0.1])
    def test_composite_of_am_fm_group_and_plain_group_matches_quadrature(self, ratio):
        fm_group = AcSignal(
            tones=(
                Tone(frequency_hz=1.2e6, amplitude_rad_per_s=1e5, phase_rad=0.3),
                Tone(frequency_hz=1.2004e6, amplitude_rad_per_s=4e4, phase_rad=1.1),
            ),
            am=AmModulation(mod_frequency_hz=2e3, mod_depth=0.5, mod_phase_rad=0.2),
            fm=self.fm(ratio),
        )
        plain = AcSignal(
            tones=(Tone(frequency_hz=1.1999e6, amplitude_rad_per_s=3e4, phase_rad=2.0),)
        )
        signal = CompositeSignal(groups=(fm_group, plain))
        self.check(signal, fm_group, lambda path: (path, None))

    @pytest.mark.parametrize("ratio", [3e5, 50.0, 5.0, 1.0, 0.1])
    def test_single_fm_tone_matches_quadrature(self, ratio):
        signal = AcSignal(
            tones=(Tone(frequency_hz=1.2e6, amplitude_rad_per_s=1e5, phase_rad=0.7),),
            fm=self.fm(ratio),
        )
        self.check(signal, signal, lambda path: (path,))

    def test_window_past_the_path_end_raises(self):
        signal = AcSignal(tones=(Tone(frequency_hz=1.2e6, amplitude_rad_per_s=1e5),), fm=self.fm(5.0))
        t_a = self.SEQ.sensing_time_s
        path = materialize_fm_noise(signal, 40.0 * t_a, signal.fm.correlation_time_s / 8.0)
        last_start = path.duration_s - t_a
        phase_closed_form(signal, self.SEQ, last_start, phase_noise=(path,))
        late = np.array([0.0, last_start + 1e-3 * self.SEQ.tau_s])
        with pytest.raises(ValueError, match="outside the materialized range"):
            phase_closed_form(signal, self.SEQ, late, phase_noise=(path,))


class TestFmPathContract:
    """Both phase functions take the sampler's paths: one entry per group."""

    SEQ = TestPhaseOverFmPath.SEQ
    FM_TONE = AcSignal(
        tones=(Tone(frequency_hz=1.2e6, amplitude_rad_per_s=1e5, phase_rad=0.7),),
        fm=TestPhaseOverFmPath.fm(5.0),
    )
    PLAIN = AcSignal(tones=(Tone(frequency_hz=1.1999e6, amplitude_rad_per_s=3e4, phase_rad=2.0),))
    SIGNALS = {
        "fm_tone": FM_TONE,
        "one_group_composite": CompositeSignal(groups=(FM_TONE,)),
        "fm_and_plain_groups": CompositeSignal(groups=(FM_TONE, PLAIN)),
    }

    @pytest.mark.parametrize("name", SIGNALS)
    def test_sampler_paths_give_the_same_phase_both_ways(self, name):
        signal = self.SIGNALS[name]
        t_a = self.SEQ.sensing_time_s
        starts = np.array([0.0, 0.37, 3.1, 7.5]) * t_a
        paths = _materialize_paths(signal, self.SEQ, starts)
        exact = phase_closed_form(signal, self.SEQ, starts, phase_noise=paths)
        quad = phase_by_integration(signal, self.SEQ, starts, phase_noise=paths)
        np.testing.assert_allclose(exact, quad, rtol=0.0, atol=1e-9 * 1e5 * t_a)

    @pytest.mark.parametrize("phase", [phase_closed_form, phase_by_integration])
    @pytest.mark.parametrize("name", SIGNALS)
    def test_a_bare_path_or_a_wrong_count_is_refused(self, name, phase):
        signal = self.SIGNALS[name]
        paths = _materialize_paths(signal, self.SEQ, np.zeros(1))
        with pytest.raises(ValueError, match="one entry per signal group"):
            phase(signal, self.SEQ, np.zeros(1), phase_noise=paths[0])
        with pytest.raises(ValueError, match="one per group, got"):
            phase(signal, self.SEQ, np.zeros(1), phase_noise=paths + (None,))


class TestCarrierCycles:
    """Error-free products and sums, and the carrier phase built on them."""

    finite = st.floats(min_value=1e-6, max_value=1e9) | st.floats(min_value=-1e9, max_value=-1e-6)

    @given(finite, finite)
    def test_two_prod_and_two_sum_are_exact(self, a, b):
        p, e = two_prod(a, b)
        assert p == a * b
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)
        s, e = two_sum(a, b)
        assert s == a + b
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)

    def test_cycle_fraction_matches_exact_arithmetic_at_hour_long_times(self):
        rng = np.random.default_rng(3)
        f = 1.2e6 + 0.1234567
        t = rng.uniform(0.0, 3600.0, 500)
        t_lo = rng.uniform(-1e-13, 1e-13, 500)
        got = carrier_cycles(f, t, t_lo)
        for g, t_hi, lo in zip(got, t, t_lo):
            cycles = Fraction(f) * (Fraction(t_hi) + Fraction(lo))
            assert abs(g - float(cycles - round(cycles))) <= 1e-16
        assert np.abs(got).max() <= 0.5 + 1e-6

    @pytest.mark.parametrize("ratio", [None, 50.0])
    def test_time_error_shifts_the_phase_like_a_shift_of_t(self, ratio):
        # 1e-13 s moves a 1.2 MHz carrier by 7.5e-7 rad; the FM path moves by
        # far less. ratio 50 puts windows both inside path segments and across
        # nodes, the two carrier sites of the FM kernel.
        seq = TestPhaseOverFmPath.SEQ
        fm = None if ratio is None else TestPhaseOverFmPath.fm(ratio)
        signal = AcSignal(
            tones=(Tone(frequency_hz=1.2e6, amplitude_rad_per_s=1e5, phase_rad=0.7),), fm=fm
        )
        starts = np.linspace(0.0, 200.0 * seq.sensing_time_s, 301)
        paths = _materialize_paths(signal, seq, starts)
        shift = 1e-13 * np.linspace(0.5, 1.0, starts.size)
        base = phase_closed_form(signal, seq, starts, phase_noise=paths)
        moved = phase_closed_form(signal, seq, starts + shift, phase_noise=paths)
        got = phase_closed_form(signal, seq, starts, t_lo=shift, phase_noise=paths)
        tol = 1e-9 * 1e5 * seq.sensing_time_s
        assert np.abs(moved - base).max() > 100.0 * tol
        np.testing.assert_allclose(got, moved, rtol=0.0, atol=tol)


class TestTransitionProbability:
    def test_fixed_points(self):
        np.testing.assert_allclose(
            transition_probability(np.array([0.0, math.pi / 2.0, -math.pi / 2.0])),
            [0.5, 0.0, 1.0],
            atol=1e-15,
        )

    @given(st.floats(-50.0, 50.0))
    def test_probability_stays_in_unit_interval(self, phi):
        p = transition_probability(phi)
        assert 0.0 <= p <= 1.0

    @given(st.floats(-50.0, 50.0))
    def test_antisymmetry_around_one_half(self, phi):
        assert transition_probability(phi) + transition_probability(-phi) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(-0.3, 0.3))
    def test_small_phase_linearization_bound(self, phi):
        linear = 0.5 * (1.0 - phi)
        assert abs(transition_probability(phi) - linear) <= abs(phi) ** 3 / 12.0 + 1e-15


class TestBessel:
    """The Bessel amplitudes J_{2k+1}(phi_max) of the harmonic prediction."""

    def test_zero_phase_gives_all_zero_amplitudes(self):
        lines = nonlinear_spectrum_prediction(0.0, 100.0)
        assert [line.amplitude for line in lines] == [0.0] * len(lines)

    def test_deep_evanescent_order_keeps_relative_accuracy(self):
        # J_41(3) is ~5e-43; the power series converges fast at small x and
        # serves as the oracle.
        x, n = 3.0, 41
        series = math.fsum(
            (-1) ** m * (x / 2) ** (2 * m + n) / (math.factorial(m) * math.factorial(m + n))
            for m in range(30)
        )
        lines = nonlinear_spectrum_prediction(x, 100.0, k_max=20)
        assert lines[-1].order == n
        assert lines[-1].amplitude == pytest.approx(series, rel=1e-10)

    @pytest.mark.parametrize("k_max", [None, 40])
    @pytest.mark.parametrize(
        "x", [1e-300, 1e-100, 1e-12, 1e-3, 0.5, 1.8, 14.0, 21.6, 50.0, 200.0, 1000.0]
    )
    def test_matches_scipy_jv(self, x, k_max):
        # Relative accuracy wherever J is a normal double, down to x = 1e-300
        # where 2n/x overflows; absolute at large x, where J oscillates about 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lines = nonlinear_spectrum_prediction(x, 100.0, k_max=k_max)
        amps = np.array([line.amplitude for line in lines])
        ref = special.jv([line.order for line in lines], x)
        assert not np.isnan(amps).any()
        if x >= 200.0:
            np.testing.assert_allclose(amps, ref, rtol=0.0, atol=1e-13)
        else:
            normal = np.abs(ref) >= np.finfo(float).tiny
            np.testing.assert_allclose(amps[normal], ref[normal], rtol=1e-12, atol=0.0)

    @given(st.integers(1, 14), st.floats(0.5, 50.0))
    def test_three_term_recurrence(self, k, x):
        # J_{n-1} + J_{n+1} = (2n/x) J_n with the even orders eliminated:
        # x/(4k) (J_{2k-1} + J_{2k+1}) + x/(4k+4) (J_{2k+1} + J_{2k+3})
        # = (2(2k+1)/x) J_{2k+1}.
        amps = [line.amplitude for line in nonlinear_spectrum_prediction(x, 100.0, k_max=k + 1)]
        jm, j0, jp = amps[k - 1], amps[k], amps[k + 1]
        left = x / (4 * k) * (jm + j0) + x / (4 * k + 4) * (j0 + jp)
        right = 2.0 * (2 * k + 1) / x * j0
        scale = x / (4 * k) * (abs(jm) + abs(j0)) + x / (4 * k + 4) * (abs(j0) + abs(jp))
        assert abs(left - right) <= 1e-10 * (scale + abs(right) + 1e-12)


class TestNonlinearPrediction:
    def test_lines_sit_at_odd_multiples_of_the_signal_frequency(self):
        lines = nonlinear_spectrum_prediction(1.8, 250.0)
        assert [line.order for line in lines[:4]] == [1, 3, 5, 7]
        np.testing.assert_allclose(
            [line.frequency_hz for line in lines[:4]], [250.0, 750.0, 1250.0, 1750.0]
        )

    def test_amplitudes_are_odd_order_bessel_values(self):
        lines = nonlinear_spectrum_prediction(1.8, 100.0)
        for line in lines[:6]:
            assert line.amplitude == pytest.approx(special.jv(line.order, 1.8), rel=1e-10)

    def test_small_amplitude_limit_is_half_phase(self):
        lines = nonlinear_spectrum_prediction(1e-3, 100.0)
        assert lines[0].amplitude == pytest.approx(5e-4, rel=1e-5)
        assert abs(lines[1].amplitude) < 1e-9

    def test_default_order_cutoff_covers_the_full_tail(self):
        lines = nonlinear_spectrum_prediction(21.6, 100.0)
        assert abs(lines[-1].amplitude) < 1e-16
        assert lines[-1].order > 21

    def test_strong_drive_populates_harmonics_through_order_twenty_one(self):
        lines = {line.order: line.amplitude for line in nonlinear_spectrum_prediction(21.6, 100.0)}
        for order in range(1, 22, 2):
            assert abs(lines[order]) > 1e-3
        assert abs(lines[31]) < 1e-3

    def test_total_harmonic_power_at_reference_drive(self):
        # Sum of squared line amplitudes at drive 14 equals (1 - J0(28)) / 4.
        lines = nonlinear_spectrum_prediction(14.0, 100.0)
        total = sum(line.amplitude**2 for line in lines)
        assert total == pytest.approx(ODD_BESSEL_POWER_SUM_AT_14, rel=1e-9)
        assert total == pytest.approx((1.0 - special.j0(28.0)) / 4.0, rel=1e-12)

    def test_explicit_cutoff_truncates(self):
        lines = nonlinear_spectrum_prediction(5.0, 100.0, k_max=2)
        assert [line.order for line in lines] == [1, 3, 5]
