"""Tests for CPMG phase accumulation, the Bessel kernel, and harmonic predictions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from lockinsim.lockin import (
    CpmgSequence,
    bessel_j,
    modulation_function,
    nonlinear_spectrum_prediction,
    phase_amplitude,
    phase_by_integration,
    phase_closed_form,
    transition_probability,
)
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


class TestModulationFunction:
    def test_alternates_sign_on_each_delay_segment(self):
        tau, pulses = 1.0, 6
        mids = np.arange(pulses) + 0.5
        np.testing.assert_array_equal(
            modulation_function(mids, tau, pulses), (-1.0) ** np.arange(pulses)
        )

    def test_starts_positive_and_flips_at_segment_boundaries(self):
        tau, pulses = 0.5, 4
        eps = 1e-12
        assert modulation_function(0.0, tau, pulses) == 1
        assert modulation_function(tau - eps, tau, pulses) == 1
        assert modulation_function(tau + eps, tau, pulses) == -1

    def test_rejects_times_outside_the_sequence(self):
        with pytest.raises(ValueError):
            modulation_function(-1e-9, 1.0, 4)
        with pytest.raises(ValueError):
            modulation_function(4.0, 1.0, 4)

    def test_even_pulse_count_gives_zero_mean(self):
        tau, pulses = 0.25, 8
        grid = np.linspace(0.0, pulses * tau, 8000, endpoint=False)
        assert abs(float(np.mean(modulation_function(grid, tau, pulses)))) < 1e-12


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

    def test_fm_signal_requires_frozen_extra_phase(self):
        sig = AcSignal(
            tones=(Tone(frequency_hz=1.2e6, amplitude_rad_per_s=100.0),),
            fm=FmNoise(linewidth_hz=1e-3, rng_seed=0),
        )
        seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * 1.2e6))
        with pytest.raises(ValueError):
            phase_closed_form(sig, seq, 0.0)

    def test_extra_phase_shifts_the_tone_phase(self):
        seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * 1.2e6))
        base = tone_signal(1.2e6, 800.0, 0.5)
        shifted = tone_signal(1.2e6, 800.0, 0.8)
        t = 2.3e-7
        assert phase_closed_form(base, seq, t, extra_phase_rad=0.3) == pytest.approx(
            phase_closed_form(shifted, seq, t), rel=1e-12
        )

    def test_quadrature_rejects_coarse_step(self):
        seq = CpmgSequence(pulse_count=16, tau_s=1e-6)
        with pytest.raises(ValueError):
            phase_by_integration(tone_signal(5e5), seq, 0.0, dt=seq.tau_s / 10.0)


class TestPhaseOverFmPath:
    """The piecewise closed form over a materialized FM path, against quadrature.

    Correlation times span tau_c/t_a = 50 (a node every few windows) to 0.1
    (80 nodes per window); window starts sit on path nodes and just before
    them, so windows straddle nodes.
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
        starts = np.concatenate([nodes, nodes - 0.4 * t_a, [0.0, 0.37 * t_a, 3.1 * t_a]])
        path = materialize_fm_noise(fm_group, float(starts.max()) + t_a, dt)
        exact = phase_closed_form(signal, cls.SEQ, starts, phase_noise=paths_for(path))
        quad = phase_by_integration(signal, cls.SEQ, starts, phase_noise=paths_for(path))
        omega = max(tone.amplitude_rad_per_s for g in signal.groups for tone in g.tones)
        tol = 1e-9 * omega * t_a
        np.testing.assert_allclose(exact, quad, rtol=0.0, atol=tol)
        # The path matters: freezing psi at the window start is far off.
        moving = phase_closed_form(fm_group, cls.SEQ, starts, phase_noise=path)
        frozen = phase_closed_form(fm_group, cls.SEQ, starts, extra_phase_rad=path.phase_at(starts))
        assert float(np.max(np.abs(moving - frozen))) > 1e3 * tol

    @pytest.mark.parametrize("ratio", [50.0, 5.0, 1.0, 0.1])
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

    @pytest.mark.parametrize("ratio", [50.0, 5.0, 1.0, 0.1])
    def test_single_fm_tone_matches_quadrature(self, ratio):
        signal = AcSignal(
            tones=(Tone(frequency_hz=1.2e6, amplitude_rad_per_s=1e5, phase_rad=0.7),),
            fm=self.fm(ratio),
        )
        self.check(signal, signal, lambda path: path)

    def test_window_past_the_path_end_raises(self):
        signal = AcSignal(tones=(Tone(frequency_hz=1.2e6, amplitude_rad_per_s=1e5),), fm=self.fm(5.0))
        t_a = self.SEQ.sensing_time_s
        path = materialize_fm_noise(signal, 40.0 * t_a, signal.fm.correlation_time_s / 8.0)
        last_start = path.duration_s - t_a
        phase_closed_form(signal, self.SEQ, last_start, phase_noise=path)
        late = np.array([0.0, last_start + 1e-3 * self.SEQ.tau_s])
        with pytest.raises(ValueError, match="outside the materialized range"):
            phase_closed_form(signal, self.SEQ, late, phase_noise=path)


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
    def test_matches_reference_implementation_on_a_grid(self):
        rng = np.random.default_rng(5)
        orders = rng.integers(0, 41, 60)
        args = rng.uniform(0.0, 60.0, 60)
        for n, x in zip(orders, args):
            mine = bessel_j([int(n)], float(x))[0]
            ref = special.jv(int(n), float(x))
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-13)

    def test_vectorized_orders_match_scalar_calls(self):
        orders = [0, 1, 2, 7, 21]
        got = bessel_j(orders, 14.0)
        for n, value in zip(orders, got):
            assert value == pytest.approx(special.jv(n, 14.0), rel=1e-12)

    def test_zero_argument_is_kronecker_delta(self):
        np.testing.assert_array_equal(bessel_j([0, 1, 5], 0.0), [1.0, 0.0, 0.0])

    def test_negative_argument_parity(self):
        for n in range(6):
            left = bessel_j([n], -5.0)[0]
            right = (-1.0) ** n * bessel_j([n], 5.0)[0]
            assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    def test_deep_evanescent_order_keeps_relative_accuracy(self):
        # J_40(3) is ~1e-41; downward recursion must not lose it to overflow
        # or underflow.
        assert bessel_j([40], 3.0)[0] == pytest.approx(special.jv(40, 3.0), rel=1e-10)

    @given(st.integers(1, 30), st.floats(0.5, 50.0))
    def test_three_term_recurrence(self, n, x):
        jm, j0, jp = bessel_j([n - 1, n, n + 1], x)
        residual = jm + jp - (2.0 * n / x) * j0
        scale = abs(jm) + abs(jp) + abs(2.0 * n / x * j0) + 1e-12
        assert abs(residual) <= 1e-10 * scale


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
