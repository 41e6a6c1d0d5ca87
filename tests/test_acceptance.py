"""Acceptance checks pinning the headline behaviors of the full stack.

Every test exercises the public API (or the CLI) end to end against an
independently computed expectation at an explicit tolerance.  Where a
headline number holds only on average or at an analytic optimum (the
quarter of odd-harmonic power, the depolarized SNR peak), the test pins
that average or optimum and its docstring carries the arithmetic.  Every
check is expected to pass.
"""

from __future__ import annotations

import copy
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import special
from scipy.integrate import trapezoid

from lockinsim.cli import EXIT_OK, main
from lockinsim.csrecon import (
    WidebandGrid,
    build_sampling_matrix,
    recovery_phase_diagram,
    support_from_bands,
)
from lockinsim.lockin import (
    CpmgSequence,
    nonlinear_spectrum_prediction,
    phase_amplitude,
    phase_by_integration,
    phase_closed_form,
)
from lockinsim.readout import ReadoutModel, noise_variance, threshold_gain
from lockinsim.sampler import SamplingSchedule, run_sampling, undersampled_bin
from lockinsim.signal import AcSignal, FmNoise, Tone
from lockinsim.spectral import (
    average_spectra,
    default_noise_band,
    measure_snr,
    power_spectrum,
    predicted_snr,
    scaling_study,
)

from .helpers import loglog_slope, omega_for_phi_max

REPO_ROOT = Path(__file__).resolve().parent.parent


def tone_signal(frequency_hz: float, omega: float, phase: float = 0.0) -> AcSignal:
    return AcSignal(
        tones=(
            Tone(
                frequency_hz=frequency_hz,
                amplitude_rad_per_s=omega,
                phase_rad=phase,
            ),
        )
    )


class TestPhaseOracleEquivalence:
    def test_closed_form_matches_quadrature_on_1000_random_instances(self):
        """Closed-form phase equals numeric quadrature to 1e-8 in under a minute."""
        rng = np.random.default_rng(20260814)
        t0 = time.perf_counter()
        for _ in range(1000):
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
        assert time.perf_counter() - t0 < 60.0


class TestPhaseAmplitudeReferencePoint:
    def test_half_radian_at_26_622_us_and_4_7_khz(self):
        """t_a = 26.622 us with a 2 pi x 4.7 kHz tone accumulates 0.500 rad."""
        t_a = 26.622e-6
        seq = CpmgSequence(pulse_count=16, tau_s=t_a / 16.0)
        f_res = 1.0 / (2.0 * seq.tau_s)
        tone = Tone(
            frequency_hz=f_res, amplitude_rad_per_s=2.0 * math.pi * 4.7e3
        )
        assert phase_amplitude(tone, seq) == pytest.approx(0.500, abs=1e-3)


class TestBesselHarmonicResponse:
    """A strong tone drives odd harmonics with J_{2k+1}(phi_max) amplitudes."""

    @staticmethod
    def _strong_tone_parts(phi_max: float):
        t_s = 5e-3
        f_ac = 6000.12345 / t_s  # 0.12345 cycles of fold per sample
        seq = CpmgSequence(pulse_count=32, tau_s=1.0 / (2.0 * f_ac))
        omega = omega_for_phi_max(phi_max, seq.sensing_time_s)
        sig = tone_signal(f_ac, omega, 0.8)
        model = ReadoutModel(qnd_repetitions=498, contrast=0.35)
        sched = SamplingSchedule.from_period(seq, model, t_s, 100_000)
        return sig, seq, model, sched, f_ac, t_s

    @staticmethod
    def _harmonic_peaks(avg, bins):
        """Floor-subtracted peak power at each harmonic's folded bin."""
        mask = np.ones(avg.num_bins, bool)
        mask[0] = mask[-1] = False
        for b in bins:
            mask[max(0, b - 50) : b + 51] = False
        floor = float(np.mean(avg.power[mask]))
        return [float(avg.power[b]) - floor for b in bins]

    def test_first_four_harmonic_power_ratios_track_bessel_squares(self):
        """Measured P_h / P_1 matches (J_h(5)/J_1(5))^2 within 10% for h <= 7."""
        sig, seq, model, sched, f_ac, t_s = self._strong_tone_parts(5.0)
        reps = [
            power_spectrum(
                run_sampling(
                    sig, seq, model, sched, np.random.SeedSequence((606, r)),
                    num_threads=2,
                )
            )
            for r in range(12)
        ]
        avg = average_spectra(reps)
        orders = [1, 3, 5, 7]
        bins = [undersampled_bin(h * f_ac, 1.0 / t_s, 100_000) for h in orders]
        peaks = self._harmonic_peaks(avg, bins)
        j = special.jv(orders, 5.0)
        for idx in range(1, 4):
            measured = peaks[idx] / peaks[0]
            expected = (j[idx] / j[0]) ** 2
            assert measured == pytest.approx(expected, rel=0.10)

    def test_cumulative_harmonic_power_is_quarter_within_2pct_at_phi_14(self):
        """The odd-harmonic power averages to a quarter around phi_max = 14.

        sum_k J_{2k+1}(phi)^2 = (1 - J0(2 phi))/4 exactly, so the sum swings
        about 1/4 with J0(2 phi): at phi = 14 alone it is 0.26829, since
        J0(28) = -0.0737.  The quarter is the strong-tone limit, reached on
        average over one period of that oscillation (pi in phi): the
        trapezoid mean over phi in [14 - pi/2, 14 + pi/2] is 0.24939, as the
        decaying J0 leaves only a mean of 0.0024 there.  Even orders summed by
        mistake (sum_{k>=1} J_{2k}^2) average 0.2388 and fail.
        """
        phis = np.linspace(14.0 - math.pi / 2.0, 14.0 + math.pi / 2.0, 401)
        cumulative = [
            sum(line.amplitude**2 for line in nonlinear_spectrum_prediction(phi, 1.0e6))
            for phi in phis
        ]
        mean = trapezoid(cumulative, phis) / math.pi
        assert mean == pytest.approx(0.25, rel=0.02)

    def test_cumulative_harmonic_power_matches_the_bessel_identity(self):
        """sum_k J_{2k+1}(phi)^2 = (1 - J0(2 phi))/4 at phi = 14, the sum is
        exactly 1/4 at a zero of J0(2 phi), and the simulated cumulative
        harmonic power lands on the identity within 2%."""
        lines = nonlinear_spectrum_prediction(14.0, 1.0e6)
        cumulative = sum(line.amplitude**2 for line in lines)
        exact = (1.0 - special.j0(28.0)) / 4.0
        assert cumulative == pytest.approx(exact, abs=1e-12)

        # The sum reaches 0.25 exactly where J0(2 phi) vanishes.
        phi_star = float(special.jn_zeros(0, 9)[-1]) / 2.0
        at_zero = sum(
            line.amplitude**2 for line in nonlinear_spectrum_prediction(phi_star, 1.0e6)
        )
        assert 4.0 * at_zero == pytest.approx(1.0, abs=1e-9)

        # Monte-Carlo route: total harmonic power, normalized by the measured
        # fundamental against its analytic weight, reproduces the identity.
        sig, seq, model, sched, f_ac, t_s = self._strong_tone_parts(14.0)
        reps = [
            power_spectrum(
                run_sampling(
                    sig, seq, model, sched, np.random.SeedSequence((616, r)),
                    num_threads=2,
                )
            )
            for r in range(12)
        ]
        avg = average_spectra(reps)
        orders = np.arange(1, 27, 2)
        bins = [undersampled_bin(h * f_ac, 1.0 / t_s, 100_000) for h in orders]
        assert len(set(bins)) == len(bins)  # distinct folds for every order
        peaks = self._harmonic_peaks(avg, bins)
        j = special.jv(orders, 14.0)
        gain_sq = peaks[0] / j[0] ** 2
        simulated = float(np.sum(peaks) / gain_sq)
        assert simulated == pytest.approx(exact, rel=0.02)


class TestNoiseFloorStatistics:
    def test_mean_and_std_match_n_sigma_sq_over_100_seeds(self):
        """Zero-signal noise bins: mean and std equal N sigma_y^2 within 4 sigma.

        Noise bins of an N-sample periodogram are asymptotically iid
        exponential with mean N sigma_y^2, so over n pooled bins the standard
        errors are level/sqrt(n) for the mean, sqrt(2) level/sqrt(n) for the
        standard deviation, and level/sqrt(n) for their difference (the
        mean-std covariance cancels most of the variance).
        """
        model = ReadoutModel(qnd_repetitions=260, contrast=0.35)
        f_ac = 1.2e6
        seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * f_ac))
        num = 4096
        sched = SamplingSchedule(5e-4, num)
        sig = tone_signal(f_ac, 0.0)
        level = num * noise_variance(model)

        pooled = []
        for i in range(100):
            trace = run_sampling(sig, seq, model, sched, 414000 + i)
            pooled.append(power_spectrum(trace).power[1:-1])
        vals = np.concatenate(pooled)
        n_tot = vals.size
        mean = float(np.mean(vals))
        std = float(np.std(vals, ddof=1))
        assert abs(mean - level) <= 4.0 * level / math.sqrt(n_tot)
        assert abs(std - level) <= 4.0 * math.sqrt(2.0) * level / math.sqrt(n_tot)
        assert abs(mean - std) <= 4.0 * level / math.sqrt(n_tot)


class TestSnrLaw:
    F_AC = 1.2e6

    @classmethod
    def _snr_point(cls, n, eps, phi, num, nu, seeds, seed_tag):
        """Mean measured SNR and the analytic prediction at one grid point."""
        seq0 = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * cls.F_AC))
        model = ReadoutModel(qnd_repetitions=n, contrast=eps)
        t_s = SamplingSchedule(5e-4, num).period_s(seq0, model)
        cycles = round(cls.F_AC * t_s) + nu  # nu lands the fold on a bin
        f_sig = cycles / t_s
        seq = CpmgSequence(pulse_count=16, tau_s=1.0 / (2.0 * f_sig))
        sched = SamplingSchedule.from_period(seq, model, t_s, num)
        omega = omega_for_phi_max(phi, seq.sensing_time_s)
        sig = tone_signal(f_sig, omega, 0.6)
        peak = undersampled_bin(f_sig, 1.0 / t_s, num)
        vals = []
        for r in range(seeds):
            trace = run_sampling(
                sig, seq, model, sched, np.random.SeedSequence((seed_tag, r))
            )
            spec = power_spectrum(trace)
            band = default_noise_band(spec, [peak])
            vals.append(measure_snr(spec, peak, band, exact=True).measured_snr)
        return float(np.mean(vals)), predicted_snr(phi, num, model)

    def test_measured_snr_matches_prediction_across_operating_grid(self):
        """Measured SNR tracks the analytic law within 20% over a
        (n, contrast, phi_max, N) grid at desk scale."""
        tag = 0
        for n in (260, 996):
            for eps in (0.2, 0.35):
                for phi in (0.2, 0.5):
                    for num in (20_000, 40_000):
                        tag += 1
                        measured, predicted = self._snr_point(
                            n, eps, phi, num, 0.31415, 16, (515, tag)
                        )
                        assert measured == pytest.approx(predicted, rel=0.20)

    def test_snr_doubles_when_the_sample_count_doubles(self):
        nums = [12_500, 25_000, 50_000, 100_000]
        means = [
            self._snr_point(260, 0.35, 0.5, num, 0.31416, 8, (517, num))[0]
            for num in nums
        ]
        slope = loglog_slope(np.array(nums), np.array(means))
        assert slope == pytest.approx(1.00, abs=0.05)


class TestDepolarizedGainCurve:
    CONTRAST = 0.35
    DEPOLARIZATION = 1.4e-4

    @classmethod
    def _curve(cls):
        ns = np.arange(10, 2001)
        curve = np.array(
            [
                predicted_snr(
                    0.5,
                    30_000,
                    ReadoutModel(
                        qnd_repetitions=int(n),
                        contrast=cls.CONTRAST,
                        depolarization_per_readout=cls.DEPOLARIZATION,
                    ),
                    depolarized=True,
                )
                for n in ns
            ]
        )
        return ns, curve

    def test_snr_peaks_between_200_and_400_readouts(self):
        """The depolarized SNR peaks on the grid at the closed-form optimum n*.

        The readout model puts signal power ~ C^2 eps^2 e^(-2 Gamma n) over
        noise sigma_y^2 = C^2 eps^2/4 + C (1 - eps/2), with C = s n photons
        (s = gain_slope_photons).  So SNR(n) ~ n e^(-2 Gamma n) / (a n + b)
        with a = s eps^2/4 and b = 1 - eps/2, and d ln SNR/dn = 1/n - 2 Gamma
        - a/(a n + b) = 0 reduces to a n^2 + b n - b/(2 Gamma) = 0.  Its
        positive root is n* = 837.505 at eps = 0.35, Gamma = 1.4e-4 and
        s = 0.105.  The name records the window first pinned, which holds the
        80%-of-optimum knee (n = 283, next test); the peak sits at n*.
        Survival applied once instead of squared would move the argmax to
        n = 1232.
        """
        eps, gamma = self.CONTRAST, self.DEPOLARIZATION
        s = ReadoutModel(qnd_repetitions=1, contrast=eps).gain_slope_photons
        a = s * eps**2 / 4.0
        b = 1.0 - eps / 2.0
        n_star = (-b + math.sqrt(b * b + 2.0 * a * b / gamma)) / (2.0 * a)
        ns, curve = self._curve()
        best = int(ns[np.argmax(curve)])
        assert best in (math.floor(n_star), math.ceil(n_star))

    def test_snr_knee_in_the_200_400_window_and_degrades_by_2000(self):
        """The 80%-of-optimum knee sits in [200, 400] (n = 283), the maximum
        is interior, and the SNR has visibly degraded by n = 2000."""
        ns, curve = self._curve()
        best = int(ns[np.argmax(curve)])
        knee = int(ns[np.argmax(curve >= 0.8 * np.max(curve))])
        assert 200 <= knee <= 400
        assert ns[0] < best < ns[-1]
        assert curve[-1] < 0.9 * np.max(curve)


class TestThresholdGain:
    def test_reference_contrast_value(self):
        assert threshold_gain(0.35) == pytest.approx(26.94, abs=0.01)


class TestScalingLaws:
    F_AC = 1.2e6
    T_S = 20160.31 / F_AC

    @classmethod
    def _parts(cls, phi_max, fm=None):
        seq = CpmgSequence(pulse_count=32, tau_s=1.0 / (2.0 * cls.F_AC))
        omega = omega_for_phi_max(phi_max, seq.sensing_time_s)
        sig = AcSignal(
            tones=(
                Tone(
                    frequency_hz=cls.F_AC,
                    amplitude_rad_per_s=omega,
                    phase_rad=0.7,
                ),
            ),
            fm=fm,
        )
        model = ReadoutModel(qnd_repetitions=498, contrast=0.35)
        # scaling_study sets each point's num_samples
        sched = SamplingSchedule.from_period(seq, model, cls.T_S, num_samples=1)
        return sig, seq, model, sched

    def test_coherent_tone_width_and_center_uncertainty_slopes(self):
        """Fourier-limited regime: linewidth ~ T^-1 and center uncertainty
        ~ T^-1.5 on log-log ladders."""
        sig, seq, model, sched = self._parts(0.25)
        study = scaling_study(
            sig,
            seq,
            model,
            sched,
            [4130, 7030, 12030, 20130, 34030, 58030, 99030, 168030],
            seed=202,
            seeds_per_point=6,
            num_threads=4,
        )
        assert study.width_slope_unresolved == pytest.approx(-1.0, abs=0.1)
        assert study.sigma_center_slope_unresolved == pytest.approx(-1.5, abs=0.2)

    def test_broadened_tone_plateau_and_resolved_slope(self):
        """An intrinsically broadened tone saturates at its linewidth and the
        center uncertainty slope relaxes to ~ T^-0.5 once resolved."""
        linewidth = 7.6e-4
        sig, seq, model, sched = self._parts(
            0.25,
            fm=FmNoise(linewidth_hz=linewidth, rng_seed=5, correlation_time_s=2.0),
        )
        study = scaling_study(
            sig,
            seq,
            model,
            sched,
            [
                4699,
                9398,
                18797,
                35244,
                70488,
                133143,
                187967,
                250623,
                352438,
                501245,
                704876,
                994659,
                1331433,
            ],
            seed=303,
            seeds_per_point=12,
            num_threads=4,
        )
        mask = study.resolved_mask
        assert mask.any() and (~mask).any()  # ladder spans both regimes
        assert study.width_plateau_hz == pytest.approx(linewidth, rel=0.3)
        assert study.sigma_center_slope_resolved == pytest.approx(-0.5, abs=0.2)


class TestExactRecovery:
    def test_99pct_support_recovery_above_the_information_threshold(self):
        """Noiseless random instances: every (s, p) cell with p > 2s - 1
        recovers the exact support in >= 99% of 200 trials."""
        s_values = [1, 2, 3]
        p_values = [4, 5, 6]
        success = recovery_phase_diagram(
            s_values, p_values, trials=200, seed=909, grid_bins=1024
        )
        for i, s in enumerate(s_values):
            for j, p in enumerate(p_values):
                if p > 2 * s - 1:
                    assert success[i, j] >= 0.99


class TestWidebandReconstruction:
    def test_seven_tones_land_on_their_absolute_bins(self, capsys):
        """End-to-end CLI reconstruction of the shipped seven-rate design:
        every tone appears at its exact wideband bin and dominates its
        neighborhood; spurious components stay below 20% of the weakest
        true peak; the whole run stays under ten minutes."""
        config = REPO_ROOT / "configs" / "wideband_recovery.yaml"
        t0 = time.perf_counter()
        code = main(["reconstruct", "--config", str(config), "--format", "json"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr()
        assert code == EXIT_OK, out.err
        result = json.loads(out.out)["result"]

        grid = WidebandGrid(duration_s=2.0, nyquist_rate_hz=2.5e6)
        tone_freqs = [
            400735.0,
            400750.0,
            400765.0,
            401750.0,
            1202210.0,
            1202250.0,
            1202290.0,
        ]
        expected = [grid.bin_of(f) for f in tone_freqs]
        true_set = set(expected) | {grid.conjugate_bin(b) for b in expected}
        comps = {
            int(b): float(x)
            for b, x in zip(result["nonzero_bins"], result["nonzero_components"])
            if x > 0.0
        }
        true_vals = [comps.get(b, 0.0) for b in expected]
        assert min(true_vals) > 0.0  # all seven tones recovered at exact bins
        for b, v in zip(expected, true_vals):
            neighborhood = [
                comps.get(bb, 0.0) for bb in range(b - 5, b + 6) if bb != b
            ]
            assert v > max(neighborhood, default=0.0)
        spurious = [v for b, v in comps.items() if b not in true_set]
        assert max(spurious, default=0.0) < 0.20 * min(true_vals)
        assert elapsed < 600.0


def mirrored(one_sided: np.ndarray, n: int) -> np.ndarray:
    """Two-sided length-n vector from rows 0 .. floor(n/2): v[n - k] = v[k]."""
    return np.concatenate([one_sided, one_sided[1 : (n + 1) // 2][::-1]])


class TestFoldingOracle:
    def test_matrix_columns_match_directly_sampled_tones(self):
        """For 100 random in-band tones per rate, the sampling-matrix column
        lands on the same folded bin as a directly sampled unit cosine and
        carries the same power within 5%.

        Tones are drawn away from folds within 6 bins of DC or Nyquist,
        where the mirror image overlaps coherently and power-domain folding
        does not apply (the reconstruction pipeline reports such columns
        separately as DC-coupled).
        """
        grid = WidebandGrid(duration_s=2.0, nyquist_rate_hz=2.5e6)
        support, _ = support_from_bands(
            grid, [(400550.0, 401950.0), (1202050.0, 1202450.0)]
        )
        periods = [
            1.3286e-3,
            1.3320e-3,
            1.33432e-3,
            1.33748e-3,
            1.34032e-3,
            1.34448e-3,
            1.34648e-3,
        ]
        guard = 6.0
        foot = 10
        rng = np.random.default_rng(1111)
        for t_s in periods:
            n_i = int(math.floor(2.0 / t_s + 1e-9))
            f_s = 1.0 / t_s
            freqs = support.astype(float) * grid.resolution_hz
            pos = (freqs / f_s) % 1.0 * n_i
            dist = np.minimum(np.minimum(pos, n_i - pos), np.abs(pos - n_i / 2.0))
            eligible = support[dist > guard]
            mat = build_sampling_matrix(f_s, n_i, grid, support)
            cols = {int(s): j for j, s in enumerate(mat.support)}
            dense = mat.matrix.toarray()
            d_i = 4.0 / (grid.num_bins * n_i)
            for m in rng.choice(eligible, size=100, replace=False):
                m = int(m)
                f_tone = float(grid.frequency_hz(m))
                k = np.arange(n_i)
                trace = np.cos(2.0 * math.pi * f_tone * k / f_s + 0.9)
                spec = power_spectrum(trace, sample_rate_hz=f_s)
                one_sided = dense[:, cols[m]]
                row_peak = int(np.argmax(one_sided))
                assert row_peak == undersampled_bin(f_tone, f_s, n_i)
                # Mirror both one-sided vectors onto the N_i two-sided rows.
                two = mirrored(spec.power, n_i) * d_i
                col = mirrored(one_sided, n_i)
                rows = set()
                for r0 in (row_peak, n_i - row_peak):
                    rows.update((r0 + d) % n_i for d in range(-foot, foot + 1))
                rows = sorted(rows)
                direct = float(np.sum(two[rows]))
                modeled = float(np.sum(col[rows]))
                assert direct == pytest.approx(modeled, rel=0.05)


class TestCliDeterminism:
    CONFIG = {
        "seed": 42,
        "signal": {
            "tones": [
                {
                    "frequency_hz": 1.2e6,
                    "amplitude_rad_per_s": 117809.72450700928,
                    "phase_rad": 0.6,
                }
            ]
        },
        "cpmg": {"pulse_count": 16, "tau_s": 1.0 / 2.4e6},
        "readout": {"qnd_repetitions": 260, "contrast": 0.35},
        "schedule": {"num_samples": 2000, "dead_time_s": 5.0e-4},
    }

    def _write_config(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(self.CONFIG))
        return path

    def test_repeated_runs_write_byte_identical_csvs(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(
                [
                    "spectrum",
                    "--config",
                    str(config),
                    "--format",
                    "csv",
                    "--out",
                    str(out),
                ]
            )
            capsys.readouterr()
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

        traces = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            code = main(
                [
                    "simulate",
                    "--config",
                    str(config),
                    "--format",
                    "csv",
                    "--out",
                    str(out),
                ]
            )
            capsys.readouterr()
            assert code == EXIT_OK
            traces.append(out.read_bytes())
        assert traces[0] == traces[1]

    def test_thread_count_does_not_change_the_bytes(self, tmp_path, capsys):
        # 2000 samples are one chunk; 140 000 are three, which run through the
        # thread pool, each chunk with its own stream and time errors.
        for num_samples in (2000, 140_000):
            cfg = copy.deepcopy(self.CONFIG)
            cfg["schedule"]["num_samples"] = num_samples
            config = tmp_path / f"run_{num_samples}.yaml"
            config.write_text(yaml.safe_dump(cfg))
            outputs = []
            for threads in (1, 4):
                out = tmp_path / f"{num_samples}_{threads}.csv"
                code = main(
                    [
                        "spectrum",
                        "--config",
                        str(config),
                        "--format",
                        "csv",
                        "--out",
                        str(out),
                        "--threads",
                        str(threads),
                    ]
                )
                capsys.readouterr()
                assert code == EXIT_OK
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]
