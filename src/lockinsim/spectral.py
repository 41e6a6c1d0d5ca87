"""Power spectra, SNR measurement/prediction, Lorentzian fits, and scaling.

Spectra use the unnormalized-DFT convention Y_j = |sum_k y_k e^{-2 pi i kj/N}|^2
(no 1/N or 1/sqrt(N)), so Parseval reads sum_j |yhat_j|^2 = N sum_k y_k^2, a
zero-signal noise floor has mean (and standard deviation) N sigma_y^2, and an
on-bin tone of per-sample count amplitude a peaks at (N a / 2)^2. The power
SNR of a tone of peak accumulated phase phi_max then follows

    SNR = (1/16) (C eps)^2 N phi_max^2 [e^{-2 Gamma n}]
          / [ (1/4)(C eps)^2 + C (1 - eps/2) ].

Frequency estimation fits h(f) = A gamma^2 / ((f - f_c)^2 + gamma^2) + offset
by Levenberg-Marquardt with an analytic Jacobian; parameter covariance is
(J^T J)^{-1} sigma_res^2 with sigma_res^2 = SSR / (n_points - 2), and
sigma_fc = sqrt of its first diagonal element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._io import check_range, frozen
from .lockin import CpmgSequence
from .readout import ReadoutModel, depolarization_survival, noise_variance
from .sampler import SamplingSchedule, TimeTrace, run_sampling, undersampled_bin
from .signal import AnySignal, CompositeSignal, max_linewidth_hz, strongest_tone

__all__ = [
    "AnalysisConfig",
    "ScalingConfig",
    "PowerSpectrum",
    "SnrReport",
    "TargetPeak",
    "LorentzianFit",
    "FitError",
    "ScalingStudyResult",
    "power_spectrum",
    "average_spectra",
    "noise_floor_level",
    "predicted_snr",
    "default_noise_band",
    "find_peak_bin",
    "locate_target_peak",
    "measure_snr",
    "lorentzian",
    "fit_lorentzian",
    "scaling_study",
]


@dataclass(frozen=True)
class PowerSpectrum:
    """One-sided unnormalized-DFT power spectrum.

    Attributes:
        power: Y_j for j = 0..floor(N/2) (photons^2); bin 0 is the DC term.
            Held as :func:`frozen` holds it.
        sample_rate_hz: f_s.
        num_samples: N of the source trace.
    """

    power: np.ndarray
    sample_rate_hz: float
    num_samples: int

    def __post_init__(self) -> None:
        power = frozen(self.power, float)
        if power.ndim != 1 or power.size != self.num_samples // 2 + 1:
            raise ValueError(
                f"power must have floor(N/2)+1 = {self.num_samples // 2 + 1} bins, "
                f"got {power.shape}"
            )
        check_range(0, power=power)
        object.__setattr__(self, "power", power)

    @property
    def bin_width_hz(self) -> float:
        """delta f = f_s / N."""
        return self.sample_rate_hz / self.num_samples

    @property
    def num_bins(self) -> int:
        return int(self.power.size)

    @property
    def frequencies_hz(self) -> np.ndarray:
        return np.arange(self.power.size) * self.bin_width_hz


# Largest prime factor p of N up to which ``np.fft.rfft`` runs whole. Above it
# pocketfft's radix-p pass over all N points costs more than the split in
# ``_rfft_power``. At N near 4e5 on 2 cores, rfft against the split took 76-78
# against 78-85 ns per point at p = 401, and 92-94 against 73-75 at p = 503.
_SPLIT_PRIME = 500


def _largest_prime_factor(n: int) -> int:
    p, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            p, n = d, n // d
        d += 1
    return max(p, n)


#: Entries per row block of the middle steps of ``_rfft_power``: each block's
#: temporaries and the twiddle table stay near 512 kB, whatever N is.
_SPLIT_BLOCK = 1 << 15


def _phasors(scale: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(i scale a_r b_c) for integers with every a_r b_c exact in a double,
    as the (a.size, b.size) table cos + i sin of the real angle (about twice
    as fast as ``np.exp`` of the complex one)."""
    table = np.empty((a.size, b.size), dtype=complex)
    angle = table.imag  # the angles live where their sines will go
    np.multiply.outer(a, b, out=angle)
    angle *= scale
    np.cos(angle, out=table.real)
    np.sin(angle, out=angle)
    return table


def _rfft_power(x: np.ndarray) -> np.ndarray:
    """|X_k|^2 = re^2 + im^2 of X = ``np.fft.rfft(x)``, split at a large prime p | N.

    Cooley-Tukey in four steps on x viewed as (p, q): length-p transforms
    down the columns, the twiddles exp(-2 pi i k1 j2 / N), length-q
    transforms along the rows, then |X[k1 + p k2]|^2 = |B[k1, k2]|^2.

    The columns are real, so they are transformed two at a time (Cooley,
    Lewis & Welch 1970): columns 2c and 2c + 1 are packed as the real and
    imaginary parts of one complex column, whose transform Z_c splits by
    conjugate symmetry into A[k1, 2c] = (Z_c[k1] + conj Z_c[-k1]) / 2 and
    A[k1, 2c + 1] = (Z_c[k1] - conj Z_c[-k1]) / 2i. So q // 2 complex
    transforms, and one ``np.fft.rfft`` for an odd q's last column, do the
    work of q real ones. Only rows k1 <= p//2 are unpacked, twiddled
    and transformed: the others follow from B[k1, k2] = conj(B[p - k1,
    q - 1 - k2]), so their power is read through reversed views. These
    rows go in blocks of about ``_SPLIT_BLOCK`` entries, and a block's
    twiddles are the product, in place, of a table for the block's first
    row r, exp(-2 pi i r j2 / N), and one for the offsets i = k1 - r shared
    by every block: q (h / b + b) sines and cosines for h rows in blocks of
    b, where forming each twiddle takes h q. Each block is squared right
    after its transform, so memory peaks at the packed columns (x as
    floats), half that for the power, and one block. For p <=
    ``_SPLIT_PRIME`` or prime N it squares ``np.fft.rfft`` itself.
    """
    n = x.size
    p = _largest_prime_factor(n)
    if p <= _SPLIT_PRIME or p == n:
        spectrum = np.fft.rfft(x)
        return spectrum.real**2 + spectrum.imag**2
    q = n // p
    h, m = p // 2 + 1, q // 2 + 1  # rows computed; columns k2 that reach k <= N/2
    paired = 2 * (q // 2)  # columns transformed as packed pairs
    columns = x.reshape(p, q)
    z = np.empty((p, q // 2), dtype=complex)
    z.real = columns[:, 0:paired:2]
    z.imag = columns[:, 1:paired:2]
    np.fft.fft(z, axis=0, out=z)
    odd_column = np.fft.rfft(columns[:, -1]) if q % 2 else None

    rows = min(h, max(1, _SPLIT_BLOCK // q))
    j2 = np.arange(q, dtype=float)
    scale = -2.0 * np.pi / n
    offset_twiddle = _phasors(scale, np.arange(rows, dtype=float), j2)
    first_twiddle = _phasors(scale, np.arange(0, h, rows, dtype=float), j2)
    a = np.empty((rows, q), dtype=complex)
    out = np.empty((m, p))  # out[k2, k1] = |X[k1 + p k2]|^2
    for block, r in enumerate(range(0, h, rows)):
        b = min(rows, h - r)
        block_a = a[:b]
        mirror = z[-np.arange(r, r + b) % p]
        np.conjugate(mirror, out=mirror)
        even, odd = block_a[:, 0:paired:2], block_a[:, 1:paired:2]
        np.add(z[r : r + b], mirror, out=even)
        even *= 0.5
        np.subtract(z[r : r + b], mirror, out=odd)
        odd *= -0.5j
        if odd_column is not None:
            block_a[:, -1] = odd_column[r : r + b]
        block_a *= offset_twiddle[:b]
        block_a *= first_twiddle[block]
        np.fft.fft(block_a, axis=1, out=block_a)
        block_power = np.square(block_a.real, out=block_a.real)
        block_power += np.square(block_a.imag, out=block_a.imag)
        out[:, r : r + b] = block_power[:, :m].T
        skip = 1 if r == 0 else 0  # row 0 is its own mirror
        out[:, p - r - b + 1 : p - r - skip + 1] = block_power[skip:][::-1, ::-1][:, :m].T
    return out.ravel()[: n // 2 + 1]


def power_spectrum(
    trace: TimeTrace | np.ndarray | Sequence[float],
    sample_rate_hz: float | None = None,
) -> PowerSpectrum:
    """Compute the unnormalized one-sided power spectrum of a trace.

    Works for arbitrary N, no window, no zero padding. ``_rfft_power``
    squares ``np.fft.rfft`` or, at a prime factor p > ``_SPLIT_PRIME`` of a
    composite N, a split transform whose bins agree with rfft's to within a
    few ulps of the largest. A trace's counts go in uncopied, and the split
    then peaks at 2.1 (N = 385 263) to 1.8 (N = 854 798) times their bytes.

    Args:
        trace: A :class:`TimeTrace` or a raw sample array (then
            ``sample_rate_hz`` is required).
        sample_rate_hz: Sample rate for raw arrays.
    """
    if isinstance(trace, TimeTrace):
        samples = trace.counts
        f_s = trace.sample_rate_hz
    else:
        samples = np.asarray(trace, dtype=float)
        if sample_rate_hz is None:
            raise ValueError("sample_rate_hz is required for raw sample arrays")
        f_s = float(sample_rate_hz)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("power_spectrum requires a 1-D trace with N >= 2")
    power = _rfft_power(samples)
    power.setflags(write=False)  # the spectrum keeps it uncopied
    return PowerSpectrum(power=power, sample_rate_hz=f_s, num_samples=samples.size)


def average_spectra(spectra: Sequence[PowerSpectrum]) -> PowerSpectrum:
    """Bin-wise mean of same-shape spectra (averages down the noise floor).

    All spectra must share N and the sample rate (relative 1e-9).
    """
    if not spectra:
        raise ValueError("average_spectra needs at least one spectrum")
    first = spectra[0]
    total = first.power.copy()
    for s in spectra[1:]:
        if s.num_samples != first.num_samples or not math.isclose(
            s.sample_rate_hz, first.sample_rate_hz, rel_tol=1e-9
        ):
            raise ValueError("spectra must share num_samples and sample_rate_hz")
        total += s.power
    total /= len(spectra)
    total.setflags(write=False)  # the spectrum keeps it uncopied
    return PowerSpectrum(
        power=total,
        sample_rate_hz=first.sample_rate_hz,
        num_samples=first.num_samples,
    )


def noise_floor_level(model: ReadoutModel, num_samples: int) -> float:
    """Expected zero-signal noise-floor level N sigma_y^2 (photons^2)."""
    return num_samples * noise_variance(model)


def predicted_snr(
    phi_max: float,
    num_samples: int,
    model: ReadoutModel,
    *,
    depolarized: bool = False,
) -> float:
    """Predicted power SNR of a tone of peak phase ``phi_max``.

    Small-signal form (phi_max <~ 1: the peak count amplitude is linearized
    as C eps phi_max / 2; at larger phi_max the true first-harmonic amplitude
    is C eps J_1(phi_max)).

    Args:
        phi_max: Peak accumulated phase (rad).
        num_samples: Trace length N.
        model: Readout model (provides C, eps, Gamma, n).
        depolarized: Include the memory-depolarization factor e^{-2 Gamma n}.
    """
    c = model.mean_gain_photons
    eps = model.contrast
    signal = (c * eps) ** 2 * num_samples * phi_max**2 / 16.0
    if depolarized:
        signal *= depolarization_survival(model) ** 2
    return signal / noise_variance(model)


@dataclass(frozen=True)
class AnalysisConfig:
    """How the CLI finds, fits and measures the target tone (the config's
    ``analysis`` section).

    Attributes:
        window_half_bins: Least half window of :func:`locate_target_peak`.
        window_linewidth_factor: Half window in linewidths once that is wider.
        noise_guard_linewidths: Guard of :func:`default_noise_band`.
        exact_snr: The ``exact`` form of :func:`measure_snr`.
        target_frequency_hz: The target tone; None for the strongest tone.
    """

    window_half_bins: int = 12
    window_linewidth_factor: float = 8.0
    noise_guard_linewidths: float = 10.0
    exact_snr: bool = False
    target_frequency_hz: float | None = None

    def __post_init__(self) -> None:
        check_range(2, integer=True, window_half_bins=self.window_half_bins)
        check_range(0, strict=True, window_linewidth_factor=self.window_linewidth_factor)
        check_range(0, strict=True, noise_guard_linewidths=self.noise_guard_linewidths)
        check_range(0, strict=True, target_frequency_hz=self.target_frequency_hz)

    def target_of(self, signal: AnySignal) -> float:
        """The target tone's frequency: the configured one, else the strongest tone's."""
        if self.target_frequency_hz is not None:
            return self.target_frequency_hz
        return strongest_tone(signal).frequency_hz


@dataclass(frozen=True)
class SnrReport:
    """Measured power SNR of one spectral peak.

    Attributes:
        measured_snr: Y_peak / std(noise band) (minus 1 when ``exact``).
        peak_bin: The evaluated signal bin.
        peak_power: Y at ``peak_bin``.
        noise_mean: Mean of the noise band.
        noise_std: Standard deviation of the noise band (ddof=1).
        noise_band_bins: Number of bins in the noise band.
        exact: Whether the mean-corrected form (ratio - 1) was returned.
    """

    measured_snr: float
    peak_bin: int
    peak_power: float
    noise_mean: float
    noise_std: float
    noise_band_bins: int
    exact: bool


def default_noise_band(
    spectrum: PowerSpectrum,
    signal_bins: Sequence[int],
    *,
    linewidth_bins: float = 1.0,
    guard_linewidths: float = AnalysisConfig.noise_guard_linewidths,
) -> np.ndarray:
    """Mask over bins 0..N/2, True for bins >= ``guard_linewidths``
    linewidths from every signal bin.

    DC and the Nyquist bin (even N) are always excluded. The line width
    defaults to one bin (Fourier-limited tone).
    """
    guard = max(1, int(math.ceil(guard_linewidths * max(linewidth_bins, 1.0))))
    n_bins = spectrum.num_bins
    mask = np.ones(n_bins, dtype=bool)
    mask[0] = False
    if spectrum.num_samples % 2 == 0:
        mask[-1] = False
    for b in signal_bins:
        lo = max(0, int(b) - guard)
        hi = min(n_bins, int(b) + guard + 1)
        mask[lo:hi] = False
    return mask


def find_peak_bin(
    spectrum: PowerSpectrum, lo_bin: int = 1, hi_bin: int | None = None
) -> int:
    """Highest-power bin in [lo_bin, hi_bin); ties go to the lowest index."""
    hi = spectrum.num_bins if hi_bin is None else hi_bin
    if not (0 <= lo_bin < hi <= spectrum.num_bins):
        raise ValueError(f"invalid search range [{lo_bin}, {hi})")
    return int(lo_bin + np.argmax(spectrum.power[lo_bin:hi]))


@dataclass(frozen=True)
class TargetPeak:
    """Where the target tone sits in a spectrum.

    Attributes:
        expected_bin: Folded (undersampled) bin of the target frequency.
        peak_bin: Highest-power bin within the half window of
            ``expected_bin`` (DC excluded).
        window: Fit window [lo, hi) of the same half width around
            ``peak_bin``.
    """

    expected_bin: int
    peak_bin: int
    window: tuple[int, int]


def locate_target_peak(
    spectrum: PowerSpectrum, target_hz: float, linewidth_hz: float, analysis: AnalysisConfig
) -> TargetPeak:
    """Find the target tone's peak near its folded bin.

    The half window is ``analysis.window_half_bins`` bins for Fourier-limited
    lines, widened to ``analysis.window_linewidth_factor`` x ``linewidth_hz``
    once that is wider; the peak search and the fit window share it.
    """
    n_bins = spectrum.num_bins
    expected = undersampled_bin(target_hz, spectrum.sample_rate_hz, spectrum.num_samples)
    half = max(
        analysis.window_half_bins,
        int(math.ceil(analysis.window_linewidth_factor * linewidth_hz / spectrum.bin_width_hz)),
    )
    peak = find_peak_bin(spectrum, max(1, expected - half), min(n_bins, expected + half + 1))
    return TargetPeak(expected, peak, (max(1, peak - half), min(n_bins, peak + half + 1)))


def measure_snr(
    spectrum: PowerSpectrum,
    peak_bin: int,
    noise_band: np.ndarray,
    *,
    exact: bool = AnalysisConfig.exact_snr,
) -> SnrReport:
    """Measure the power SNR of ``peak_bin`` against a noise band.

    Args:
        spectrum: The spectrum.
        peak_bin: Signal bin (not in the noise band, not DC).
        noise_band: Boolean mask over the spectrum's bins, True for a bin
            with no signal content, as :func:`default_noise_band` gives it;
            must exclude ``peak_bin`` and DC.
        exact: Return Y_peak/std - 1 (the mean-corrected form) instead of the
            large-SNR ratio.

    Raises:
        ValueError: If the mask does not match the spectrum's bins, the noise
            band overlaps the peak or DC, or is too small to estimate a
            standard deviation.
    """
    mask = np.asarray(noise_band)
    if mask.dtype != bool or mask.shape != (spectrum.num_bins,):
        raise ValueError(
            f"noise_band must be a boolean mask of {spectrum.num_bins} bins, "
            f"got {mask.dtype} {mask.shape}"
        )
    band_bins = int(np.count_nonzero(mask))
    if band_bins < 2:
        raise ValueError("noise_band must contain at least two bins")
    if not (0 <= peak_bin < spectrum.num_bins):
        raise ValueError(f"peak_bin {peak_bin} out of range")
    if mask[peak_bin]:
        raise ValueError("noise_band overlaps the signal peak")
    if mask[0]:
        raise ValueError("noise_band must exclude the DC bin")

    noise = spectrum.power[mask]
    noise_std = float(noise.std(ddof=1))
    if noise_std == 0.0:
        raise ValueError("noise band has zero variance; cannot form an SNR")
    peak_power = float(spectrum.power[peak_bin])
    ratio = peak_power / noise_std
    return SnrReport(
        measured_snr=ratio - 1.0 if exact else ratio,
        peak_bin=int(peak_bin),
        peak_power=peak_power,
        noise_mean=float(noise.mean()),
        noise_std=noise_std,
        noise_band_bins=band_bins,
        exact=exact,
    )


def _median(values: np.ndarray) -> float:
    """Median of a non-empty 1-D array, NaN if any value is NaN, as ``np.median``
    gives it; ``np.median`` imports ``numpy.ma`` (about 15 ms) on first use."""
    lo, hi = (values.size - 1) // 2, values.size // 2
    part = np.partition(values, [lo, hi, -1])  # a NaN sorts last
    if np.isnan(part[-1]):
        return math.nan
    return float((part[lo] + part[hi]) / 2.0)


class FitError(RuntimeError):
    """Numerical failure; a failed fit carries its iteration diagnostics."""

    def __init__(self, message: str, iterations: int | None = None, residual: float = math.nan):
        if iterations is not None:
            message = f"{message} (iterations={iterations}, residual={residual})"
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


def lorentzian(
    f: np.ndarray, center_hz: float, width_hz: float, amplitude: float, offset: float
) -> np.ndarray:
    """h(f) = amplitude * width^2 / ((f - center)^2 + width^2) + offset."""
    w2 = width_hz * width_hz
    return amplitude * w2 / ((np.asarray(f, dtype=float) - center_hz) ** 2 + w2) + offset


def _lorentzian_jacobian(
    f: np.ndarray, center_hz: float, width_hz: float, amplitude: float
) -> np.ndarray:
    """Analytic Jacobian of :func:`lorentzian` w.r.t. (center, width, A, offset)."""
    d = f - center_hz
    w2 = width_hz * width_hz
    denom = d * d + w2
    denom2 = denom * denom
    jac = np.empty((f.size, 4))
    jac[:, 0] = 2.0 * amplitude * w2 * d / denom2
    jac[:, 1] = 2.0 * amplitude * width_hz * d * d / denom2
    jac[:, 2] = w2 / denom
    jac[:, 3] = 1.0
    return jac


@dataclass(frozen=True)
class LorentzianFit:
    """Result of a 4-parameter Lorentzian least-squares fit.

    Attributes:
        center_hz: Fitted line center f_c.
        width_hz: Fitted half width at half maximum gamma (> 0).
        amplitude: Peak height above the offset (photons^2).
        offset: Baseline (photons^2).
        covariance: 4x4 covariance (J^T J)^{-1} sigma_res^2 in parameter
            order (center, width, amplitude, offset).
        sigma_center_hz: sqrt(covariance[0, 0]).
        sigma_res: Residual standard deviation, sqrt(SSR / (n - 2)).
        n_iterations: Levenberg-Marquardt iterations used.
        converged: Whether the step/SSR tolerances were met.
        window: Fitted bin range [lo, hi).
    """

    center_hz: float
    width_hz: float
    amplitude: float
    offset: float
    covariance: np.ndarray
    sigma_center_hz: float
    sigma_res: float
    n_iterations: int
    converged: bool
    window: tuple[int, int]


#: Most Levenberg-Marquardt iterations :func:`fit_lorentzian` takes.
_FIT_MAX_ITERATIONS = 2000
#: Least fitted width, in bins; :func:`fit_lorentzian` says why.
_WIDTH_FLOOR_BINS = 0.25


def fit_lorentzian(spectrum: PowerSpectrum, window: tuple[int, int]) -> LorentzianFit:
    """Fit a Lorentzian line to ``spectrum.power`` over bins [lo, hi).

    Levenberg-Marquardt with the analytic Jacobian, at most
    ``_FIT_MAX_ITERATIONS`` iterations; initialization from the window peak
    (center), half-power width (gamma), peak-minus-median (amplitude), and
    median (offset).

    The fitted width is bounded below at ``_WIDTH_FLOOR_BINS`` of the bin
    spacing. Widths below the spectral resolution 1/T are not identifiable
    from a periodogram, and an unconstrained least-squares fit of a
    resolution-limited peak is degenerate: its objective keeps improving as
    the width collapses toward a one-bin spike with diverging amplitude.
    The floor turns that degeneracy into a stable estimate at the
    resolution scale without affecting resolved lines (width >> bin
    spacing).

    Raises:
        ValueError: If the window has fewer than 5 bins.
        FitError: On a degenerate (all-equal) window or non-convergence.
    """
    lo, hi = int(window[0]), int(window[1])
    if not (0 <= lo < hi <= spectrum.num_bins):
        raise ValueError(f"window [{lo}, {hi}) out of range")
    if hi - lo < 5:
        raise ValueError(f"window must span at least 5 bins, got {hi - lo}")

    f = spectrum.frequencies_hz[lo:hi]
    y = spectrum.power[lo:hi].astype(float)
    if np.all(y == y[0]):
        raise FitError("degenerate fit window: all powers equal", 0, 0.0)

    df = spectrum.bin_width_hz
    min_width = _WIDTH_FLOOR_BINS * df
    i_peak = int(np.argmax(y))
    offset0 = _median(y)
    amp0 = max(float(y[i_peak]) - offset0, 1e-12 * max(float(y[i_peak]), 1.0))
    half = offset0 + 0.5 * amp0
    above = np.nonzero(y >= half)[0]
    width0 = max(0.5 * df * max(above.max() - above.min(), 1), min_width)
    beta = np.array([f[i_peak], width0, amp0, offset0])

    def ssr_of(b: np.ndarray) -> tuple[float, np.ndarray]:
        r = y - lorentzian(f, *b)
        return float(r @ r), r

    def snap_linear(b: np.ndarray) -> np.ndarray:
        # Amplitude and offset enter the model linearly: profile them out
        # exactly at the current (center, width). Without this, LM crawls
        # along the curved (center, amplitude, offset) valley for
        # thousands of iterations on speckled peaks.
        w2 = b[1] * b[1]
        shape = w2 / ((f - b[0]) ** 2 + w2)
        ss = float(shape @ shape)
        s1 = float(shape.sum())
        n = float(shape.size)
        det = ss * n - s1 * s1
        if abs(det) < 1e-30 * max(ss * n, 1.0):
            return b
        sy = float(shape @ y)
        ty = float(y.sum())
        out = b.copy()
        out[2] = (n * sy - s1 * ty) / det
        out[3] = (ss * ty - s1 * sy) / det
        return out

    beta = snap_linear(beta)

    ssr, resid = ssr_of(beta)
    lam = 1e-3
    converged = False
    iterations = 0
    stall_run = 0
    for iterations in range(1, _FIT_MAX_ITERATIONS + 1):
        jac = _lorentzian_jacobian(f, beta[0], beta[1], beta[2])
        jtj = jac.T @ jac
        grad = jac.T @ resid
        stepped = False
        for _ in range(40):  # inner damping search
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-300))
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                lam *= 8.0
                continue
            candidate = beta + step
            candidate[1] = max(abs(candidate[1]), min_width)
            candidate = snap_linear(candidate)
            ssr_new, resid_new = ssr_of(candidate)
            if ssr_new <= ssr:
                # actual (post-clamp) parameter motion, not the raw LM step
                rel_step = np.max(
                    np.abs(candidate - beta) / np.maximum(np.abs(beta), 1e-30)
                )
                rel_ssr = (ssr - ssr_new) / max(ssr, 1e-300)
                beta, ssr, resid = candidate, ssr_new, resid_new
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                # a long run of accepted steps that each shave < 5e-6 off
                # the objective is practical stationarity (lambda-thrash
                # near a constrained optimum), not ongoing progress
                stall_run = stall_run + 1 if rel_ssr < 5e-6 else 0
                if rel_step < 1e-9 or rel_ssr < 1e-8 or stall_run >= 6:
                    converged = True
                break
            lam *= 8.0
        if converged:
            break
        if not stepped:
            converged = True  # damping exhausted at a (local) minimum
            break

    if not converged:
        raise FitError("Lorentzian fit did not converge", iterations, math.sqrt(ssr))

    n_pts = y.size
    sigma_res2 = ssr / max(n_pts - 2, 1)
    jac = _lorentzian_jacobian(f, beta[0], beta[1], beta[2])
    jtj = jac.T @ jac
    try:
        covariance = np.linalg.inv(jtj) * sigma_res2
    except np.linalg.LinAlgError:
        covariance = np.linalg.pinv(jtj) * sigma_res2
    return LorentzianFit(
        center_hz=float(beta[0]),
        width_hz=float(abs(beta[1])),
        amplitude=float(beta[2]),
        offset=float(beta[3]),
        covariance=covariance,
        sigma_center_hz=float(math.sqrt(max(covariance[0, 0], 0.0))),
        sigma_res=float(math.sqrt(sigma_res2)),
        n_iterations=iterations,
        converged=converged,
        window=(lo, hi),
    )


@dataclass(frozen=True)
class ScalingStudyResult:
    """Fitted linewidth and center-frequency uncertainty vs. trace duration.

    Durations are classified by comparing the intrinsic linewidth gamma_int
    of the signal against the spectral resolution df = 1/T: a point is
    *resolved* when gamma_int > df and *unresolved* otherwise (a coherent
    tone, gamma_int = 0, is always unresolved). Slopes are least-squares
    fits of log(value) vs log(T) over the points of one regime and are
    ``None`` when that regime has fewer than two points.

    Attributes:
        durations_s: Trace durations T.
        num_samples: Trace lengths N.
        bin_width_hz: Spectral resolution 1/T per duration.
        width_hz: Fitted linewidth per duration, from a single fit to the
            bin-wise average of the replicate periodograms (the ensemble
            line shape).
        sigma_center_hz: Median over replicates of the per-fit
            sigma_center_hz — the center-frequency uncertainty of one
            T-long measurement.
        intrinsic_width_hz: gamma_int of the signal (0 for coherent tones).
        resolved_mask: True where gamma_int > 1/T.
        width_slope_unresolved: Slope of log width_hz vs log T over
            unresolved points.
        width_plateau_hz: Median width_hz over resolved points (``None``
            if there are none).
        sigma_center_slope_unresolved: Slope of log sigma_center_hz vs
            log T over unresolved points.
        sigma_center_slope_resolved: Same over resolved points.
    """

    durations_s: np.ndarray
    num_samples: np.ndarray
    bin_width_hz: np.ndarray
    width_hz: np.ndarray
    sigma_center_hz: np.ndarray
    intrinsic_width_hz: float
    resolved_mask: np.ndarray
    width_slope_unresolved: float | None
    width_plateau_hz: float | None
    sigma_center_slope_unresolved: float | None
    sigma_center_slope_resolved: float | None


def _reseed_fm(signal: AnySignal, entropy: tuple[int, ...]) -> AnySignal:
    """Derive fresh frequency-noise path seeds for one replicate.

    Replicates must realize independent noise paths; reusing the signal's
    frozen path would make the "independent seeds" of a study share one
    line-shape realization. Signals without FM noise pass through.
    """
    reseeded = []
    for g_idx, group in enumerate(signal.groups):
        if group.fm is None:
            reseeded.append(group)
            continue
        seed_val = int(
            np.random.SeedSequence(entropy + (g_idx,)).generate_state(1)[0]
        )
        reseeded.append(
            replace(group, fm=replace(group.fm, rng_seed=seed_val))
        )
    if isinstance(signal, CompositeSignal):
        return replace(signal, groups=tuple(reseeded))
    return reseeded[0]


@dataclass(frozen=True)
class ScalingConfig:
    """The duration ladder of :func:`scaling_study` (the config's ``scaling``
    section): trace lengths N, at least 4 per decade of duration, and the
    independent traces simulated at each."""

    num_samples_list: list[int]
    seeds_per_point: int = 3

    def __post_init__(self) -> None:
        n_list = self.num_samples_list
        if len(n_list) < 2:
            raise ValueError("num_samples_list needs at least 2 entries")
        check_range(8, integer=True, num_samples_list=n_list)
        check_range(1, integer=True, seeds_per_point=self.seeds_per_point)
        decades = math.log10(max(n_list) / min(n_list))
        if decades > 0 and len(n_list) / decades < 4.0:
            raise ValueError(
                f"num_samples_list needs >= 4 points per decade, got {len(n_list) / decades:.2f}"
            )


def scaling_study(
    signal: AnySignal,
    seq: CpmgSequence,
    model: ReadoutModel,
    sched: SamplingSchedule,
    ladder: ScalingConfig,
    analysis: AnalysisConfig,
    seed: int,
    *,
    num_threads: int = 1,
) -> ScalingStudyResult:
    """Fit gamma(T) and sigma_fc(T) over a ladder of trace durations.

    For each N, ``ladder.seeds_per_point`` replicate traces are simulated
    with independent readout-noise streams and independent frequency-noise
    paths. Two estimators are computed per duration:

    * ``width_hz`` comes from one fit to the bin-wise *average* of the
      replicate periodograms. The average converges to the ensemble line
      shape, so the fitted width recovers the intrinsic linewidth once it
      is resolved; per-realization periodograms carry 100%-relative
      exponential bin noise that biases a least-squares width estimate
      low by up to a factor of two.
    * ``sigma_center_hz`` estimates the center-frequency uncertainty of
      one T-long measurement. At unresolved durations it is the median
      over replicates of the per-fit covariance uncertainty: those fits
      are stable (the width floor pins a resolution-limited peak), and
      the per-realization residual — the beat between the tone and the
      photon noise floor — is exactly the noise the scaling law is about.
      At resolved durations the covariance route breaks down: bin noise
      is proportional to the local spectrum, so an unweighted fit both
      under-counts the core bins' share of the residual (the four
      parameters have most of their leverage exactly there) and assumes
      a uniform noise level that the window does not have. The
      uncertainty is instead measured directly as the standard deviation
      of the fitted centers across the replicates.

    Every fit runs over the window :func:`locate_target_peak` returns
    around the peak of ``analysis.target_of(signal)``. The window widens
    with the intrinsic linewidth once that is resolved, which is what makes
    the covariance-based sigma_fc(T) exponents (-1.5 coherent, -0.5
    resolved-broadened) emerge; a fixed-Hz window mixes regimes.

    Args:
        signal: Tone (optionally FM-broadened) signal.
        seq: CPMG sequence.
        model: Readout model.
        sched: Schedule for every point (dead time, start time, clock
            jitter); each point replaces only its ``num_samples``.
        ladder: Trace lengths N and replicates per length.
        analysis: Target tone and fit window.
        seed: Master seed; per-(point, repeat) streams derive from it.
        num_threads: Threads for trace generation.

    Returns:
        A :class:`ScalingStudyResult` with per-duration values and
        per-regime slopes.
    """
    n_list, seeds_per_point = ladder.num_samples_list, ladder.seeds_per_point
    target_hz = analysis.target_of(signal)
    linewidth_hz = max_linewidth_hz(signal)

    def fit_target(spec: PowerSpectrum) -> LorentzianFit:
        peak = locate_target_peak(spec, target_hz, linewidth_hz, analysis)
        return fit_lorentzian(spec, peak.window)

    t_s = sched.period_s(seq, model)
    durations = np.empty(len(n_list))
    bin_widths = np.empty(len(n_list))
    widths = np.empty(len(n_list))
    sigmas = np.empty(len(n_list))
    for i, n in enumerate(n_list):
        point_sched = replace(sched, num_samples=n)
        df = 1.0 / t_s / n
        point_resolved = linewidth_hz > df
        specs = []
        seed_sigmas = np.empty(seeds_per_point)
        seed_centers = np.empty(seeds_per_point)
        for r in range(seeds_per_point):
            trace = run_sampling(
                _reseed_fm(signal, (seed, i, r)),
                seq,
                model,
                point_sched,
                np.random.SeedSequence((seed, i, r)),
                num_threads=num_threads,
            )
            spec = power_spectrum(trace)
            specs.append(spec)
            seed_fit = fit_target(spec)
            seed_sigmas[r] = seed_fit.sigma_center_hz
            seed_centers[r] = seed_fit.center_hz
        ensemble_fit = fit_target(average_spectra(specs))
        durations[i] = n * t_s
        bin_widths[i] = df
        widths[i] = ensemble_fit.width_hz
        if point_resolved and seeds_per_point >= 2:
            sigmas[i] = float(np.std(seed_centers, ddof=1))
        else:
            sigmas[i] = _median(seed_sigmas)

    resolved = linewidth_hz > bin_widths

    def regime_slope(values: np.ndarray, mask: np.ndarray) -> float | None:
        if int(mask.sum()) < 2:
            return None
        return float(np.polyfit(np.log(durations[mask]), np.log(values[mask]), 1)[0])

    return ScalingStudyResult(
        durations_s=durations,
        num_samples=np.asarray(n_list, dtype=np.int64),
        bin_width_hz=bin_widths,
        width_hz=widths,
        sigma_center_hz=sigmas,
        intrinsic_width_hz=linewidth_hz,
        resolved_mask=resolved,
        width_slope_unresolved=regime_slope(widths, ~resolved),
        width_plateau_hz=_median(widths[resolved]) if resolved.any() else None,
        sigma_center_slope_unresolved=regime_slope(sigmas, ~resolved),
        sigma_center_slope_resolved=regime_slope(sigmas, resolved),
    )
