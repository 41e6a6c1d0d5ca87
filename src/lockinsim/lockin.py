"""CPMG lock-in phase accumulation and the nonlinear harmonic response.

A CPMG sequence of K equally spaced pi pulses (inter-pulse delay tau, total
sensing time t_a = K tau) multiplies the signal inside the phase integral by
the modulation function g(t') = (-1)^floor(t'/tau):

    phi(t) = integral_0^{t_a} x(t + t') g(t') dt'.

For a single tone x(t) = Omega cos(omega t + alpha) with omega = 2 pi f_ac
and even K the integral evaluates in closed form to

    phi(t) = (2 Omega / omega) tan(omega tau / 2) sin(K omega tau / 2)
             * sin(omega t + alpha + K omega tau / 2),

a first-order bandpass filter of width ~1/t_a around the lock-in harmonics
f = m/(2 tau), m odd. On resonance (tau = m / (2 f_ac)) the phase amplitude
is phi_max = 2 t_a Omega / (m pi).

The qubit transition probability p = (1 - sin phi)/2 is nonlinear in phi;
for phi(t) = phi_max sin(omega t + theta) a Jacobi-Anger expansion gives
probability harmonics at odd multiples of f_ac with amplitudes
J_{2k+1}(phi_max) (Bessel functions of the first kind).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .signal import AcSignal, AnySignal, PhaseNoisePath, Tone, evaluate, expand_am

__all__ = [
    "CpmgSequence",
    "HarmonicLine",
    "modulation_function",
    "phase_closed_form",
    "phase_amplitude",
    "phase_by_integration",
    "transition_probability",
    "nonlinear_spectrum_prediction",
    "bessel_j",
]

TWO_PI = 2.0 * math.pi

#: Windows per block of the FM kernel; bounds its (windows x pieces)
#: temporaries whatever the number of windows.
_FM_BLOCK_WINDOWS = 1024


@dataclass(frozen=True)
class CpmgSequence:
    """A CPMG dynamical-decoupling sequence acting as a lock-in filter.

    Attributes:
        pulse_count: Number of pi pulses K; must be even and >= 2 (the
            closed-form phase below assumes even K).
        tau_s: Inter-pulse delay tau > 0 in seconds.
        harmonic: Odd harmonic order m >= 1; the filter passband of interest
            is centered at f = m / (2 tau).
    """

    pulse_count: int
    tau_s: float
    harmonic: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.pulse_count, (int, np.integer)) and self.pulse_count >= 2):
            raise ValueError(f"pulse_count must be an integer >= 2, got {self.pulse_count}")
        if self.pulse_count % 2 != 0:
            raise ValueError(f"pulse_count must be even, got {self.pulse_count}")
        if not (self.tau_s > 0.0 and math.isfinite(self.tau_s)):
            raise ValueError(f"tau_s must be > 0, got {self.tau_s}")
        if not (isinstance(self.harmonic, (int, np.integer)) and self.harmonic >= 1):
            raise ValueError(f"harmonic must be an integer >= 1, got {self.harmonic}")
        if self.harmonic % 2 == 0:
            raise ValueError(f"harmonic must be odd, got {self.harmonic}")

    @property
    def sensing_time_s(self) -> float:
        """Total phase-accumulation time t_a = K tau (s)."""
        return self.pulse_count * self.tau_s

    @property
    def lockin_frequency_hz(self) -> float:
        """Center of the selected passband, f = harmonic / (2 tau) (Hz)."""
        return self.harmonic / (2.0 * self.tau_s)

    @property
    def bandwidth_hz(self) -> float:
        """Half width of the passband main lobe, 1 / (2 t_a) (Hz)."""
        return 1.0 / (2.0 * self.sensing_time_s)

    @staticmethod
    def for_frequency(
        frequency_hz: float, pulse_count: int, harmonic: int = 1
    ) -> "CpmgSequence":
        """Tune tau so the ``harmonic``-th passband sits at ``frequency_hz``."""
        if not frequency_hz > 0.0:
            raise ValueError(f"frequency_hz must be > 0, got {frequency_hz}")
        return CpmgSequence(
            pulse_count=pulse_count,
            tau_s=harmonic / (2.0 * frequency_hz),
            harmonic=harmonic,
        )


def modulation_function(
    t_prime: float | np.ndarray, tau: float, pulse_count: int
) -> np.ndarray:
    """The CPMG modulation function g(t') = (-1)^floor(t'/tau).

    Args:
        t_prime: Offset(s) within the sensing window, 0 <= t' < pulse_count*tau.
        tau: Inter-pulse delay (s), > 0.
        pulse_count: Number of pulses K defining the window length.

    Returns:
        Array of +1/-1 values shaped like ``t_prime``.

    Raises:
        ValueError: If any t' lies outside [0, K tau).
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    t_arr = np.asarray(t_prime, dtype=float)
    if t_arr.size and (t_arr.min() < 0.0 or t_arr.max() >= pulse_count * tau):
        raise ValueError(
            f"t_prime must lie in [0, K*tau) = [0, {pulse_count * tau}), "
            f"got range [{t_arr.min()}, {t_arr.max()}]"
        )
    k = np.floor(t_arr / tau).astype(np.int64)
    return np.where(k % 2 == 0, 1, -1)


def _bandpass_kernel(u: np.ndarray, pulse_count: int) -> np.ndarray:
    """Evaluate tan(u) sin(K u) for even K, stably for all u > 0.

    With m = 2 floor(u/pi) + 1 (the nearest odd multiple of pi/2 below/above)
    and v = u - m pi/2 in (-pi/2, pi/2], the identity

        tan(u) sin(K u) = -(-1)^(K/2) cos(v) * K sinc(K v / pi) / sinc(v / pi)

    holds exactly; the sinc ratio is finite and smooth through the resonances
    v = 0 (where tan(u) alone diverges), so no branch switching is required.
    """
    u = np.asarray(u, dtype=float)
    m = 2.0 * np.floor(u / math.pi) + 1.0
    v = u - m * (math.pi / 2.0)
    sign = -1.0 if (pulse_count // 2) % 2 == 0 else 1.0
    kernel = pulse_count * np.sinc(pulse_count * v / math.pi) / np.sinc(v / math.pi)
    return sign * np.cos(v) * kernel


def _tone_phase(
    tone: Tone,
    seq: CpmgSequence,
    t: np.ndarray,
    extra_phase_rad: float | np.ndarray,
) -> np.ndarray:
    omega = TWO_PI * tone.frequency_hz
    u = omega * seq.tau_s / 2.0
    prefactor = (2.0 * tone.amplitude_rad_per_s / omega) * _bandpass_kernel(
        u, seq.pulse_count
    )
    carrier = np.sin(
        omega * t + tone.phase_rad + seq.pulse_count * u + np.asarray(extra_phase_rad)
    )
    return prefactor * carrier


def _fm_phase(
    tones: Sequence[Tone], seq: CpmgSequence, t: np.ndarray, path: PhaseNoisePath
) -> np.ndarray:
    """Exact phi(t) for tones sharing the piecewise-linear carrier phase ``path``.

    The window [t, t + t_a] is cut at the K+1 pulse edges and at every path
    node inside it. On each piece (width w, midpoint s_m, pulse interval k,
    path segment j) psi is linear, so the tone is a pure carrier at
    omega' = omega + psi'_j and its integral is

        Omega (-1)^k w sinc(omega' w / 2 pi) cos(omega s_m + alpha + psi(s_m)),

    which stays accurate for arbitrarily short pieces. Each block of windows
    has the same number of cuts: nodes that fall outside a window clip to
    its ends as zero-width pieces. Pulse signs and segments come from index
    arithmetic at the midpoints.
    """
    t_flat = t.ravel()
    tau = seq.tau_s
    t_a = seq.sensing_time_s
    dt = path.dt_s
    if t_flat.size:  # every window must lie within the path
        path.segment_at(np.array([t_flat.min(), t_flat.max() + t_a]))
    edges = np.arange(seq.pulse_count + 1) * tau
    # Node steps covering (t, t + t_a], one spare for floor(t/dt) rounding.
    steps = np.arange(int(t_a / dt) + 2)
    out = np.empty(t_flat.size)
    for lo in range(0, t_flat.size, _FM_BLOCK_WINDOWS):
        start = t_flat[lo : lo + _FM_BLOCK_WINDOWS, None]
        nodes = (np.floor(start / dt) + 1.0 + steps) * dt - start
        cuts = np.sort(
            np.concatenate(
                (np.broadcast_to(edges, (start.shape[0], edges.size)), np.clip(nodes, 0.0, t_a)),
                axis=1,
            ),
            axis=1,
        )
        width = np.diff(cuts, axis=1)
        offset = cuts[:, :-1] + 0.5 * width
        signed_width = np.where(np.floor(offset / tau) % 2 == 0, width, -width)
        mid = start + offset
        psi, slope = path.segment_at(mid)
        block = np.zeros(start.shape[0])
        for tone in tones:
            omega = TWO_PI * tone.frequency_hz
            pieces = (
                signed_width
                * np.sinc((omega + slope) * width / TWO_PI)
                * np.cos(omega * mid + tone.phase_rad + psi)
            )
            block += tone.amplitude_rad_per_s * pieces.sum(axis=1)
        out[lo : lo + _FM_BLOCK_WINDOWS] = block
    return out.reshape(t.shape)


def phase_closed_form(
    signal: AnySignal | Tone,
    seq: CpmgSequence,
    t: float | np.ndarray,
    *,
    extra_phase_rad: float | np.ndarray = 0.0,
    phase_noise: PhaseNoisePath | tuple[PhaseNoisePath | None, ...] | None = None,
) -> np.ndarray:
    """Accumulated phase phi(t) from the closed-form filter response.

    Multi-tone signals sum per-tone phases (the integral is linear in x);
    an AM envelope is first expanded exactly into sideband tones, and a
    composite signal sums its groups. A group with FM noise and a
    materialized path is integrated exactly over the piecewise-linear
    carrier phase psi(t): each (pulse interval x path segment) piece has a
    closed form. Without a path, FM enters quasi-statically through
    ``extra_phase_rad``.

    Args:
        signal: A :class:`Tone`, :class:`AcSignal` or
            :class:`CompositeSignal`.
        seq: CPMG sequence (even pulse count enforced by the type).
        t: Start time(s) of the sensing window (s).
        extra_phase_rad: Additional carrier phase added to every tone of
            the groups integrated without a path, broadcast against ``t``
            (the frozen offset of quasi-static FM).
        phase_noise: Materialized FM path(s), as for
            :func:`lockinsim.signal.evaluate`: one path, or one entry per
            group (None for groups without FM). Every window must lie
            within the path.

    Returns:
        phi(t) in radians, shaped like the broadcast of ``t`` and
        ``extra_phase_rad``.

    Raises:
        ValueError: If an FM group has neither a path nor an
            ``extra_phase_rad``, the path count does not match the groups,
            or a window runs past its path.
    """
    t_arr = np.asarray(t, dtype=float)
    if isinstance(signal, Tone):
        signal = AcSignal(tones=(signal,))
    groups = signal.groups
    if isinstance(phase_noise, PhaseNoisePath):
        phase_noise = (phase_noise,)
    paths = (None,) * len(groups) if phase_noise is None else tuple(phase_noise)
    if len(paths) != len(groups):
        raise ValueError(f"expected {len(groups)} phase-noise paths, got {len(paths)}")
    total = np.zeros(np.broadcast_shapes(t_arr.shape, np.shape(extra_phase_rad)))
    for group, path in zip(groups, paths):
        tones = expand_am(group).tones
        if group.fm is not None and path is not None:
            total = total + _fm_phase(tones, seq, t_arr, path)
            continue
        if group.fm is not None and np.ndim(extra_phase_rad) == 0 and extra_phase_rad == 0.0:
            raise ValueError(
                "signal has fm configured: the closed form needs the "
                "materialized path (phase_noise=) or the carrier phase "
                "offset (extra_phase_rad=)"
            )
        for tone in tones:
            total = total + _tone_phase(tone, seq, t_arr, extra_phase_rad)
    return total


def phase_amplitude(tone: Tone, seq: CpmgSequence) -> float:
    """Peak accumulated phase |phi|_max for a single tone (rad).

    On resonance (tau = m / (2 f_ac)) this equals 2 t_a Omega / (m pi).
    """
    omega = TWO_PI * tone.frequency_hz
    u = omega * seq.tau_s / 2.0
    return float(
        abs(2.0 * tone.amplitude_rad_per_s / omega)
        * abs(_bandpass_kernel(np.asarray(u), seq.pulse_count))
    )


def phase_by_integration(
    signal: AnySignal | Tone,
    seq: CpmgSequence,
    t: float | np.ndarray,
    dt: float | None = None,
    *,
    phase_noise: PhaseNoisePath | tuple[PhaseNoisePath | None, ...] | None = None,
) -> np.ndarray:
    """Brute-force quadrature of phi(t) = integral x(t+t') g(t') dt'.

    Composite trapezoid over each inter-pulse interval at three resolutions
    (n, 2n, 4n points) combined by two Richardson extrapolation levels,
    giving ~O(h^6) convergence for smooth integrands. It is the independent
    test oracle for :func:`phase_closed_form`, FM paths included; nothing
    in the simulation calls it, since its cost is a Python loop over the
    windows.

    Args:
        signal: Any signal accepted by :func:`lockinsim.signal.evaluate`,
            or a bare :class:`Tone`.
        seq: CPMG sequence.
        t: Scalar or 1-D array of window start times (s).
        dt: Base quadrature step; must satisfy dt <= tau/100
            (default tau/100).
        phase_noise: Materialized FM path(s) when the signal has FM.

    Returns:
        phi(t) in radians with the shape of ``t``.
    """
    if isinstance(signal, Tone):
        signal = AcSignal(tones=(signal,))
    tau = seq.tau_s
    if dt is None:
        dt = tau / 100.0
    if not (0.0 < dt <= tau / 100.0):
        raise ValueError(f"dt must satisfy 0 < dt <= tau/100 = {tau / 100.0}, got {dt}")
    n_base = int(math.ceil(tau / dt))

    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_flat = np.atleast_1d(t_arr)

    k = np.arange(seq.pulse_count)
    signs = np.where(k % 2 == 0, 1.0, -1.0)

    def trapezoid_all(npts: int) -> np.ndarray:
        # offsets within one interval, replicated across the K intervals
        x = np.linspace(0.0, tau, npts + 1)
        offsets = (k[:, None] * tau + x[None, :]).ravel()  # (K*(npts+1),)
        out = np.empty(t_flat.size)
        for i, t0 in enumerate(t_flat):
            values = evaluate(signal, t0 + offsets, phase_noise=phase_noise)
            per_interval = np.trapezoid(
                values.reshape(seq.pulse_count, npts + 1), dx=tau / npts, axis=1
            )
            out[i] = signs @ per_interval
        return out

    t1 = trapezoid_all(n_base)
    t2 = trapezoid_all(2 * n_base)
    t3 = trapezoid_all(4 * n_base)
    r1 = (4.0 * t2 - t1) / 3.0
    r2 = (4.0 * t3 - t2) / 3.0
    result = (16.0 * r2 - r1) / 15.0
    return result[0] if scalar else result.reshape(t_arr.shape)


def transition_probability(phi: float | np.ndarray) -> np.ndarray:
    """Probability p = (1 - sin phi)/2 of the -Y measurement outcome."""
    return 0.5 * (1.0 - np.sin(phi))


def bessel_j(orders: int | Sequence[int] | np.ndarray, x: float) -> np.ndarray:
    """Bessel functions of the first kind J_n(x) by downward recurrence.

    Miller's algorithm: run J_{n-1} = (2n/x) J_n - J_{n+1} downward from an
    order comfortably above max(n, |x|), then normalize with the identity
    J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1. Accurate to ~1e-12 relative for the
    moderate arguments used here (|x| <~ 60).

    Args:
        orders: Non-negative order(s) n.
        x: Argument (any finite real; negative x uses J_n(-x) = (-1)^n J_n(x)).

    Returns:
        J_n(x) as a float array shaped like ``orders`` (0-d for scalar).
    """
    orders_arr = np.asarray(orders)
    if orders_arr.size and orders_arr.min() < 0:
        raise ValueError("orders must be non-negative")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    n_max = int(orders_arr.max()) if orders_arr.size else 0

    if x == 0.0:
        result = np.where(orders_arr == 0, 1.0, 0.0)
        return result if orders_arr.ndim else result[()]

    ax = abs(x)
    start = int(max(n_max, ax) + 16 + 12.0 * math.sqrt(max(n_max, ax)))
    if start % 2 == 1:
        start += 1

    j_vals = np.zeros(start + 2)
    j_vals[start + 1] = 0.0
    j_vals[start] = 1e-30
    for n in range(start, 0, -1):
        j_vals[n - 1] = (2.0 * n / ax) * j_vals[n] - j_vals[n + 1]
        if abs(j_vals[n - 1]) > 1e250:  # rescale to avoid overflow
            j_vals[n - 1 :] /= 1e250
    norm = j_vals[0] + 2.0 * j_vals[2::2].sum()
    j_vals /= norm

    result = j_vals[orders_arr]
    if x < 0.0:  # parity: J_n(-x) = (-1)^n J_n(x)
        result = result * np.where(orders_arr % 2 == 0, 1.0, -1.0)
    return result if orders_arr.ndim else result[()]


@dataclass(frozen=True)
class HarmonicLine:
    """One predicted probability-signal harmonic.

    Attributes:
        order: Odd harmonic order 2k+1.
        frequency_hz: Harmonic frequency (2k+1) f_ac.
        amplitude: Coefficient J_{2k+1}(phi_max) of the probability series
            p(t) = 1/2 - sum_k (-1)^k J_{2k+1}(phi_max) cos((2k+1) 2 pi f_ac t)
            (the alternating sign is part of the series, not of ``amplitude``).
    """

    order: int
    frequency_hz: float
    amplitude: float


def nonlinear_spectrum_prediction(
    phi_max: float, f_ac: float, k_max: int | None = None
) -> list[HarmonicLine]:
    """Predicted harmonic content of p(t) for phi(t) = phi_max sin(2 pi f_ac t).

    Args:
        phi_max: Peak accumulated phase (rad), >= 0.
        f_ac: Tone frequency (Hz), > 0.
        k_max: Highest k (harmonic order 2k+1) to include; defaults to enough
            orders that the omitted amplitudes are < ~1e-16.

    Returns:
        Harmonics [(2k+1) f_ac, J_{2k+1}(phi_max)] for k = 0..k_max.
    """
    if phi_max < 0.0:
        raise ValueError(f"phi_max must be >= 0, got {phi_max}")
    if not f_ac > 0.0:
        raise ValueError(f"f_ac must be > 0, got {f_ac}")
    if k_max is None:
        # J_n(x) decays super-exponentially once n > x; pad generously.
        k_max = max(3, int(math.ceil((phi_max + 12.0 * (phi_max ** (1.0 / 3.0) + 1.0)) / 2.0)))
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    orders = 2 * np.arange(k_max + 1) + 1
    amplitudes = bessel_j(orders, phi_max)
    return [
        HarmonicLine(order=int(n), frequency_hz=n * f_ac, amplitude=float(a))
        for n, a in zip(orders, amplitudes)
    ]
