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

from ._io import check_range, two_prod, two_sum
from .signal import AnySignal, PhaseNoisePath, Tone, evaluate, expand_am, group_paths

__all__ = [
    "CpmgSequence",
    "HarmonicLine",
    "phase_closed_form",
    "phase_on_grid",
    "phase_amplitude",
    "phase_by_integration",
    "transition_probability",
    "nonlinear_spectrum_prediction",
    "carrier_cycles",
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
        check_range(2, integer=True, pulse_count=self.pulse_count)
        if self.pulse_count % 2 != 0:
            raise ValueError(f"pulse_count must be even, got {self.pulse_count}")
        check_range(0, strict=True, tau_s=self.tau_s)
        check_range(1, integer=True, harmonic=self.harmonic)
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
        check_range(0, strict=True, frequency_hz=frequency_hz)
        return CpmgSequence(
            pulse_count=pulse_count,
            tau_s=harmonic / (2.0 * frequency_hz),
            harmonic=harmonic,
        )


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


def _passband_gain(
    amplitude_rad_per_s: float, omega: float | np.ndarray, seq: CpmgSequence
) -> float | np.ndarray:
    """Signed peak phase (2 Omega / omega) tan(omega tau / 2) sin(K omega tau / 2)
    of a carrier at angular frequency ``omega``."""
    return (2.0 * amplitude_rad_per_s / omega) * _bandpass_kernel(
        omega * seq.tau_s / 2.0, seq.pulse_count
    )


def carrier_cycles(
    frequency_hz: float, t: np.ndarray, t_lo: float | np.ndarray = 0.0
) -> np.ndarray:
    """Cycle count f (t + t_lo) of a carrier minus its nearest integer.

    f t is formed as an exact two-product, so its whole cycles drop out
    without rounding and the fraction, in [-1/2, 1/2] give or take an ulp
    of f t, keeps double precision at any t; ``t_lo`` is the rounding error
    of a time held as the double-double t + t_lo (0 for a plain float
    time). Then sin(2 pi cycles + alpha) is the carrier sin(omega t + alpha)
    without the range reduction of an argument of up to ~1e10 rad, which is
    slow and loses ~1e-6 rad.
    """
    p, e = two_prod(frequency_hz, t)
    return (p - np.rint(p)) + (e + frequency_hz * t_lo)


def _tone_constants(tone: Tone, seq: CpmgSequence) -> tuple[float, float]:
    """Gain g and fixed angle alpha + K omega tau / 2 of the tone's phase
    g sin(omega t + alpha + K omega tau / 2)."""
    omega = TWO_PI * tone.frequency_hz
    gain = _passband_gain(tone.amplitude_rad_per_s, omega, seq)
    return gain, tone.phase_rad + seq.pulse_count * (omega * seq.tau_s / 2.0)


def _tone_phase(
    tone: Tone, seq: CpmgSequence, t: np.ndarray, t_lo: float | np.ndarray
) -> np.ndarray:
    gain, angle = _tone_constants(tone, seq)
    return gain * np.sin(TWO_PI * carrier_cycles(tone.frequency_hz, t, t_lo) + angle)


def phase_on_grid(
    signal: AnySignal,
    seq: CpmgSequence,
    t: np.ndarray,
    t_lo: np.ndarray,
    dt: np.ndarray,
    dt_lo: np.ndarray,
) -> np.ndarray:
    """:func:`phase_closed_form` at every start time t_m + dt_j, for a signal
    without FM.

    A tone's phase is g sin(a_m + b_j), with a_m the carrier angle at the
    double-double time t_m + t_lo_m plus the tone's fixed angle, and b_j the
    carrier angle over dt_j + dt_lo_j; both come from :func:`carrier_cycles`.
    It is formed as (g sin a_m) cos b_j + (g cos a_m) sin b_j, so M rows of
    B offsets take 2 (M + B) sines and cosines per tone, against M B for
    the direct form, and two outer products. The angle keeps the direct
    form's precision: the cycle fractions of a_m and b_j are exact to about
    1e-16 at any t, a_m then rounds as the direct form's argument does (a
    few 1e-15 rad for a fixed angle of tens of rad), and the product adds
    a few ulps. On an hour-long schedule the two forms agree to about 1e-14
    rad.

    Args:
        signal: An :class:`AcSignal` or :class:`CompositeSignal` with no FM.
        seq: CPMG sequence.
        t, t_lo: The M row times and their rounding errors (s).
        dt, dt_lo: The B offsets within a row and their rounding errors (s).

    Returns:
        phi in radians, shape (M, B): row m, column j starts at t_m + dt_j.

    Raises:
        ValueError: If a group has FM.
    """
    total = np.zeros((t.size, dt.size))
    for group in signal.groups:
        if group.fm is not None:
            raise ValueError("phase_on_grid takes no FM: use phase_closed_form")
        for tone in expand_am(group).tones:
            gain, angle = _tone_constants(tone, seq)
            a = TWO_PI * carrier_cycles(tone.frequency_hz, t, t_lo) + angle
            b = TWO_PI * carrier_cycles(tone.frequency_hz, dt, dt_lo)
            total += (gain * np.sin(a))[:, None] * np.cos(b)
            total += (gain * np.cos(a))[:, None] * np.sin(b)
    return total


def _fm_phase(
    tones: Sequence[Tone],
    seq: CpmgSequence,
    t: np.ndarray,
    t_lo: float | np.ndarray,
    path: PhaseNoisePath,
) -> np.ndarray:
    """Exact phi(t) for tones sharing the piecewise-linear carrier phase ``path``.

    A window inside one path segment j sees each tone as a pure carrier at
    omega' = omega + psi'_j, so its phase is the tone closed form at omega'
    with the carrier phase taken at the window midpoint m = t + t_a/2,

        (2 Omega / omega') tan(omega' tau / 2) sin(K omega' tau / 2)
            * sin(omega m + alpha + psi(m)),

    and its gain is computed once per run of windows with the same slope.

    A window across path nodes is cut at the K+1 pulse edges and at every
    node inside it. On each piece (width w, midpoint s_m, pulse interval k,
    path segment j) psi is linear, so the tone is again a pure carrier at
    omega' and its integral is

        Omega (-1)^k w sinc(omega' w / 2 pi) cos(omega s_m + alpha + psi(s_m)),

    which stays accurate for arbitrarily short pieces. The carrier omega m
    (or omega s_m) enters as :func:`carrier_cycles` of the midpoint, held
    with its rounding error as a double-double. Each block of windows
    has the same number of cuts: nodes that fall outside a window clip to
    its ends as zero-width pieces. Pulse signs and segments come from index
    arithmetic at the midpoints.
    """
    t_flat = t.ravel()
    t_lo_flat = np.broadcast_to(t_lo, t.shape).ravel()
    tau = seq.tau_s
    t_a = seq.sensing_time_s
    dt = path.dt_s
    # A start that floor(t/dt) rounds into the wrong segment fails one of
    # these comparisons and is cut into pieces instead. segment_at refuses a
    # window outside the path's runs.
    j = np.floor(t_flat / dt).astype(np.int64)
    inside = (j * dt <= t_flat) & (t_flat + t_a <= (j + 1) * dt)
    out = np.empty(t_flat.size)
    if inside.any():
        mid, mid_lo = two_sum(t_flat[inside], 0.5 * t_a)
        mid_lo += t_lo_flat[inside]
        psi, slope = path.segment_at(mid, run_of=t_flat[inside])
        runs = np.flatnonzero(np.concatenate(([True], slope[1:] != slope[:-1])))
        run_lengths = np.diff(runs, append=slope.size)
        phi = np.zeros(mid.size)
        for tone in tones:
            omega = TWO_PI * tone.frequency_hz
            gain = _passband_gain(tone.amplitude_rad_per_s, omega + slope[runs], seq)
            cycles = carrier_cycles(tone.frequency_hz, mid, mid_lo)
            phi += np.repeat(gain, run_lengths) * np.sin(TWO_PI * cycles + tone.phase_rad + psi)
        out[inside] = phi
    crossing = np.flatnonzero(~inside)
    edges = np.arange(seq.pulse_count + 1) * tau
    # Node steps covering (t, t + t_a], one spare for floor(t/dt) rounding.
    steps = np.arange(int(t_a / dt) + 2)
    for lo in range(0, crossing.size, _FM_BLOCK_WINDOWS):
        block = crossing[lo : lo + _FM_BLOCK_WINDOWS]
        start = t_flat[block, None]
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
        mid, mid_lo = two_sum(start, offset)
        mid_lo += t_lo_flat[block, None]
        psi, slope = path.segment_at(mid, run_of=start)
        phi = np.zeros(block.size)
        for tone in tones:
            omega = TWO_PI * tone.frequency_hz
            pieces = (
                signed_width
                * np.sinc((omega + slope) * width / TWO_PI)
                * np.cos(
                    TWO_PI * carrier_cycles(tone.frequency_hz, mid, mid_lo)
                    + tone.phase_rad
                    + psi
                )
            )
            phi += tone.amplitude_rad_per_s * pieces.sum(axis=1)
        out[block] = phi
    return out.reshape(t.shape)


def phase_closed_form(
    signal: AnySignal,
    seq: CpmgSequence,
    t: float | np.ndarray,
    *,
    t_lo: float | np.ndarray = 0.0,
    phase_noise: tuple[PhaseNoisePath | None, ...] | None = None,
) -> np.ndarray:
    """Accumulated phase phi(t) from the closed-form filter response.

    Multi-tone signals sum per-tone phases (the integral is linear in x);
    an AM envelope is first expanded exactly into sideband tones, and a
    composite signal sums its groups. A group with FM noise is integrated
    exactly over its materialized piecewise-linear carrier phase psi(t):
    a window inside one path segment is the tone closed form at the
    shifted frequency, and a window across path nodes is cut into (pulse
    interval x path segment) pieces, each with a closed form. Every carrier
    enters through :func:`carrier_cycles`, so its phase keeps double
    precision at any t instead of losing ~1e-6 rad at an hour. Each start
    time costs one sine per tone; :func:`phase_on_grid` is the cheaper form
    for start times on a regular grid without FM (the grid rule is in the
    :mod:`lockinsim.sampler` docstring).

    Args:
        signal: An :class:`AcSignal` or :class:`CompositeSignal`.
        seq: CPMG sequence (even pulse count enforced by the type).
        t: Start time(s) of the sensing window (s).
        t_lo: Rounding error(s) of ``t``, broadcastable to it: the start
            time is the double-double t + t_lo. A schedule passes the error
            of start + k t_s so the phase is exact for the schedule itself;
            0 takes ``t`` as exact.
        phase_noise: Materialized FM paths, one per group, as
            :func:`lockinsim.signal.group_paths` takes them. Every window
            must lie within one run of its group's path.

    Returns:
        phi(t) in radians, shaped like ``t``.

    Raises:
        ValueError: If the paths are not one per group, an FM group has
            no path, or a window lies outside its path's runs.
    """
    t_arr = np.asarray(t, dtype=float)
    total = np.zeros(t_arr.shape)
    for group, path in zip(signal.groups, group_paths(signal, phase_noise)):
        tones = expand_am(group).tones
        if group.fm is None:
            for tone in tones:
                total = total + _tone_phase(tone, seq, t_arr, t_lo)
        else:
            total = total + _fm_phase(tones, seq, t_arr, t_lo, path)
    return total


def phase_amplitude(tone: Tone, seq: CpmgSequence) -> float:
    """Peak accumulated phase |phi|_max for a single tone (rad).

    On resonance (tau = m / (2 f_ac)) this equals 2 t_a Omega / (m pi).
    """
    return float(abs(_passband_gain(tone.amplitude_rad_per_s, TWO_PI * tone.frequency_hz, seq)))


def phase_by_integration(
    signal: AnySignal,
    seq: CpmgSequence,
    t: float | np.ndarray,
    dt: float | None = None,
    *,
    phase_noise: tuple[PhaseNoisePath | None, ...] | None = None,
) -> np.ndarray:
    """Brute-force quadrature of phi(t) = integral x(t+t') g(t') dt'.

    Composite trapezoid over each inter-pulse interval at three resolutions
    (n, 2n, 4n points) combined by two Richardson extrapolation levels,
    giving ~O(h^6) convergence for smooth integrands. It is the independent
    test oracle for :func:`phase_closed_form`, FM paths included; nothing
    in the simulation calls it, since its cost is a Python loop over the
    windows.

    Args:
        signal: Any signal accepted by :func:`lockinsim.signal.evaluate`.
        seq: CPMG sequence.
        t: Scalar or 1-D array of window start times (s).
        dt: Base quadrature step; must satisfy dt <= tau/100
            (default tau/100).
        phase_noise: Materialized FM paths, one per group, passed through
            to :func:`lockinsim.signal.evaluate`.

    Returns:
        phi(t) in radians with the shape of ``t``.
    """
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


def _odd_bessel(x: float, k_max: int) -> np.ndarray:
    """J_{2k+1}(x) for k = 0..k_max and x >= 0.

    Below x = 1e-8 the series' leading term (x/2)^n / n! is J_n(x) to double
    precision; it is formed as a running product, since 2n/x may overflow.
    Above, Miller's backward recurrence J_{n-1} = (2n/x) J_n - J_{n+1} runs
    down from an even order well past x and 2 k_max + 1, is rescaled before
    it can overflow, and is normalized by J_0 + 2 sum_k J_{2k} = 1 (Gautschi
    1967, SIAM Review 9). Time and memory grow as x + k_max.
    """
    top = 2 * k_max + 1
    if x < 1e-8:
        return np.cumprod(0.5 * x / np.arange(1.0, top + 1))[::2]
    reach = max(top, x)
    start = 2 * ((int(reach) + int(math.sqrt(40.0 * reach)) + 20) // 2)
    j = np.zeros(start + 2)
    j[start] = 1.0
    for n in range(start, 0, -1):
        j[n - 1] = 2.0 * n / x * j[n] - j[n + 1]
        if abs(j[n - 1]) > 1e250:
            j[n - 1 :] *= 1e-250
    return j[1 : top + 1 : 2] / (j[0] + 2.0 * j[2::2].sum())


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
    check_range(0, phi_max=phi_max)
    check_range(0, integer=True, k_max=k_max)
    check_range(0, strict=True, f_ac=f_ac)
    if k_max is None:
        # J_n(x) decays super-exponentially once n > x; pad generously.
        k_max = max(3, int(math.ceil((phi_max + 12.0 * (phi_max ** (1.0 / 3.0) + 1.0)) / 2.0)))
    orders = 2 * np.arange(k_max + 1) + 1
    amplitudes = _odd_bessel(phi_max, k_max)
    return [
        HarmonicLine(order=int(n), frequency_hz=n * f_ac, amplitude=float(a))
        for n, a in zip(orders, amplitudes)
    ]
