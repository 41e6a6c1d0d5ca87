"""A.c. signal models evaluated at arbitrary times.

The field being sensed is a sum of tones

    x(t) = sum_i  Omega_i * cos(2 pi f_i t + alpha_i)        [rad/s]

optionally multiplied by a sinusoidal amplitude-modulation envelope and/or
carrying a common stochastic carrier-phase offset psi(t) produced by an
Ornstein-Uhlenbeck (OU) frequency-offset process (slow frequency noise that
broadens the line to a Lorentzian of half-width-at-half-maximum
``linewidth_hz`` in the motional-narrowing regime).

Amplitudes are angular frequencies (rad/s): a magnetic signal B(t) seen by an
electron spin enters as Omega = gamma_e * B with
``GYROMAGNETIC_RATIO_RAD_PER_S_PER_T`` = 2 pi x 28 GHz/T.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.signal import lfilter

__all__ = [
    "GYROMAGNETIC_RATIO_RAD_PER_S_PER_T",
    "Tone",
    "AmModulation",
    "FmNoise",
    "AcSignal",
    "CompositeSignal",
    "PhaseNoisePath",
    "amplitude_from_field_tesla",
    "evaluate",
    "expand_am",
    "materialize_fm_noise",
]

TWO_PI = 2.0 * math.pi

#: Electron gyromagnetic ratio, 2 pi x 28 GHz/T, in rad s^-1 T^-1.
GYROMAGNETIC_RATIO_RAD_PER_S_PER_T = TWO_PI * 28.0e9


def amplitude_from_field_tesla(field_tesla: float) -> float:
    """Convert a magnetic-field amplitude (T) to a signal amplitude (rad/s)."""
    return GYROMAGNETIC_RATIO_RAD_PER_S_PER_T * float(field_tesla)


@dataclass(frozen=True)
class Tone:
    """A single a.c. tone Omega * cos(2 pi f t + alpha).

    Attributes:
        frequency_hz: Tone frequency f > 0 in Hz.
        amplitude_rad_per_s: Amplitude Omega >= 0 in rad/s.
        phase_rad: Phase alpha, canonicalized into [0, 2 pi).
    """

    frequency_hz: float
    amplitude_rad_per_s: float
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        if not (self.frequency_hz > 0.0 and math.isfinite(self.frequency_hz)):
            raise ValueError(f"tone frequency must be > 0 Hz, got {self.frequency_hz}")
        if not (self.amplitude_rad_per_s >= 0.0 and math.isfinite(self.amplitude_rad_per_s)):
            raise ValueError(
                f"tone amplitude must be >= 0 rad/s, got {self.amplitude_rad_per_s}"
            )
        if not math.isfinite(self.phase_rad):
            raise ValueError(f"tone phase must be finite, got {self.phase_rad}")
        object.__setattr__(self, "phase_rad", float(self.phase_rad) % TWO_PI)


@dataclass(frozen=True)
class AmModulation:
    """Sinusoidal amplitude modulation (1 + d cos(2 pi f_am t + beta)).

    Attributes:
        mod_frequency_hz: Modulation frequency f_am > 0 in Hz.
        mod_depth: Modulation depth d in [0, 1].
        mod_phase_rad: Modulation phase beta, canonicalized into [0, 2 pi).
    """

    mod_frequency_hz: float
    mod_depth: float
    mod_phase_rad: float = 0.0

    def __post_init__(self) -> None:
        if not (self.mod_frequency_hz > 0.0 and math.isfinite(self.mod_frequency_hz)):
            raise ValueError(
                f"am.mod_frequency_hz must be > 0, got {self.mod_frequency_hz}"
            )
        if not (0.0 <= self.mod_depth <= 1.0):
            raise ValueError(f"am.mod_depth must be in [0, 1], got {self.mod_depth}")
        if not math.isfinite(self.mod_phase_rad):
            raise ValueError(f"am.mod_phase_rad must be finite, got {self.mod_phase_rad}")
        object.__setattr__(self, "mod_phase_rad", float(self.mod_phase_rad) % TWO_PI)


@dataclass(frozen=True)
class FmNoise:
    """Stochastic carrier-frequency noise (line broadening).

    The instantaneous frequency offset follows a stationary
    Ornstein-Uhlenbeck process with correlation time ``correlation_time_s``
    and standard deviation sigma_f = sqrt(linewidth_hz / (2 pi tau_c)), which
    in the motional-narrowing regime (2 pi sigma_f tau_c << 1) produces a
    Lorentzian line of HWHM ``linewidth_hz``.

    Attributes:
        linewidth_hz: Target Lorentzian half width gamma_int >= 0 in Hz.
        rng_seed: Seed for the frozen noise path (mandatory: paths must be
            reproducible and independent of the readout noise stream).
        correlation_time_s: OU correlation time tau_c > 0 in seconds.
    """

    linewidth_hz: float
    rng_seed: int
    correlation_time_s: float = 2.0

    def __post_init__(self) -> None:
        if not (self.linewidth_hz >= 0.0 and math.isfinite(self.linewidth_hz)):
            raise ValueError(f"fm.linewidth_hz must be >= 0, got {self.linewidth_hz}")
        if not (self.correlation_time_s > 0.0 and math.isfinite(self.correlation_time_s)):
            raise ValueError(
                f"fm.correlation_time_s must be > 0, got {self.correlation_time_s}"
            )

    @property
    def frequency_std_hz(self) -> float:
        """Stationary OU frequency-offset standard deviation sigma_f (Hz)."""
        return math.sqrt(self.linewidth_hz / (TWO_PI * self.correlation_time_s))


@dataclass(frozen=True)
class AcSignal:
    """A sum of tones with optional common AM envelope and FM noise.

    Attributes:
        tones: At least one :class:`Tone`.
        am: Optional amplitude modulation applied to the whole tone sum.
        fm: Optional frequency noise applied as a common carrier-phase offset
            to every tone (a single noisy source).
    """

    tones: tuple[Tone, ...]
    am: AmModulation | None = None
    fm: FmNoise | None = None

    def __post_init__(self) -> None:
        tones = tuple(self.tones)
        if len(tones) == 0:
            raise ValueError("AcSignal requires at least one tone")
        if not all(isinstance(t, Tone) for t in tones):
            raise ValueError("AcSignal.tones must contain Tone instances")
        object.__setattr__(self, "tones", tones)

    @property
    def groups(self) -> tuple["AcSignal", ...]:
        """The signal as its single group, mirroring :attr:`CompositeSignal.groups`."""
        return (self,)

    @property
    def max_frequency_hz(self) -> float:
        """Highest tone frequency (Hz), AM sidebands included."""
        top = max(t.frequency_hz for t in self.tones)
        if self.am is not None:
            top += self.am.mod_frequency_hz
        return top


@dataclass(frozen=True)
class CompositeSignal:
    """Several independent :class:`AcSignal` sources superimposed.

    Each group carries its own AM/FM configuration; fields add linearly.
    Useful when one source is noise-broadened while another is coherent.
    """

    groups: tuple[AcSignal, ...]

    def __post_init__(self) -> None:
        groups = tuple(self.groups)
        if len(groups) == 0:
            raise ValueError("CompositeSignal requires at least one group")
        if not all(isinstance(g, AcSignal) for g in groups):
            raise ValueError("CompositeSignal.groups must contain AcSignal instances")
        object.__setattr__(self, "groups", groups)

    @property
    def max_frequency_hz(self) -> float:
        return max(g.max_frequency_hz for g in self.groups)


AnySignal = Union[AcSignal, CompositeSignal]


@dataclass(frozen=True)
class PhaseNoisePath:
    """A frozen realization of the FM carrier-phase offset psi(t).

    Nodes are equally spaced at ``dt_s`` starting at t = 0;
    ``psi_rad[k]`` = 2 pi * integral_0^{k dt} x_f(t') dt' for the OU
    frequency offset x_f. Linear interpolation between nodes (exact node
    statistics; the path is smooth on scales << tau_c).

    Attributes:
        dt_s: Node spacing in seconds.
        psi_rad: Phase offset at the nodes (rad), psi_rad[0] = 0.
        freq_offset_hz: OU frequency offset at the nodes (Hz), diagnostic.
    """

    dt_s: float
    psi_rad: np.ndarray
    freq_offset_hz: np.ndarray

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi_rad, dtype=float)
        freq = np.asarray(self.freq_offset_hz, dtype=float)
        if psi.ndim != 1 or psi.size < 2:
            raise ValueError("psi_rad must be a 1-D array with at least two nodes")
        if freq.shape != psi.shape:
            raise ValueError("freq_offset_hz must match psi_rad in shape")
        psi.setflags(write=False)
        freq.setflags(write=False)
        object.__setattr__(self, "psi_rad", psi)
        object.__setattr__(self, "freq_offset_hz", freq)

    @property
    def duration_s(self) -> float:
        """Time of the last node (s); phase_at accepts t in [0, duration_s]."""
        return (self.psi_rad.size - 1) * self.dt_s

    def segment_at(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi(t) (rad) and its slope psi' (rad/s) at times within [0, duration_s].

        The segment [j dt, (j+1) dt] holding t (the last one closed at its
        right end) is found in O(1) from floor(t/dt), moved by one where
        rounding put t across a node, so before the last node psi(t) equals
        ``np.interp`` over the nodes bit for bit.
        """
        t_arr = np.asarray(t, dtype=float)
        if t_arr.size and (t_arr.min() < 0.0 or t_arr.max() > self.duration_s * (1 + 1e-12)):
            raise ValueError(
                "phase_at time outside the materialized range "
                f"[0, {self.duration_s}]: [{t_arr.min()}, {t_arr.max()}]"
            )
        last = self.psi_rad.size - 2
        j = np.clip(np.floor(t_arr / self.dt_s).astype(np.int64), 0, last)
        j -= (t_arr < j * self.dt_s) & (j > 0)
        j += (t_arr >= (j + 1) * self.dt_s) & (j < last)
        left = j * self.dt_s
        slope = (self.psi_rad[j + 1] - self.psi_rad[j]) / ((j + 1) * self.dt_s - left)
        return slope * (t_arr - left) + self.psi_rad[j], slope

    def phase_at(self, t: float | np.ndarray) -> np.ndarray:
        """Interpolate psi(t) (rad) at times ``t`` within [0, duration_s]."""
        return self.segment_at(t)[0]


def materialize_fm_noise(
    signal: AcSignal, duration_s: float, dt_s: float
) -> PhaseNoisePath:
    """Draw the frozen FM phase-noise path for ``signal`` over [0, duration_s].

    Uses the exact joint discretization of the OU frequency offset x_f and its
    running integral over each step (both are jointly Gaussian given the
    previous node), so node statistics are independent of ``dt_s``. The path
    is reproducible from ``signal.fm.rng_seed`` alone.

    Args:
        signal: Signal with ``fm`` configured.
        duration_s: Last time that must be interpolatable (> 0). Callers that
            evaluate phases over a sensing window [t, t + t_a] must include
            the trailing t_a in ``duration_s``.
        dt_s: Node spacing; must satisfy 0 < dt_s <= tau_c / 4 so the process
            is resolved (the carrier itself is evaluated analytically and
            imposes no constraint here).

    Returns:
        A :class:`PhaseNoisePath` with nodes at 0, dt, 2 dt, ... >= duration_s.

    Raises:
        ValueError: If ``fm`` is absent or the durations are invalid.
    """
    if signal.fm is None:
        raise ValueError("materialize_fm_noise requires a signal with fm configured")
    fm = signal.fm
    if not (duration_s > 0.0 and math.isfinite(duration_s)):
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    tau_c = fm.correlation_time_s
    if not (0.0 < dt_s <= tau_c / 4.0):
        raise ValueError(
            f"dt_s must satisfy 0 < dt_s <= correlation_time_s/4 = {tau_c / 4.0}, "
            f"got {dt_s}"
        )
    if duration_s < dt_s:
        raise ValueError(f"duration_s ({duration_s}) must be >= dt_s ({dt_s})")

    n_nodes = int(math.ceil(duration_s / dt_s)) + 2  # one spare node of margin
    sigma_f = fm.frequency_std_hz
    if sigma_f == 0.0:
        zeros = np.zeros(n_nodes)
        return PhaseNoisePath(dt_s=dt_s, psi_rad=zeros, freq_offset_hz=zeros.copy())

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(fm.rng_seed)))
    alpha = math.exp(-dt_s / tau_c)

    # Stationary AR(1) for the frequency offset x_f at the nodes.
    innovations = np.empty(n_nodes)
    innovations[0] = sigma_f * rng.standard_normal()  # stationary start
    innovations[1:] = sigma_f * math.sqrt(1.0 - alpha * alpha) * rng.standard_normal(
        n_nodes - 1
    )
    x = lfilter([1.0], [1.0, -alpha], innovations)

    # Exact per-step integral increment, conditioned jointly on (x_k, x_{k+1}):
    # delta_Y = tau_c (1-alpha) x_k + rho * n1 + s * eta, with n1 the AR(1)
    # innovation already drawn above and eta an independent standard normal.
    var1 = sigma_f**2 * (1.0 - alpha * alpha)
    var2 = (
        2.0
        * sigma_f**2
        * tau_c**2
        * (dt_s / tau_c - 2.0 * (1.0 - alpha) + 0.5 * (1.0 - alpha * alpha))
    )
    cov12 = sigma_f**2 * tau_c * (1.0 - alpha) ** 2
    rho = cov12 / var1
    resid_std = math.sqrt(max(0.0, var2 - cov12 * cov12 / var1))
    n1 = innovations[1:]
    eta = rng.standard_normal(n_nodes - 1)
    delta_y = tau_c * (1.0 - alpha) * x[:-1] + rho * n1 + resid_std * eta

    psi = np.empty(n_nodes)
    psi[0] = 0.0
    np.cumsum(TWO_PI * delta_y, out=psi[1:])
    return PhaseNoisePath(dt_s=dt_s, psi_rad=psi, freq_offset_hz=x)


def expand_am(signal: AcSignal) -> AcSignal:
    """Expand the AM envelope exactly into carrier + two sidebands per tone.

    Omega (1 + d cos(2 pi f_am t + beta)) cos(2 pi f t + alpha) equals the sum
    of the carrier and two tones of amplitude Omega d / 2 at f +- f_am with
    phases alpha +- beta; this is a trig identity, not an approximation.
    The FM configuration (common carrier phase) is preserved.

    Raises:
        ValueError: If a lower sideband would have non-positive frequency.
    """
    if signal.am is None:
        return signal
    am = signal.am
    tones: list[Tone] = []
    for tone in signal.tones:
        if am.mod_frequency_hz >= tone.frequency_hz:
            raise ValueError(
                "AM expansion requires mod_frequency_hz < tone frequency "
                f"({am.mod_frequency_hz} >= {tone.frequency_hz})"
            )
        side = 0.5 * am.mod_depth * tone.amplitude_rad_per_s
        tones.append(tone)
        if side > 0.0:
            tones.append(
                Tone(
                    frequency_hz=tone.frequency_hz + am.mod_frequency_hz,
                    amplitude_rad_per_s=side,
                    phase_rad=tone.phase_rad + am.mod_phase_rad,
                )
            )
            tones.append(
                Tone(
                    frequency_hz=tone.frequency_hz - am.mod_frequency_hz,
                    amplitude_rad_per_s=side,
                    phase_rad=tone.phase_rad - am.mod_phase_rad,
                )
            )
    return dataclasses.replace(signal, tones=tuple(tones), am=None)


def evaluate(
    signal: AnySignal,
    t: float | np.ndarray,
    *,
    phase_noise: PhaseNoisePath | tuple[PhaseNoisePath | None, ...] | None = None,
) -> np.ndarray:
    """Evaluate the instantaneous field x(t) in rad/s.

    Args:
        signal: Tone-sum signal (or a :class:`CompositeSignal` of groups).
        t: Time(s) in seconds, all >= 0.
        phase_noise: Materialized FM path(s). Required when ``fm`` is
            configured (one path per group for composites); must come from
            :func:`materialize_fm_noise` on the same signal.

    Returns:
        x(t) as a float array broadcast like ``t`` (0-d for scalar input).

    Raises:
        ValueError: For negative times or a missing phase-noise path.
    """
    if isinstance(signal, CompositeSignal):
        paths: tuple[PhaseNoisePath | None, ...]
        if phase_noise is None:
            paths = (None,) * len(signal.groups)
        elif isinstance(phase_noise, PhaseNoisePath):
            raise ValueError("composite signals need one phase-noise path per group")
        else:
            paths = tuple(phase_noise)
            if len(paths) != len(signal.groups):
                raise ValueError(
                    f"expected {len(signal.groups)} phase-noise paths, got {len(paths)}"
                )
        total = None
        for group, path in zip(signal.groups, paths):
            part = evaluate(group, t, phase_noise=path)
            total = part if total is None else total + part
        return total

    t_arr = np.asarray(t, dtype=float)
    if t_arr.size and t_arr.min() < 0.0:
        raise ValueError("evaluate requires t >= 0")

    if signal.fm is not None:
        if not isinstance(phase_noise, PhaseNoisePath):
            raise ValueError(
                "signal has fm configured: materialize_fm_noise first and pass "
                "the path via phase_noise="
            )
        psi = phase_noise.phase_at(t_arr)
    else:
        psi = 0.0

    if signal.am is not None:
        am = signal.am
        envelope = 1.0 + am.mod_depth * np.cos(
            TWO_PI * am.mod_frequency_hz * t_arr + am.mod_phase_rad
        )
    else:
        envelope = 1.0

    total = np.zeros_like(t_arr)
    for tone in signal.tones:
        total += tone.amplitude_rad_per_s * np.cos(
            TWO_PI * tone.frequency_hz * t_arr + tone.phase_rad + psi
        )
    return total * envelope
