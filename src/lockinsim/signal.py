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
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._io import check_range

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
    "expanded_tones",
    "group_paths",
    "materialize_fm_noise",
    "max_linewidth_hz",
    "strongest_tone",
]

TWO_PI = 2.0 * math.pi

#: Most nodes :func:`materialize_fm_noise` builds: 1 GiB per float64 array,
#: of which the path keeps one and its construction holds a few more. A
#: longer path is refused before anything is allocated.
_MAX_FM_NODES = 2**27

#: Longest OU correlation time whose square, which the path's step
#: variance needs, is a finite float.
_MAX_CORRELATION_TIME_S = math.sqrt(sys.float_info.max)

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
        check_range(0, strict=True, frequency_hz=self.frequency_hz)
        check_range(0, amplitude_rad_per_s=self.amplitude_rad_per_s)
        check_range(None, phase_rad=self.phase_rad)
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
        check_range(0, strict=True, prefix="am.", mod_frequency_hz=self.mod_frequency_hz)
        check_range(0, high=1, prefix="am.", mod_depth=self.mod_depth)
        check_range(None, prefix="am.", mod_phase_rad=self.mod_phase_rad)
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
        check_range(0, prefix="fm.", linewidth_hz=self.linewidth_hz)
        check_range(0, strict=True, prefix="fm.", correlation_time_s=self.correlation_time_s)

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


AnySignal = Union[AcSignal, CompositeSignal]


def strongest_tone(signal: AnySignal) -> Tone:
    """Largest-amplitude listed tone over all groups (ties: the first)."""
    return max(
        (t for g in signal.groups for t in g.tones), key=lambda t: t.amplitude_rad_per_s
    )


def expanded_tones(signal: AnySignal) -> tuple[Tone, ...]:
    """Every tone of every group, AM envelopes expanded into sidebands."""
    return tuple(t for g in signal.groups for t in expand_am(g).tones)


def max_linewidth_hz(signal: AnySignal) -> float:
    """Largest FM linewidth over the groups (0 for coherent signals)."""
    return max(
        (g.fm.linewidth_hz for g in signal.groups if g.fm is not None), default=0.0
    )


@dataclass(frozen=True)
class PhaseNoisePath:
    """A frozen realization of one FM group's carrier-phase offset psi(t).

    Nodes are equally spaced at ``dt_s`` starting at t = 0;
    ``psi_rad[k]`` = 2 pi * integral_0^{k dt} x_f(t') dt' for the OU
    frequency offset x_f. Linear interpolation between nodes (exact node
    statistics; the path is smooth on scales << tau_c). Functions that take
    paths take one per signal group, as :func:`group_paths` describes.

    Attributes:
        dt_s: Node spacing in seconds.
        psi_rad: Phase offset at the nodes (rad), psi_rad[0] = 0.
    """

    dt_s: float
    psi_rad: np.ndarray

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi_rad, dtype=float)
        if psi.ndim != 1 or psi.size < 2:
            raise ValueError("psi_rad must be a 1-D array with at least two nodes")
        psi.setflags(write=False)
        object.__setattr__(self, "psi_rad", psi)

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
        return self.on_segment(j, t_arr)

    def on_segment(self, j: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi(t) (rad) and psi' (rad/s) on segments ``j``, which must hold ``t``."""
        left = j * self.dt_s
        slope = (self.psi_rad[j + 1] - self.psi_rad[j]) / ((j + 1) * self.dt_s - left)
        return slope * (t - left) + self.psi_rad[j], slope

    def phase_at(self, t: float | np.ndarray) -> np.ndarray:
        """Interpolate psi(t) (rad) at times ``t`` within [0, duration_s]."""
        return self.segment_at(t)[0]


def materialize_fm_noise(
    signal: AcSignal, duration_s: float, dt_s: float
) -> PhaseNoisePath:
    """Draw the frozen FM phase-noise path for one group over [0, duration_s].

    Uses the exact joint discretization of the OU frequency offset x_f and its
    running integral over each step (both are jointly Gaussian given the
    previous node; Gillespie 1996, "Exact numerical simulation of the
    Ornstein-Uhlenbeck process and its integral"), so node statistics are
    independent of ``dt_s``. x_f is needed only while the path is built:
    the path keeps psi alone. The path is reproducible from
    ``signal.fm.rng_seed`` alone.

    Args:
        signal: One group, with ``fm`` configured.
        duration_s: Last time that must be interpolatable (> 0). Callers that
            evaluate phases over a sensing window [t, t + t_a] must include
            the trailing t_a in ``duration_s``.
        dt_s: Node spacing; must satisfy 0 < dt_s <= tau_c / 4 so the process
            is resolved (the carrier itself is evaluated analytically and
            imposes no constraint here).

    Returns:
        A :class:`PhaseNoisePath` with nodes at 0, dt, 2 dt, ... >= duration_s.

    Raises:
        ValueError: If ``fm`` is absent, the durations are invalid, the
            path needs more than ``_MAX_FM_NODES`` nodes, or the correlation
            time is too long for the step variance to be a finite float.
    """
    if signal.fm is None:
        raise ValueError("materialize_fm_noise requires a signal with fm configured")
    fm = signal.fm
    check_range(0, strict=True, duration_s=duration_s)
    tau_c = fm.correlation_time_s
    if not (0.0 < dt_s <= tau_c / 4.0):
        raise ValueError(
            f"dt_s must satisfy 0 < dt_s <= correlation_time_s/4 = {tau_c / 4.0}, "
            f"got {dt_s}"
        )
    if duration_s < dt_s:
        raise ValueError(f"duration_s ({duration_s}) must be >= dt_s ({dt_s})")

    steps = duration_s / dt_s
    if steps > _MAX_FM_NODES - 2:
        raise ValueError(
            f"fm.correlation_time_s = {tau_c} s needs {steps + 2.0:.3g} FM path "
            f"nodes over {duration_s} s, more than the {_MAX_FM_NODES} that fit in memory"
        )
    n_nodes = int(math.ceil(steps)) + 2  # one spare node of margin
    sigma_f = fm.frequency_std_hz
    if sigma_f == 0.0:
        return PhaseNoisePath(dt_s=dt_s, psi_rad=np.zeros(n_nodes))
    if tau_c > _MAX_CORRELATION_TIME_S:
        raise ValueError(f"fm.correlation_time_s = {tau_c} s is too long: its square overflows")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(fm.rng_seed)))
    alpha = math.exp(-dt_s / tau_c)

    # Stationary AR(1) for the frequency offset x_f at the nodes.
    innovations = np.empty(n_nodes)
    innovations[0] = sigma_f * rng.standard_normal()  # stationary start
    innovations[1:] = sigma_f * math.sqrt(1.0 - alpha * alpha) * rng.standard_normal(
        n_nodes - 1
    )
    x = _ar1(innovations, alpha)

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
    return PhaseNoisePath(dt_s=dt_s, psi_rad=psi)


#: Block length of the blocked AR(1) scan in :func:`_ar1`.
_SCAN_BLOCK = 16


def _ar1(v: np.ndarray, alpha: float) -> np.ndarray:
    """x_k = v_k + alpha * x_(k-1) with x_(-1) = 0, as a blocked scan.

    The recurrence runs from zero inside every block of ``_SCAN_BLOCK`` values,
    all blocks at once. The true block end values obey the same recurrence in
    alpha**b over the local end values, so they come from a recursive call;
    value j of each block then adds alpha**(j+1) times the true end value of
    the block before it (the first-order recurrence scan of Blelloch 1990,
    "Prefix sums and their applications").
    """
    b = _SCAN_BLOCK
    n = v.size
    rows = -(-n // b)
    y = np.zeros((rows, b))
    y.reshape(-1)[:n] = v
    for j in range(1, b):
        y[:, j] += alpha * y[:, j - 1]
    if rows > 1:
        ends = _ar1(y[:-1, -1], alpha**b)
        y[1:] += np.multiply.outer(ends, alpha ** np.arange(1, b + 1))
    return y.reshape(-1)[:n]


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


def group_paths(
    signal: AnySignal, paths: tuple[PhaseNoisePath | None, ...] | None
) -> tuple[PhaseNoisePath | None, ...]:
    """``paths``, the ``phase_noise`` argument of every function that takes
    FM paths, checked against ``signal``: one entry per group, in order,
    holding the group's path from :func:`materialize_fm_noise` if it has FM
    and ignored (None by convention) if not. None stands for no paths.

    Raises:
        ValueError: If ``paths`` is not a tuple with one entry per group,
            or an FM group has no path.
    """
    groups = signal.groups
    if paths is None:
        paths = (None,) * len(groups)
    if not isinstance(paths, tuple):
        raise ValueError(
            "phase_noise takes a tuple with one entry per signal group, "
            f"not a {type(paths).__name__}"
        )
    if len(paths) != len(groups):
        raise ValueError(
            f"expected {len(groups)} phase-noise paths, one per group, got {len(paths)}"
        )
    for group, path in zip(groups, paths):
        if group.fm is not None and path is None:
            raise ValueError(
                "signal has fm configured: materialize_fm_noise first and pass "
                "the group's path in phase_noise="
            )
    return paths


def evaluate(
    signal: AnySignal,
    t: float | np.ndarray,
    *,
    phase_noise: tuple[PhaseNoisePath | None, ...] | None = None,
) -> np.ndarray:
    """Evaluate the instantaneous field x(t) in rad/s.

    Args:
        signal: Tone-sum signal (or a :class:`CompositeSignal` of groups).
        t: Time(s) in seconds, all >= 0.
        phase_noise: Materialized FM paths, one per group, as
            :func:`group_paths` takes them; needed when a group has ``fm``.

    Returns:
        x(t) as a float array broadcast like ``t`` (0-d for scalar input).

    Raises:
        ValueError: For negative times or a missing phase-noise path.
    """
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size and t_arr.min() < 0.0:
        raise ValueError("evaluate requires t >= 0")
    total = np.zeros_like(t_arr)
    for group, path in zip(signal.groups, group_paths(signal, phase_noise)):
        psi = 0.0 if group.fm is None else path.phase_at(t_arr)
        part = np.zeros_like(t_arr)
        for tone in group.tones:
            part += tone.amplitude_rad_per_s * np.cos(
                TWO_PI * tone.frequency_hz * t_arr + tone.phase_rad + psi
            )
        if group.am is not None:
            am = group.am
            part *= 1.0 + am.mod_depth * np.cos(
                TWO_PI * am.mod_frequency_hz * t_arr + am.mod_phase_rad
            )
        total += part
    return total
