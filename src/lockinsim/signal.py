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

from ._io import check_range, frozen

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

#: Most nodes :func:`materialize_fm_noise` draws: 1 GiB per float64 array,
#: of which the path keeps one and its construction holds a few more. The
#: count is of drawn nodes, not of grid nodes: a path drawn only for sparse
#: sensing windows may span a longer grid. A path that would draw more is
#: refused before its node arrays are allocated.
_MAX_FM_NODES = 2**27

#: Most grid steps a path may span: node indices and their floor(t/dt)
#: stay exact integers in a float below it.
_MAX_GRID_STEPS = 2**52

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

    The grid nodes are equally spaced at ``dt_s`` starting at t = 0, and
    psi at node k is 2 pi * integral_0^{k dt} x_f(t') dt' for the OU
    frequency offset x_f. The path holds psi at runs of consecutive grid
    nodes: run r starts at grid node ``run_starts[r]``, and its values are
    ``psi_rad[run_offsets[r]:run_offsets[r + 1]]`` (the last run reaches the
    end of ``psi_rad``). A dense path is one run, ``(0,)`` and ``(0,)``,
    holding every node from 0; a path drawn for sparse sensing windows has
    one run per window or group of windows, after a first run that holds
    at least nodes 0 and 1. Every run holds at least one segment. psi is
    linear between the nodes of a run (exact node statistics; the path is
    smooth on scales << tau_c) and undefined between runs.
    Functions that take paths take one per signal group, as
    :func:`group_paths` describes.

    Attributes:
        dt_s: Grid node spacing in seconds.
        psi_rad: Phase offset at the drawn nodes (rad), psi_rad[0] = 0 at
            node 0.
        run_starts: Grid node of each run's first node, increasing, with at
            least one undrawn node between runs.
        run_offsets: Index into ``psi_rad`` of each run's first node,
            increasing from 0. The three arrays are held as :func:`frozen` holds them.
    """

    dt_s: float
    psi_rad: np.ndarray
    run_starts: np.ndarray = (0,)
    run_offsets: np.ndarray = (0,)

    def __post_init__(self) -> None:
        psi = frozen(self.psi_rad, float)
        if psi.ndim != 1 or psi.size < 2:
            raise ValueError("psi_rad must be a 1-D array with at least two nodes")
        starts = frozen(self.run_starts, np.int64)
        offsets = frozen(self.run_offsets, np.int64)
        sizes = np.diff(offsets, append=psi.size)
        if (
            starts.ndim != 1
            or starts.size == 0
            or starts.shape != offsets.shape
            or starts[0] != 0
            or offsets[0] != 0
            or np.any(sizes < 2)
            or np.any(starts[1:] <= starts[:-1] + sizes[:-1])
        ):
            raise ValueError(
                "runs must start at node 0 and at psi_rad[0], each hold a segment, "
                "and leave an undrawn node between them"
            )
        object.__setattr__(self, "psi_rad", psi)
        object.__setattr__(self, "run_starts", starts)
        object.__setattr__(self, "run_offsets", offsets)
        object.__setattr__(self, "_run_lasts", starts + sizes - 1)
        object.__setattr__(self, "_run_shifts", starts - offsets)  # grid node - psi index

    @property
    def duration_s(self) -> float:
        """Time of the last node (s); phase_at accepts no later t."""
        return float(self._run_lasts[-1]) * self.dt_s

    def segment_at(
        self, t: float | np.ndarray, run_of: float | np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """psi(t) (rad) and its slope psi' (rad/s) at times within the runs.

        A time's run is found by binary search over the run start times, or is
        ``run_of``'s (broadcast against ``t``, so one search serves a window's
        pieces). In it, the segment [j dt, (j+1) dt] holding t (the run's last
        one closed at its right end) is found in O(1) from floor(t/dt), moved by
        one where rounding put t across a node, so before a run's last node
        psi(t) equals ``np.interp`` over the run's nodes bit for bit.

        Raises:
            ValueError: If a time lies outside its run.
        """
        t_arr = np.asarray(t, dtype=float)
        dt = self.dt_s
        key = t_arr if run_of is None else run_of
        r = np.maximum(np.searchsorted(self.run_starts * dt, key, side="right") - 1, 0)
        first = self.run_starts[r]
        last = self._run_lasts[r] - 1  # the run's last segment
        j = np.clip(np.floor(t_arr / dt).astype(np.int64), first, last)
        j -= (t_arr < j * dt) & (j > first)
        j += (t_arr >= (j + 1) * dt) & (j < last)
        # Clipped into its run, j holds t unless t lies outside that run.
        bad = (t_arr < j * dt) | (t_arr > (j + 1) * dt * (1 + 1e-12))
        if np.any(bad):
            raise ValueError(
                f"phase_at time outside the materialized range: {t_arr[bad].flat[0]} "
                f"is in no run of drawn nodes (the path's {self.run_starts.size} runs "
                f"span [0, {self.duration_s}] s)"
            )
        i = j - self._run_shifts[r]  # psi_rad index of the segment's left node
        left = j * dt
        slope = (self.psi_rad[i + 1] - self.psi_rad[i]) / ((j + 1) * dt - left)
        return slope * (t_arr - left) + self.psi_rad[i], slope

    def phase_at(self, t: float | np.ndarray) -> np.ndarray:
        """Interpolate psi(t) (rad) at times ``t`` within the runs."""
        return self.segment_at(t)[0]


def materialize_fm_noise(
    signal: AcSignal,
    duration_s: float,
    dt_s: float,
    windows: tuple[np.ndarray, float] | None = None,
) -> PhaseNoisePath:
    """Draw the frozen FM phase-noise path for one group over [0, duration_s].

    Uses the exact joint step of the OU frequency offset x_f and its running
    integral (both are jointly Gaussian given the previous node, for any
    step; Gillespie 1996, "Exact numerical simulation of the
    Ornstein-Uhlenbeck process and its integral"), so node statistics are
    independent of ``dt_s`` and of which nodes are drawn. x_f is needed
    only while the path is built: the path keeps psi alone. The path is
    reproducible from ``signal.fm.rng_seed`` and the drawn nodes alone.

    Without ``windows`` every grid node 0 .. ceil(duration_s/dt_s) + 1 is
    drawn: one run. With them, only the nodes that the windows read are:
    for a window [s, s + width], grid nodes floor(s/dt) - 1 through
    floor((s + width)/dt) + 2, the nodes of every segment it touches plus a
    spare node either side for floor rounding, so each window adds at most
    ceil(width/dt) + 4 nodes. Nodes 0 and 1 are always drawn. Windows whose
    nodes overlap or touch share a run; where they leave no gap, the path
    is the dense one, with the same nodes and bits as without ``windows``. A gap
    of g nodes is one exact step over g dt, with one set of step constants
    per distinct gap. The draw order is the same for any node set: the
    stationary start, the innovation of each step, then the residual of
    each step.

    Args:
        signal: One group, with ``fm`` configured.
        duration_s: Last time that must be interpolatable (> 0). Callers that
            evaluate phases over a sensing window [t, t + t_a] must include
            the trailing t_a in ``duration_s``.
        dt_s: Node spacing; must satisfy 0 < dt_s <= tau_c / 4 so the process
            is resolved (the carrier itself is evaluated analytically and
            imposes no constraint here).
        windows: Optional (starts, width): the path need serve only the
            windows [s, s + width] for s in ``starts`` (s), which must be
            non-decreasing.

    Returns:
        A :class:`PhaseNoisePath` whose runs cover [0, duration_s] without
        ``windows`` and every window with them.

    Raises:
        ValueError: If ``fm`` is absent, the durations are invalid, the
            window starts decrease, the grid is too fine to index, the path
            draws more than ``_MAX_FM_NODES`` nodes, or a step's moments
            are not finite floats.
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
    if steps > _MAX_GRID_STEPS:
        raise ValueError(
            f"fm.correlation_time_s = {tau_c} s puts {steps:.3g} FM grid steps over "
            f"{duration_s} s, more than the {_MAX_GRID_STEPS} a node index holds exactly"
        )
    n_grid = int(math.ceil(steps)) + 2  # one spare node of margin
    firsts, lasts = _window_runs(windows, dt_s, n_grid)
    n_nodes = int(lasts.sum() - firsts.sum()) + firsts.size
    if n_nodes > _MAX_FM_NODES:
        raise ValueError(
            f"fm.correlation_time_s = {tau_c} s needs {n_nodes:.3g} FM path "
            f"nodes over {duration_s} s, more than the {_MAX_FM_NODES} that fit in memory"
        )
    offsets = np.concatenate(([0], np.cumsum(lasts - firsts + 1)[:-1]))
    for array in (firsts, offsets):
        array.setflags(write=False)  # the path keeps them uncopied, as it does psi
    sigma_f = fm.frequency_std_hz
    if sigma_f == 0.0:
        psi = np.zeros(n_nodes)
        psi.setflags(write=False)
        return PhaseNoisePath(dt_s, psi, firsts, offsets)
    if tau_c > _MAX_CORRELATION_TIME_S:
        raise ValueError(f"fm.correlation_time_s = {tau_c} s is too long: its square overflows")

    # Every step spans one grid node but the step into each later run's
    # first node, which spans the gap before it: those steps take the
    # constants of their gap, one set per distinct gap. A dense path has
    # no such step, and its constants stay scalars.
    alpha, innovation_std, x_coef, rho, resid_std = _ou_step(fm, dt_s)
    into = offsets[1:] - 1
    gaps, which = np.unique(firsts[1:] - lasts[:-1], return_inverse=True)
    at_gap = np.array([_ou_step(fm, g * dt_s) for g in gaps.tolist()]).reshape(-1, 5)[which].T
    if into.size:  # _ar1 then takes one coefficient per value
        alpha = np.full(n_nodes, alpha)
        alpha[into + 1] = at_gap[0]

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(fm.rng_seed)))
    # Stationary AR(1) for the frequency offset x_f at the nodes.
    innovations = np.empty(n_nodes)
    innovations[0] = sigma_f * rng.standard_normal()  # stationary start
    normals = rng.standard_normal(n_nodes - 1)
    innovations[1:] = innovation_std * normals
    innovations[into + 1] = at_gap[1] * normals[into]
    del normals
    x = _ar1(innovations, alpha)

    # Exact per-step integral increment, conditioned jointly on (x_k, x_{k+1}):
    # delta_Y = tau_c (1-alpha) x_k + rho * n1 + s * eta, with n1 the AR(1)
    # innovation already drawn above and eta an independent standard normal.
    n1 = innovations[1:]
    eta = rng.standard_normal(n_nodes - 1)
    delta_y = x_coef * x[:-1] + rho * n1 + resid_std * eta
    delta_y[into] = at_gap[2] * x[into] + at_gap[3] * n1[into] + at_gap[4] * eta[into]

    psi = np.empty(n_nodes)
    psi[0] = 0.0
    np.cumsum(TWO_PI * delta_y, out=psi[1:])
    psi.setflags(write=False)
    return PhaseNoisePath(dt_s, psi, firsts, offsets)


def _window_runs(
    windows: tuple[np.ndarray, float] | None, dt_s: float, n_grid: int
) -> tuple[np.ndarray, np.ndarray]:
    """First and last grid node of each run that :func:`materialize_fm_noise`
    draws for ``windows`` on a grid of ``n_grid`` nodes, as its docstring
    describes: nodes 0 and 1 and each window's nodes, merged where they
    overlap or touch, and every node when that leaves one run."""
    everything = (np.zeros(1, dtype=np.int64), np.array([n_grid - 1]))
    if windows is None:
        return everything
    starts, width = windows
    starts = np.asarray(starts, dtype=float)
    if np.any(starts[1:] < starts[:-1]):
        raise ValueError("window starts must be non-decreasing")
    top = n_grid - 1
    lo = np.clip(np.floor(starts / dt_s) - 1.0, 0, top).astype(np.int64)
    hi = np.clip(np.floor((starts + width) / dt_s) + 2.0, 0, top).astype(np.int64)
    lo = np.concatenate(([0], lo))
    reach = np.maximum.accumulate(np.concatenate(([1], hi)))
    new = np.flatnonzero(lo[1:] > reach[:-1] + 1) + 1
    if new.size == 0:
        return everything
    return lo[np.concatenate(([0], new))], reach[np.concatenate((new - 1, [-1]))]


def _ou_step(fm: FmNoise, delta_s: float) -> tuple[float, float, float, float, float]:
    """Constants of the exact joint step of (x_f, its integral) over ``delta_s``.

    Returns (alpha, innovation std, x coefficient, rho, residual std): x_f
    steps as x' = alpha x + n1 with n1 of the innovation std, and the
    integral by x coefficient * x + rho * n1 + residual std * eta.

    Raises:
        ValueError: If a moment of the step is not a finite float.
    """
    sigma_f = fm.frequency_std_hz
    tau_c = fm.correlation_time_s
    alpha = math.exp(-delta_s / tau_c)
    try:
        var1 = sigma_f**2 * (1.0 - alpha * alpha)
        var2 = (
            2.0
            * sigma_f**2
            * tau_c**2
            * (delta_s / tau_c - 2.0 * (1.0 - alpha) + 0.5 * (1.0 - alpha * alpha))
        )
        cov12 = sigma_f**2 * tau_c * (1.0 - alpha) ** 2
        resid_var = var2 - cov12 * cov12 / var1
    except OverflowError:
        resid_var = math.inf
    if not math.isfinite(resid_var):
        raise ValueError(
            f"fm.linewidth_hz = {fm.linewidth_hz} Hz and fm.correlation_time_s = "
            f"{tau_c} s give FM path steps whose variance is not a finite float"
        )
    rho = cov12 / var1
    return (
        alpha,
        sigma_f * math.sqrt(1.0 - alpha * alpha),
        tau_c * (1.0 - alpha),
        rho,
        math.sqrt(max(0.0, resid_var)),
    )


#: Block length of the blocked AR(1) scan in :func:`_ar1`.
_SCAN_BLOCK = 16


def _ar1(v: np.ndarray, alpha: float | np.ndarray) -> np.ndarray:
    """x_k = v_k + alpha_k * x_(k-1) with x_(-1) = 0, as a blocked scan.

    ``alpha`` is one coefficient for every step or one per value (alpha_0
    is then unused). The recurrence runs from zero inside every block of
    ``_SCAN_BLOCK`` values, all blocks at once. The true block end values
    obey the same recurrence, with the product of each block's
    coefficients, over the local end values, so they come from a recursive
    call; value j of each block then adds the product of its block's
    coefficients 0..j times the true end value of the block before it (the
    first-order recurrence scan of Blelloch 1990, "Prefix sums and their
    applications"). A single coefficient takes those products as
    alpha**(j+1).
    """
    b = _SCAN_BLOCK
    n = v.size
    rows = -(-n // b)
    y = np.zeros((rows, b))
    y.reshape(-1)[:n] = v
    if np.ndim(alpha):
        a = np.ones((rows, b))
        a.reshape(-1)[:n] = alpha
        carry = np.cumprod(a, axis=1)
        block_carry, carry = carry[:-1, -1], carry[1:]
    else:
        a = np.full((1, b), alpha)
        block_carry, carry = alpha**b, alpha ** np.arange(1, b + 1)
    for j in range(1, b):
        y[:, j] += a[:, j] * y[:, j - 1]
    if rows > 1:
        y[1:] += carry * _ar1(y[:-1, -1], block_carry)[:, None]
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
