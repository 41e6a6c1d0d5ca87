"""Drive the lock-in + readout chain to produce sub-Nyquist time traces.

One sample takes t_s = t_a + t_r + t_d (sense, read out, dead time): the
:class:`CpmgSequence` owns t_a, the :class:`ReadoutModel` owns t_r, and a
:class:`SamplingSchedule` holds only t_d and the sample clock. Sample k
starts at t_k = start_time + k t_s, accumulates phase over [t_k, t_k + t_a]
(tagged to t_k), and yields a photon count. Because t_s is vastly longer than
the signal period, the trace is highly undersampled and tones fold into
[0, f_s/2] with f_s = 1/t_s.

Generation is deterministic and chunk-parallel: the trace is split into fixed
65536-sample chunks, each drawing from its own spawned RNG stream, so the
result is bit-identical for any thread count.

A schedule of at least 4096 samples without clock jitter, for a signal
without FM, takes the sample grid: a chunk is rows of 256 samples, and
each carrier is sin(a_m + b_j) = sin a_m cos b_j + cos a_m sin b_j, from
the exact angles a_m of the row starts and b_j of the offsets j t_s within
a row (:func:`lockinsim.lockin.phase_on_grid`). That takes 2 (256 + 256)
sines and cosines per tone and chunk where the per-sample closed form
takes 65536, and agrees with it to about 1e-14 rad. A jittered schedule,
an FM group, or a shorter schedule, where the grid's fixed cost does not
pay, takes :func:`lockinsim.lockin.phase_closed_form` per sample. Either
way a chunk's temporaries are a few arrays of its 65536 samples, so memory
peaks at the trace's own arrays plus those of the chunks in flight.

An FM group's phase-noise path is drawn once, before the chunks, and only
at the grid nodes the sensing windows read (:func:`_materialize_paths`):
when t_s spans many grid nodes and t_a few, as with tau_c = 50 t_a, that
is a fraction of the grid; when the windows leave no gap it is the whole
grid, as before.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import numpy.random  # numpy loads it on first use: load it at start-up, not in a run

from . import __version__
from .lockin import (
    CpmgSequence,
    phase_closed_form,
    phase_on_grid,
    transition_probability,
)
from .lockin import phase_by_integration  # noqa: F401  (bench/ traces it by this name)
from .readout import ReadoutModel, sample_counts
from .signal import (
    AnySignal,
    CompositeSignal,
    PhaseNoisePath,
    materialize_fm_noise,
)
from ._io import (
    canonical_json, check_range, csv_blocks, frozen, sha256_hex, two_prod, two_sum,
)

__all__ = [
    "CHUNK_SAMPLES",
    "SamplingSchedule",
    "TimeTrace",
    "run_sampling",
    "expected_probabilities",
    "undersampled_bin",
    "write_trace",
    "read_trace",
]

#: Fixed chunk length for parallel generation (part of the determinism
#: contract: results never depend on thread count).
CHUNK_SAMPLES = 65536
#: Samples per row of the sample grid (see :func:`_nominal_phase`); it
#: divides ``CHUNK_SAMPLES``, so every chunk's rows start on the same grid.
_GRID_ROW_SAMPLES = 256
#: Shortest schedule that takes the sample grid. Below it the grid's fixed
#: cost, its 256 offsets per tone, exceeds a sine per sample: on 2 shared
#: cores, 300 samples of 7 tones took 0.66 ms on the grid and 0.42 ms per
#: sample, 4000 samples 0.44 and 0.70 ms. It is at most ``CHUNK_SAMPLES``.
_GRID_MIN_SAMPLES = 4096


@dataclass(frozen=True)
class SamplingSchedule:
    """Timing of the stroboscopic acquisition beyond the sense and readout.

    The sequence owns t_a and the readout model owns t_r, so the schedule
    holds only the dead time; :meth:`period_s` forms t_s from all three.

    Attributes:
        dead_time_s: Extra per-sample delay t_d >= 0.
        num_samples: Trace length N >= 1.
        start_time_s: Absolute time of sample 0.
        clock_jitter_std_s: Optional Gaussian jitter (std, s) on each sample
            time; 0 disables jitter.
    """

    dead_time_s: float
    num_samples: int
    start_time_s: float = 0.0
    clock_jitter_std_s: float = 0.0

    def __post_init__(self) -> None:
        check_range(0, dead_time_s=self.dead_time_s)
        check_range(1, integer=True, num_samples=self.num_samples)
        check_range(0, start_time_s=self.start_time_s)
        check_range(0, clock_jitter_std_s=self.clock_jitter_std_s)

    def period_s(self, seq: CpmgSequence, model: ReadoutModel) -> float:
        """t_s = t_a + t_r + t_d (s)."""
        return seq.sensing_time_s + model.readout_time_s + self.dead_time_s

    @staticmethod
    def from_period(
        seq: CpmgSequence,
        model: ReadoutModel,
        sampling_period_s: float,
        num_samples: int,
        *,
        start_time_s: float = 0.0,
        clock_jitter_std_s: float = 0.0,
    ) -> "SamplingSchedule":
        """Build a schedule from a target t_s, deriving the dead time.

        Raises:
            ValueError: If the period is shorter than t_a + t_r.
        """
        dead = sampling_period_s - seq.sensing_time_s - model.readout_time_s
        if dead < -1e-15 * sampling_period_s:
            raise ValueError(
                f"sampling_period_s = {sampling_period_s} is shorter than "
                f"t_a + t_r = {seq.sensing_time_s + model.readout_time_s}"
            )
        return SamplingSchedule(
            max(0.0, dead),
            num_samples,
            start_time_s=start_time_s,
            clock_jitter_std_s=clock_jitter_std_s,
        )


@dataclass(frozen=True)
class TimeTrace:
    """A photon-count time trace with its acquisition record.

    Attributes:
        counts: Length-N non-negative integer counts as int64. Both arrays are
            held as :func:`frozen` holds them.
        sampling_period_s: Nominal t_s.
        start_time_s: Absolute time of sample 0.
        metadata: JSON-serializable record of every parameter and seed.
        sample_times_s: Actual (jittered) sample times, finite and >= 0; None
            on the nominal grid.
    """

    counts: np.ndarray
    sampling_period_s: float
    start_time_s: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)
    sample_times_s: np.ndarray | None = None

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("counts must be a non-empty 1-D array")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be integers")
        counts = frozen(counts, np.int64)
        check_range(0, counts=counts)
        object.__setattr__(self, "counts", counts)
        check_range(0, strict=True, sampling_period_s=self.sampling_period_s)
        if self.sample_times_s is not None:
            times = frozen(self.sample_times_s, float)
            if times.shape != counts.shape:
                raise ValueError("sample_times_s must match counts in length")
            check_range(0, sample_times_s=times)
            object.__setattr__(self, "sample_times_s", times)

    @property
    def num_samples(self) -> int:
        return int(self.counts.size)

    @property
    def sample_rate_hz(self) -> float:
        return 1.0 / self.sampling_period_s

    @property
    def times_s(self) -> np.ndarray:
        """Sample times: the jittered record if present, else the nominal grid."""
        if self.sample_times_s is not None:
            return self.sample_times_s
        return self.start_time_s + np.arange(self.num_samples) * self.sampling_period_s


def undersampled_bin(f_true: float, f_s: float, num_samples: int) -> int:
    """DFT bin where a tone at ``f_true`` appears after folding into [0, f_s/2].

    Nearest-bin rounding (ties to even); the result is clamped to the
    one-sided range [0, N//2].
    """
    check_range(0, strict=True, f_s=f_s)
    check_range(1, integer=True, num_samples=num_samples)
    check_range(0, f_true=f_true)
    pos = (f_true / f_s) % 1.0 * num_samples  # position in bin units, [0, N)
    if pos > num_samples / 2.0:
        pos = num_samples - pos
    return min(int(np.rint(pos)), num_samples // 2)


def _materialize_paths(
    signal: AnySignal, seq: CpmgSequence, starts: np.ndarray, margin_s: float = 0.0
) -> tuple[PhaseNoisePath | None, ...]:
    """One FM path per group (None without FM), as
    :func:`lockinsim.signal.group_paths` takes them, for sensing windows
    that start within ``margin_s`` of the non-decreasing times ``starts``.

    Each group's path lies on a grid of tau_c/8 and is drawn only at the
    grid nodes those windows read: every node of each widened window
    [t - margin, t + t_a + margin], a spare node either side, and nodes 0 and 1,
    in runs of consecutive nodes (:func:`lockinsim.signal.materialize_fm_noise`).
    Where those nodes leave no gap, as when t_s spans a few grid nodes or
    fewer, the path is the dense one over [0, last start + margin + t_a + 2 dt].
    """
    paths: list[PhaseNoisePath | None] = []
    for group in signal.groups:
        if group.fm is None:
            paths.append(None)
        else:
            dt = group.fm.correlation_time_s / 8.0
            duration = starts[-1] + margin_s + seq.sensing_time_s + 2.0 * dt
            windows = (starts - margin_s, seq.sensing_time_s + 2.0 * margin_s)
            paths.append(materialize_fm_noise(group, duration, dt, windows))
    return tuple(paths)


def _schedule_paths(
    signal: AnySignal, seq: CpmgSequence, sched: SamplingSchedule, t_s: float, margin_s: float
) -> tuple[PhaseNoisePath | None, ...]:
    """:func:`_materialize_paths` for the schedule's windows, whose nominal
    start times are formed only when a group has FM."""
    if all(group.fm is None for group in signal.groups):
        return (None,) * len(signal.groups)
    starts, _ = _nominal_times(sched.start_time_s, t_s, 0, sched.num_samples)
    return _materialize_paths(signal, seq, starts, margin_s)


def _nominal_times(
    start_time_s: float, t_s: float, lo: int, hi: int, step: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """t_k = start + k t_s for k in range(lo, hi, step), and the rounding
    error of each.

    The times are the rounded floats of the nominal grid; the errors come
    from an exact two-product and two-sum, for every k and every start, so
    t_k + error is start + k t_s up to the rounding of the error itself
    (~1e-29 s at an hour).
    """
    k_t_s, product_error = two_prod(np.arange(lo, hi, step, dtype=float), t_s)
    t_k, sum_error = two_sum(start_time_s, k_t_s)
    return t_k, product_error + sum_error


def _nominal_phase(
    signal: AnySignal,
    seq: CpmgSequence,
    start_time_s: float,
    t_s: float,
    lo: int,
    hi: int,
    paths: tuple[PhaseNoisePath | None, ...],
) -> np.ndarray:
    """Phases of samples [lo, hi) of a schedule without jitter.

    The module docstring gives the rule between the per-sample closed form,
    where each start time carries its rounding error, and the sample grid.
    On the grid, sample k = lo + B m + j (B = ``_GRID_ROW_SAMPLES``) starts
    at row time start + (lo + B m) t_s, held as :func:`_nominal_times`
    holds it, plus the offset j t_s, held exactly as a two-product. lo is a
    multiple of B, so a sample's phase has the same bits whichever range
    [lo, hi) holds it. The choice reads hi, which is the length N when one
    range holds the whole schedule and at least ``CHUNK_SAMPLES`` for each
    chunk of a longer one, so every range of one schedule takes the same
    form.
    """
    if hi < _GRID_MIN_SAMPLES or any(path is not None for path in paths):
        t_k, t_lo = _nominal_times(start_time_s, t_s, lo, hi)
        return phase_closed_form(signal, seq, t_k, t_lo=t_lo, phase_noise=paths)
    rows, rows_lo = _nominal_times(start_time_s, t_s, lo, hi, _GRID_ROW_SAMPLES)
    offsets, offsets_lo = two_prod(np.arange(_GRID_ROW_SAMPLES, dtype=float), t_s)
    phi = phase_on_grid(signal, seq, rows, rows_lo, offsets, offsets_lo)
    return phi.ravel()[: hi - lo]


def run_sampling(
    signal: AnySignal,
    seq: CpmgSequence,
    model: ReadoutModel,
    sched: SamplingSchedule,
    rng: int | np.random.SeedSequence,
    *,
    num_threads: int = 1,
) -> TimeTrace:
    """Generate a photon-count time trace.

    For each k = 0..N-1: t_k = start + k t_s (plus optional jitter), the
    phase is accumulated over [t_k, t_k + t_a] and tagged to t_k, converted
    to a transition probability, and read out stochastically. Nominal times
    carry their rounding error into the carrier, so each carrier phase is
    exact for start + k t_s; jittered times are taken as they are. The
    phases come from the sample grid or from :func:`phase_closed_form` per
    sample, by the rule in the module docstring. The probabilities of each
    chunk equal those of :func:`expected_probabilities` bit for bit.

    Args:
        signal: Signal (or composite of independent sources).
        seq: CPMG sequence; sets t_a.
        model: Readout model; sets t_r.
        sched: Sampling schedule; sets t_d, N, the start and the jitter.
        rng: Seed or SeedSequence. Chunk streams are spawned from a copy of
            it, so one sequence gives one trace on every call, bit-identical
            for any ``num_threads``.
        num_threads: Worker threads for chunk generation.

    Returns:
        The trace with a full parameter record in ``metadata``. Its
        ``phase_method`` is always "closed_form": every group's phase, FM
        included, is the exact closed form of :func:`phase_closed_form`.
    """
    n = sched.num_samples
    t_s = sched.period_s(seq, model)
    paths = _schedule_paths(signal, seq, sched, t_s, 8.0 * sched.clock_jitter_std_s)

    n_chunks = (n + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES
    if isinstance(rng, np.random.SeedSequence):
        # spawn() counts children on the sequence: spawn from a copy.
        rng = np.random.SeedSequence(rng.entropy, spawn_key=rng.spawn_key, pool_size=rng.pool_size)
    else:
        rng = np.random.SeedSequence(int(rng))
    chunk_rngs = [np.random.Generator(np.random.PCG64(c)) for c in rng.spawn(n_chunks)]

    jittered = sched.clock_jitter_std_s > 0.0
    times_out = np.empty(n) if jittered else None
    counts_out = np.empty(n, dtype=np.int64)

    def generate(chunk_index: int) -> None:
        lo = chunk_index * CHUNK_SAMPLES
        hi = min(lo + CHUNK_SAMPLES, n)
        crng = chunk_rngs[chunk_index]
        if jittered:
            t_k, _ = _nominal_times(sched.start_time_s, t_s, lo, hi)
            t_k = np.maximum(t_k + crng.normal(0.0, sched.clock_jitter_std_s, hi - lo), 0.0)
            times_out[lo:hi] = t_k
            phi = phase_closed_form(signal, seq, t_k, phase_noise=paths)
        else:
            phi = _nominal_phase(signal, seq, sched.start_time_s, t_s, lo, hi, paths)
        p = transition_probability(phi)
        counts_out[lo:hi] = sample_counts(model, p, crng)

    if num_threads <= 1 or n_chunks == 1:
        for c in range(n_chunks):
            generate(c)
    else:
        with ThreadPoolExecutor(max_workers=num_threads) as pool:
            list(pool.map(generate, range(n_chunks)))

    metadata = {
        "tool_version": __version__,
        "signal": _signal_to_dict(signal),
        "cpmg": dataclasses.asdict(seq),
        "readout": dataclasses.asdict(model),
        "schedule": dataclasses.asdict(sched),
        "seed": list(rng.entropy) if isinstance(rng.entropy, (list, tuple)) else rng.entropy,
        "phase_method": "closed_form",
    }
    for array in (counts_out, times_out):
        if array is not None:
            array.setflags(write=False)  # the trace keeps it uncopied
    return TimeTrace(
        counts=counts_out,
        sampling_period_s=t_s,
        start_time_s=sched.start_time_s,
        metadata=metadata,
        sample_times_s=times_out,
    )


def expected_probabilities(
    signal: AnySignal,
    seq: CpmgSequence,
    model: ReadoutModel,
    sched: SamplingSchedule,
) -> np.ndarray:
    """Noise-free transition probabilities p_k on the nominal time grid.

    The deterministic core of :func:`run_sampling` (no jitter, no readout
    noise), with its phases, bit for bit; ``model`` enters only through
    t_r. Composing with
    :func:`lockinsim.readout.expected_counts` yields the analytic expected
    trace.
    """
    t_s = sched.period_s(seq, model)
    paths = _schedule_paths(signal, seq, sched, t_s, 0.0)
    return transition_probability(
        _nominal_phase(signal, seq, sched.start_time_s, t_s, 0, sched.num_samples, paths)
    )


def _signal_to_dict(signal: AnySignal) -> dict[str, Any]:
    if isinstance(signal, CompositeSignal):
        return {"groups": [dataclasses.asdict(g) for g in signal.groups]}
    return dataclasses.asdict(signal)


def write_trace(trace: TimeTrace, path: str | Path) -> Path:
    """Write a trace as CSV (k, t_k_s, counts) plus a JSON metadata sidecar.

    The sidecar at ``<path stem>.meta.json`` carries the full metadata record
    and everything needed to reconstruct the :class:`TimeTrace`. Floats are
    serialized via repr, so identical traces produce byte-identical files.
    """
    path = Path(path)
    meta_path = path.with_suffix(".meta.json")
    meta_doc = {
        "tool_version": trace.metadata.get("tool_version", __version__),
        "sampling_period_s": trace.sampling_period_s,
        "start_time_s": trace.start_time_s,
        "num_samples": trace.num_samples,
        "jittered": trace.sample_times_s is not None,
        "metadata": trace.metadata,
    }
    meta_json = canonical_json(meta_doc)
    meta_path.write_text(meta_json + "\n")

    header = (
        f"# lockinsim_version={trace.metadata.get('tool_version', __version__)}",
        f"# metadata_sha256={sha256_hex(meta_json)}",
        "k,t_k_s,counts",
    )
    columns = (np.arange(trace.num_samples), trace.times_s, trace.counts)
    with path.open("wb") as fh:
        fh.writelines(csv_blocks(header, columns))
    return path


def read_trace(path: str | Path) -> TimeTrace:
    """Read a trace written by :func:`write_trace`.

    Raises:
        ValueError: If the file is empty or malformed, the sidecar is
            missing, the sidecar's sha256 differs from the CSV header's
            ``metadata_sha256``, or the CSV holds a different number of
            samples than the sidecar's ``num_samples``.
    """
    path = Path(path)
    raw = path.read_text().strip()
    if not raw:
        raise ValueError(f"trace file {path} is empty")
    all_lines = raw.splitlines()
    header = dict(ln[1:].strip().partition("=")[::2] for ln in all_lines if ln.startswith("#"))
    lines = [ln for ln in all_lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("k,"):
        raise ValueError(f"trace file {path} has no 'k,t_k_s,counts' header")
    data_lines = lines[1:]
    if not data_lines:
        raise ValueError(f"trace file {path} contains no samples")

    meta_path = path.with_suffix(".meta.json")
    if not meta_path.exists():
        raise ValueError(f"metadata sidecar {meta_path} not found")
    meta_text = meta_path.read_text()
    if header.get("metadata_sha256") != sha256_hex(meta_text.removesuffix("\n")):
        raise ValueError(
            f"metadata sidecar {meta_path} does not match the metadata_sha256 "
            f"of trace file {path}"
        )
    meta_doc = json.loads(meta_text)
    if meta_doc.get("num_samples") != len(data_lines):
        raise ValueError(
            f"trace file {path} holds {len(data_lines)} samples, but its "
            f"sidecar says {meta_doc.get('num_samples')}"
        )

    counts = np.empty(len(data_lines), dtype=np.int64)
    times = np.empty(len(data_lines))
    for i, line in enumerate(data_lines):
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"trace file {path}: malformed line {line!r}")
        counts[i] = int(fields[2])
        times[i] = float(fields[1])

    jittered = bool(meta_doc.get("jittered", False))
    for array in (counts, times):
        array.setflags(write=False)  # the trace keeps it uncopied
    return TimeTrace(
        counts=counts,
        sampling_period_s=float(meta_doc["sampling_period_s"]),
        start_time_s=float(meta_doc["start_time_s"]),
        metadata=meta_doc.get("metadata", {}),
        sample_times_s=times if jittered else None,
    )
