"""Drive the lock-in + readout chain to produce sub-Nyquist time traces.

One sample takes t_s = t_a + t_r + t_d (sense, read out, dead time); sample k
starts at t_k = start_time + k t_s, accumulates phase over [t_k, t_k + t_a]
(tagged to t_k), and yields a photon count. Because t_s is vastly longer than
the signal period, the trace is highly undersampled and tones fold into
[0, f_s/2] with f_s = 1/t_s.

Generation is deterministic and chunk-parallel: the trace is split into fixed
65536-sample chunks, each drawing from its own spawned RNG stream, so the
result is bit-identical for any thread count.
"""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

import numpy as np

from . import __version__
from .lockin import CpmgSequence, phase_closed_form, transition_probability
from .lockin import phase_by_integration  # noqa: F401  (bench/ traces it by this name)
from .readout import ReadoutModel, sample_counts
from .signal import (
    AnySignal,
    CompositeSignal,
    PhaseNoisePath,
    materialize_fm_noise,
)
from ._io import canonical_json, sha256_hex

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

#: Quasi-static FM threshold: the frozen-phase fast path is used when the
#: noise correlation time exceeds this many sensing windows.
QUASI_STATIC_RATIO = 100.0

RngLike = Union[int, np.random.SeedSequence, np.random.Generator]


@dataclass(frozen=True)
class SamplingSchedule:
    """Timing of the stroboscopic acquisition.

    Attributes:
        sensing_time_s: CPMG sensing window t_a (must match the sequence).
        readout_time_s: Readout duration t_r (must match the readout model).
        dead_time_s: Extra per-sample delay t_d >= 0.
        num_samples: Trace length N >= 1.
        start_time_s: Absolute time of sample 0.
        clock_jitter_std_s: Optional Gaussian jitter (std, s) on each sample
            time; 0 disables jitter.
    """

    sensing_time_s: float
    readout_time_s: float
    dead_time_s: float
    num_samples: int
    start_time_s: float = 0.0
    clock_jitter_std_s: float = 0.0

    def __post_init__(self) -> None:
        if not (self.sensing_time_s > 0.0):
            raise ValueError(f"sensing_time_s must be > 0, got {self.sensing_time_s}")
        if not (self.readout_time_s > 0.0):
            raise ValueError(f"readout_time_s must be > 0, got {self.readout_time_s}")
        if not (self.dead_time_s >= 0.0):
            raise ValueError(f"dead_time_s must be >= 0, got {self.dead_time_s}")
        if not (isinstance(self.num_samples, (int, np.integer)) and self.num_samples >= 1):
            raise ValueError(f"num_samples must be an integer >= 1, got {self.num_samples}")
        if not (self.start_time_s >= 0.0):
            raise ValueError(f"start_time_s must be >= 0, got {self.start_time_s}")
        if not (self.clock_jitter_std_s >= 0.0):
            raise ValueError(
                f"clock_jitter_std_s must be >= 0, got {self.clock_jitter_std_s}"
            )

    @property
    def sampling_period_s(self) -> float:
        """t_s = t_a + t_r + t_d (s)."""
        return self.sensing_time_s + self.readout_time_s + self.dead_time_s

    @property
    def sample_rate_hz(self) -> float:
        """f_s = 1/t_s (Hz)."""
        return 1.0 / self.sampling_period_s

    @property
    def duration_s(self) -> float:
        """Trace duration T = N t_s (s)."""
        return self.num_samples * self.sampling_period_s

    @staticmethod
    def from_components(
        seq: CpmgSequence,
        model: ReadoutModel,
        dead_time_s: float,
        num_samples: int,
        *,
        start_time_s: float = 0.0,
        clock_jitter_std_s: float = 0.0,
    ) -> "SamplingSchedule":
        """Build a schedule with t_a, t_r taken from the sequence and model."""
        return SamplingSchedule(
            sensing_time_s=seq.sensing_time_s,
            readout_time_s=model.readout_time_s,
            dead_time_s=dead_time_s,
            num_samples=num_samples,
            start_time_s=start_time_s,
            clock_jitter_std_s=clock_jitter_std_s,
        )

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
            sensing_time_s=seq.sensing_time_s,
            readout_time_s=model.readout_time_s,
            dead_time_s=max(0.0, dead),
            num_samples=num_samples,
            start_time_s=start_time_s,
            clock_jitter_std_s=clock_jitter_std_s,
        )


@dataclass(frozen=True)
class TimeTrace:
    """A photon-count time trace with its acquisition record.

    Attributes:
        counts: Length-N non-negative integer counts.
        sampling_period_s: Nominal t_s.
        start_time_s: Absolute time of sample 0.
        metadata: JSON-serializable record of every parameter and seed.
        sample_times_s: Actual (jittered) sample times; None on the nominal
            grid.
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
        if np.issubdtype(counts.dtype, np.integer):
            if counts.size and counts.min() < 0:
                raise ValueError("counts must be non-negative")
            counts = counts.astype(np.int64)
        else:
            raise ValueError("counts must be integers")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if not (self.sampling_period_s > 0.0):
            raise ValueError(f"sampling_period_s must be > 0, got {self.sampling_period_s}")
        if self.sample_times_s is not None:
            times = np.asarray(self.sample_times_s, dtype=float)
            if times.shape != counts.shape:
                raise ValueError("sample_times_s must match counts in length")
            times.setflags(write=False)
            object.__setattr__(self, "sample_times_s", times)

    @property
    def num_samples(self) -> int:
        return int(self.counts.size)

    @property
    def sample_rate_hz(self) -> float:
        return 1.0 / self.sampling_period_s

    @property
    def duration_s(self) -> float:
        return self.num_samples * self.sampling_period_s

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
    if not f_s > 0.0:
        raise ValueError(f"f_s must be > 0, got {f_s}")
    if not (isinstance(num_samples, (int, np.integer)) and num_samples >= 1):
        raise ValueError(f"num_samples must be an integer >= 1, got {num_samples}")
    if not f_true >= 0.0:
        raise ValueError(f"f_true must be >= 0, got {f_true}")
    pos = (f_true / f_s) % 1.0 * num_samples  # position in bin units, [0, N)
    if pos > num_samples / 2.0:
        pos = num_samples - pos
    return min(int(np.rint(pos)), num_samples // 2)


def _validate_consistency(
    seq: CpmgSequence, model: ReadoutModel, sched: SamplingSchedule
) -> None:
    if not math.isclose(sched.sensing_time_s, seq.sensing_time_s, rel_tol=1e-9):
        raise ValueError(
            f"schedule.sensing_time_s = {sched.sensing_time_s} does not match "
            f"the sequence t_a = {seq.sensing_time_s}"
        )
    if not math.isclose(sched.readout_time_s, model.readout_time_s, rel_tol=1e-9):
        raise ValueError(
            f"schedule.readout_time_s = {sched.readout_time_s} does not match "
            f"the readout model t_r = {model.readout_time_s}"
        )


def _resolve_phase_method(signal: AnySignal, seq: CpmgSequence, method: str) -> str:
    """Pick the per-sample phase evaluation strategy.

    "closed_form": per-tone closed form (exact for tone/AM signals; FM enters
    quasi-statically via the frozen carrier-phase offset at the window start,
    valid when tau_c >> t_a).
    "integration": the exact CPMG integral over the materialized
    piecewise-linear FM path, in closed form piece by piece (exact for any
    configuration).
    """
    if method not in ("auto", "closed_form", "integration"):
        raise ValueError(f"unknown phase_method {method!r}")
    if method != "auto":
        return method
    for group in signal.groups:
        if group.fm is not None:
            ratio = group.fm.correlation_time_s / seq.sensing_time_s
            if ratio < QUASI_STATIC_RATIO:
                return "integration"
    return "closed_form"


def _materialize_paths(
    signal: AnySignal, last_time_s: float, seq: CpmgSequence
) -> tuple[PhaseNoisePath | None, ...]:
    paths: list[PhaseNoisePath | None] = []
    for group in signal.groups:
        if group.fm is None:
            paths.append(None)
        else:
            dt = group.fm.correlation_time_s / 8.0
            duration = last_time_s + seq.sensing_time_s + 2.0 * dt
            paths.append(materialize_fm_noise(group, duration, dt))
    return tuple(paths)


def _phases_at(
    signal: AnySignal,
    seq: CpmgSequence,
    times: np.ndarray,
    method: str,
    paths: tuple[PhaseNoisePath | None, ...],
) -> np.ndarray:
    """phi(t_k) for every sample time, by the resolved method."""
    if method == "integration":
        return phase_closed_form(signal, seq, times, phase_noise=paths)
    total = np.zeros_like(times)
    for group, path in zip(signal.groups, paths):
        extra = path.phase_at(times) if path is not None else 0.0
        total = total + phase_closed_form(group, seq, times, extra_phase_rad=extra)
    return total


def _seed_metadata(rng: RngLike) -> Any:
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    if isinstance(rng, np.random.SeedSequence):
        entropy = rng.entropy
        return list(entropy) if isinstance(entropy, (list, tuple)) else entropy
    return "generator"


def _spawn_chunk_rngs(rng: RngLike, n_chunks: int) -> list[np.random.Generator]:
    if isinstance(rng, (int, np.integer)):
        rng = np.random.SeedSequence(int(rng))
    if isinstance(rng, np.random.SeedSequence):
        return [np.random.Generator(np.random.PCG64(c)) for c in rng.spawn(n_chunks)]
    if isinstance(rng, np.random.Generator):
        return rng.spawn(n_chunks)
    raise TypeError(f"rng must be an int, SeedSequence, or Generator, got {type(rng)}")


def run_sampling(
    signal: AnySignal,
    seq: CpmgSequence,
    model: ReadoutModel,
    sched: SamplingSchedule,
    rng: RngLike,
    *,
    num_threads: int = 1,
    phase_method: str = "auto",
) -> TimeTrace:
    """Generate a photon-count time trace.

    For each k = 0..N-1: t_k = start + k t_s (plus optional jitter), the
    phase is accumulated over [t_k, t_k + t_a] and tagged to t_k, converted
    to a transition probability, and read out stochastically.

    Args:
        signal: Signal (or composite of independent sources).
        seq: CPMG sequence; its t_a must match the schedule.
        model: Readout model; its t_r must match the schedule.
        sched: Sampling schedule.
        rng: Seed, SeedSequence, or Generator. Chunk streams are spawned from
            it; the result is bit-identical for any ``num_threads``.
        num_threads: Worker threads for chunk generation.
        phase_method: "auto" (closed form, quasi-static FM when valid),
            "closed_form", or "integration".

    Returns:
        The trace with a full parameter record in ``metadata``.
    """
    _validate_consistency(seq, model, sched)
    method = _resolve_phase_method(signal, seq, phase_method)
    n = sched.num_samples
    t_s = sched.sampling_period_s
    last_nominal = sched.start_time_s + (n - 1) * t_s
    jitter_margin = 8.0 * sched.clock_jitter_std_s
    paths = _materialize_paths(signal, last_nominal + jitter_margin, seq)

    n_chunks = (n + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES
    chunk_rngs = _spawn_chunk_rngs(rng, n_chunks)

    jittered = sched.clock_jitter_std_s > 0.0
    times_out = np.empty(n) if jittered else None
    counts_out = np.empty(n, dtype=np.int64)

    def generate(chunk_index: int) -> None:
        lo = chunk_index * CHUNK_SAMPLES
        hi = min(lo + CHUNK_SAMPLES, n)
        crng = chunk_rngs[chunk_index]
        t_k = sched.start_time_s + np.arange(lo, hi) * t_s
        if jittered:
            t_k = np.maximum(t_k + crng.normal(0.0, sched.clock_jitter_std_s, hi - lo), 0.0)
            times_out[lo:hi] = t_k
        phi = _phases_at(signal, seq, t_k, method, paths)
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
        "seed": _seed_metadata(rng),
        "phase_method": method,
    }
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
    sched: SamplingSchedule,
    *,
    phase_method: str = "auto",
) -> np.ndarray:
    """Noise-free transition probabilities p_k on the nominal time grid.

    The deterministic core of :func:`run_sampling` (no jitter, no readout
    noise); composing with :func:`lockinsim.readout.expected_counts` yields
    the analytic expected trace.
    """
    method = _resolve_phase_method(signal, seq, phase_method)
    times = sched.start_time_s + np.arange(sched.num_samples) * sched.sampling_period_s
    paths = _materialize_paths(signal, float(times[-1]), seq)
    return transition_probability(_phases_at(signal, seq, times, method, paths))


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

    times = trace.times_s
    lines = [
        f"# lockinsim_version={trace.metadata.get('tool_version', __version__)}",
        f"# metadata_sha256={sha256_hex(meta_json)}",
        "k,t_k_s,counts",
    ]
    counts = trace.counts
    lines.extend(
        f"{k},{float(times[k])!r},{int(counts[k])}" for k in range(trace.num_samples)
    )
    path.write_text("\n".join(lines) + "\n")
    return path


def read_trace(path: str | Path) -> TimeTrace:
    """Read a trace written by :func:`write_trace`.

    Raises:
        ValueError: If the file is empty or malformed, or the sidecar is
            missing.
    """
    path = Path(path)
    raw = path.read_text().strip()
    if not raw:
        raise ValueError(f"trace file {path} is empty")
    lines = [ln for ln in raw.splitlines() if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("k,"):
        raise ValueError(f"trace file {path} has no 'k,t_k_s,counts' header")
    data_lines = lines[1:]
    if not data_lines:
        raise ValueError(f"trace file {path} contains no samples")

    meta_path = path.with_suffix(".meta.json")
    if not meta_path.exists():
        raise ValueError(f"metadata sidecar {meta_path} not found")
    meta_doc = json.loads(meta_path.read_text())

    counts = np.empty(len(data_lines), dtype=np.int64)
    times = np.empty(len(data_lines))
    for i, line in enumerate(data_lines):
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"trace file {path}: malformed line {line!r}")
        counts[i] = int(fields[2])
        times[i] = float(fields[1])

    jittered = bool(meta_doc.get("jittered", False))
    return TimeTrace(
        counts=counts,
        sampling_period_s=float(meta_doc["sampling_period_s"]),
        start_time_s=float(meta_doc["start_time_s"]),
        metadata=meta_doc.get("metadata", {}),
        sample_times_s=times if jittered else None,
    )
