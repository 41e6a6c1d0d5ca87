"""YAML run configuration: frozen dataclass sections filled by one loader.

Every stochastic entry point takes its seed from the mandatory top-level
``seed`` (overridable on the command line); every physical quantity carries
its unit in the key name. ``readout``, ``am`` and ``fm`` are their domain
types, whose checks hold their bounds; ``cpmg``, each tone and the
reconstruction grid build their domain objects at load; the other sections
check their bounds with :func:`lockinsim._io.check_range`. The loader takes
an int, or YAML 1.1 exponent text such as ``1.2e6`` (a string to YAML), for a
float; rejects booleans and non-finite values given for numbers; and names an
unknown or missing key by its dotted path.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Literal

import yaml

from ._io import canonical_json, check_range, sha256_hex
from .csrecon import WidebandGrid
from .lockin import CpmgSequence
from .readout import ReadoutModel
from .sampler import SamplingSchedule
from .signal import (
    AcSignal,
    AmModulation,
    AnySignal,
    CompositeSignal,
    FmNoise,
    Tone,
    amplitude_from_field_tesla,
    strongest_tone,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "config_hash",
    "build_signal",
    "build_sequence",
    "build_readout",
    "build_schedule",
    "target_frequency_hz",
]


class ConfigError(ValueError):
    """Invalid run configuration (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class ToneConfig:
    """One tone; its amplitude is given in rad/s or as a field amplitude (T)."""

    frequency_hz: float
    amplitude_rad_per_s: float | None = None
    field_amplitude_tesla: float | None = None
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        if (self.amplitude_rad_per_s is None) == (self.field_amplitude_tesla is None):
            raise ValueError(
                "exactly one of amplitude_rad_per_s / field_amplitude_tesla is required"
            )
        self.build()

    def build(self) -> Tone:
        amp = self.amplitude_rad_per_s
        if amp is None:
            amp = amplitude_from_field_tesla(self.field_amplitude_tesla)
        return Tone(self.frequency_hz, amp, self.phase_rad)


@dataclass(frozen=True)
class SignalGroupConfig:
    tones: list[ToneConfig]
    am: AmModulation | None = None
    fm: FmNoise | None = None

    def build(self) -> AcSignal:
        return AcSignal(tuple(t.build() for t in self.tones), self.am, self.fm)


@dataclass(frozen=True)
class SignalConfig(SignalGroupConfig):
    """Either a single tone group (the inherited fields) or several independent groups."""

    tones: list[ToneConfig] | None = None
    groups: list[SignalGroupConfig] | None = None

    def __post_init__(self) -> None:
        if (self.groups is None) == (self.tones is None):
            raise ValueError("provide either 'tones' (one group) or 'groups', not both")
        if self.groups is not None and (self.am is not None or self.fm is not None):
            raise ValueError("'am'/'fm' belong inside each group when 'groups' is used")
        self.build()

    def build(self) -> AcSignal | CompositeSignal:
        if self.groups is None:
            return super().build()
        if len(self.groups) == 1:
            return self.groups[0].build()
        return CompositeSignal(tuple(g.build() for g in self.groups))


@dataclass(frozen=True)
class CpmgConfig:
    """The CPMG sequence, timed by ``tau_s`` or by ``lockin_frequency_hz``."""

    pulse_count: int
    tau_s: float | None = None
    lockin_frequency_hz: float | None = None
    harmonic: int = 1

    def __post_init__(self) -> None:
        if (self.tau_s is None) == (self.lockin_frequency_hz is None):
            raise ValueError("exactly one of tau_s / lockin_frequency_hz is required")
        self.build()

    def build(self) -> CpmgSequence:
        if self.tau_s is not None:
            return CpmgSequence(self.pulse_count, self.tau_s, self.harmonic)
        f_hz = self.lockin_frequency_hz
        return CpmgSequence.for_frequency(f_hz, self.pulse_count, self.harmonic)


@dataclass(frozen=True)
class ScheduleConfig:
    """Sample count and timing, checked by :class:`SamplingSchedule` when built.

    Exactly one of ``dead_time_s`` (t_d) and ``sampling_period_s`` (t_s) is
    given; a period becomes a dead time through
    :meth:`SamplingSchedule.from_period`.
    """

    num_samples: int
    dead_time_s: float | None = None
    sampling_period_s: float | None = None
    start_time_s: float = 0.0
    clock_jitter_std_s: float = 0.0

    def __post_init__(self) -> None:
        if (self.dead_time_s is None) == (self.sampling_period_s is None):
            raise ValueError("exactly one of dead_time_s / sampling_period_s is required")

    def build(self, seq: CpmgSequence, model: ReadoutModel) -> SamplingSchedule:
        timing = dict(start_time_s=self.start_time_s, clock_jitter_std_s=self.clock_jitter_std_s)
        if self.dead_time_s is not None:
            return SamplingSchedule(self.dead_time_s, self.num_samples, **timing)
        return SamplingSchedule.from_period(
            seq, model, self.sampling_period_s, self.num_samples, **timing
        )


@dataclass(frozen=True)
class AnalysisConfig:
    window_half_bins: int = 12
    window_linewidth_factor: float = 8.0
    noise_guard_linewidths: float = 10.0
    exact_snr: bool = False
    target_frequency_hz: float | None = None

    def __post_init__(self) -> None:
        check_range(2, window_half_bins=self.window_half_bins)
        check_range(0, strict=True, window_linewidth_factor=self.window_linewidth_factor)
        check_range(0, strict=True, noise_guard_linewidths=self.noise_guard_linewidths)
        check_range(0, strict=True, target_frequency_hz=self.target_frequency_hz)


@dataclass(frozen=True)
class SweepConfig:
    qnd_repetitions: list[int]

    def __post_init__(self) -> None:
        if len(self.qnd_repetitions) < 2:
            raise ValueError("qnd_repetitions needs at least 2 entries")
        check_range(1, qnd_repetitions=self.qnd_repetitions)


@dataclass(frozen=True)
class ScalingConfig:
    num_samples_list: list[int]
    seeds_per_point: int = 3

    def __post_init__(self) -> None:
        if len(self.num_samples_list) < 2:
            raise ValueError("num_samples_list needs at least 2 entries")
        check_range(8, num_samples_list=self.num_samples_list)
        check_range(1, seeds_per_point=self.seeds_per_point)


@dataclass(frozen=True)
class ReconstructionConfig:
    nyquist_rate_hz: float
    duration_s: float
    sampling_periods_s: list[float]
    support_bands_hz: list[tuple[float, float]]
    records_per_rate: int = 1
    floor_subtraction: Literal["median", "none"] = "median"
    nnls_tol: float = 1e-10

    def __post_init__(self) -> None:
        WidebandGrid(self.duration_s, self.nyquist_rate_hz)
        check_range(0, strict=True, sampling_periods_s=self.sampling_periods_s)
        check_range(0, strict=True, nnls_tol=self.nnls_tol)
        check_range(1, records_per_rate=self.records_per_rate)
        if len(self.sampling_periods_s) < 2:
            raise ValueError("sampling_periods_s needs at least 2 entries")
        if len(set(self.sampling_periods_s)) != len(self.sampling_periods_s):
            raise ValueError("sampling_periods_s entries must be distinct")
        if not self.support_bands_hz:
            raise ValueError("support_bands_hz needs at least 1 entry")


@dataclass(frozen=True)
class RateDesignConfig:
    num_rates: int
    base_period_s: float
    max_extra_s: float
    time_grid_s: float = 1e-7

    def __post_init__(self) -> None:
        check_range(2, num_rates=self.num_rates)
        check_range(0, strict=True, base_period_s=self.base_period_s)
        check_range(0, strict=True, max_extra_s=self.max_extra_s)
        check_range(0, strict=True, time_grid_s=self.time_grid_s)


@dataclass(frozen=True)
class RunConfig:
    """Top-level run configuration (one YAML document)."""

    seed: int
    signal: SignalConfig | None = None
    cpmg: CpmgConfig | None = None
    readout: ReadoutModel | None = None
    schedule: ScheduleConfig | None = None
    analysis: AnalysisConfig = AnalysisConfig()
    sweep: SweepConfig | None = None
    scaling: ScalingConfig | None = None
    reconstruction: ReconstructionConfig | None = None
    rate_design: RateDesignConfig | None = None

    def require(self, *sections: str) -> None:
        missing = [s for s in sections if getattr(self, s) is None]
        if missing:
            raise ConfigError("config is missing required section(s): " + ", ".join(missing))


#: Field annotations of a section class, resolved once per process.
_hints = functools.cache(typing.get_type_hints)

_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number"}


def _value(hint: Any, value: Any, path: str) -> Any:
    """``value`` from the YAML document converted to the annotation ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # every optional field is written ``X | None``
        return None if value is None else _value(args[0], value, path)
    if dataclasses.is_dataclass(hint):
        return _load(hint, value, path)
    if origin is Literal:
        if value in args:
            return value
    elif origin in (list, tuple):  # a list, or a fixed-length tuple such as a pair
        if isinstance(value, list) and (origin is list or len(value) == len(args)):
            pairs = enumerate(zip(args * len(value) if origin is list else args, value))
            return origin(_value(a, v, f"{path}[{i}]") for i, (a, v) in pairs)
    elif hint is float and not isinstance(value, bool):
        try:
            number = float(value)  # YAML 1.1 reads 1.2e6 as a string
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number):
            return number
    elif type(value) is hint:  # so a YAML bool is not an int
        return value
    raise ConfigError(f"{path}: expected {_EXPECTED.get(hint, hint)}, got {value!r}")


def _load(cls: type, raw: Any, path: str) -> Any:
    """Section ``cls`` filled from the YAML mapping ``raw`` found at ``path``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(raw).__name__}")
    hints, dot = _hints(cls), f"{path}." if path else ""
    for key in raw:
        if key not in hints:
            raise ConfigError(f"{dot}{key}: unknown key")
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name in raw:
            kwargs[field.name] = _value(hints[field.name], raw[field.name], dot + field.name)
        elif field.default is dataclasses.MISSING:
            raise ConfigError(f"{dot}{field.name}: required key is missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


#: libyaml's parser when PyYAML was built with it: 5-9 times faster than the
#: pure-Python one on the shipped configs, and it builds the same documents.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a YAML run configuration.

    Raises:
        ConfigError: On unreadable files, YAML syntax errors, or the first
            schema violation met, named by its dotted path.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return _load(RunConfig, raw, "")


def config_hash(config: RunConfig) -> str:
    """sha256 over the canonical JSON serialization of the resolved config."""
    return sha256_hex(canonical_json(dataclasses.asdict(config)))


def build_signal(config: RunConfig) -> AcSignal | CompositeSignal:
    config.require("signal")
    return config.signal.build()


def build_sequence(config: RunConfig) -> CpmgSequence:
    config.require("cpmg")
    return config.cpmg.build()


def build_readout(config: RunConfig) -> ReadoutModel:
    config.require("readout")
    return config.readout


def build_schedule(
    config: RunConfig, seq: CpmgSequence, model: ReadoutModel
) -> SamplingSchedule:
    config.require("schedule")
    try:
        return config.schedule.build(seq, model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def target_frequency_hz(config: RunConfig, signal: AnySignal) -> float:
    """Analysis target tone (explicit setting or the strongest tone)."""
    if config.analysis.target_frequency_hz is not None:
        return config.analysis.target_frequency_hz
    return strongest_tone(signal).frequency_hz
