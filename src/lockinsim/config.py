"""YAML run configuration: schema validation and domain-object construction.

All stochastic entry points take their seed from the mandatory top-level
``seed`` (overridable on the command line); every physical quantity carries
its unit in the key name. Exactly one of ``schedule.dead_time_s`` /
``schedule.sampling_period_s`` must be given, and tone amplitudes are set
either directly (rad/s) or via an equivalent magnetic field amplitude.
"""

from __future__ import annotations

from pathlib import Path
from typing import Literal

import yaml
from pydantic import BaseModel, ConfigDict, Field, ValidationError, model_validator

from ._io import canonical_json, sha256_hex
from .lockin import CpmgSequence
from .readout import ReadoutModel
from .sampler import SamplingSchedule
from .signal import (
    AcSignal,
    AmModulation,
    CompositeSignal,
    FmNoise,
    Tone,
    amplitude_from_field_tesla,
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
]


class ConfigError(ValueError):
    """Invalid run configuration (maps to CLI exit code 2)."""


class _Model(BaseModel):
    model_config = ConfigDict(extra="forbid")


class ToneConfig(_Model):
    frequency_hz: float = Field(gt=0.0)
    amplitude_rad_per_s: float | None = Field(default=None, gt=0.0)
    field_amplitude_tesla: float | None = Field(default=None, gt=0.0)
    phase_rad: float = 0.0

    @model_validator(mode="after")
    def _one_amplitude(self) -> "ToneConfig":
        if (self.amplitude_rad_per_s is None) == (self.field_amplitude_tesla is None):
            raise ValueError(
                "exactly one of amplitude_rad_per_s / field_amplitude_tesla is required"
            )
        return self

    def build(self) -> Tone:
        amp = (
            self.amplitude_rad_per_s
            if self.amplitude_rad_per_s is not None
            else amplitude_from_field_tesla(self.field_amplitude_tesla)
        )
        return Tone(
            frequency_hz=self.frequency_hz,
            amplitude_rad_per_s=amp,
            phase_rad=self.phase_rad,
        )


class AmConfig(_Model):
    mod_frequency_hz: float = Field(gt=0.0)
    mod_depth: float = Field(ge=0.0, le=1.0)
    mod_phase_rad: float = 0.0

    def build(self) -> AmModulation:
        return AmModulation(
            mod_frequency_hz=self.mod_frequency_hz,
            mod_depth=self.mod_depth,
            mod_phase_rad=self.mod_phase_rad,
        )


class FmConfig(_Model):
    linewidth_hz: float = Field(ge=0.0)
    rng_seed: int
    correlation_time_s: float = Field(default=2.0, gt=0.0)

    def build(self) -> FmNoise:
        return FmNoise(
            linewidth_hz=self.linewidth_hz,
            rng_seed=self.rng_seed,
            correlation_time_s=self.correlation_time_s,
        )


class SignalGroupConfig(_Model):
    tones: list[ToneConfig] = Field(min_length=1)
    am: AmConfig | None = None
    fm: FmConfig | None = None

    def build(self) -> AcSignal:
        return AcSignal(
            tones=tuple(t.build() for t in self.tones),
            am=self.am.build() if self.am else None,
            fm=self.fm.build() if self.fm else None,
        )


class SignalConfig(_Model):
    """Either a single tone group or several independent groups."""

    tones: list[ToneConfig] | None = None
    am: AmConfig | None = None
    fm: FmConfig | None = None
    groups: list[SignalGroupConfig] | None = None

    @model_validator(mode="after")
    def _exactly_one_form(self) -> "SignalConfig":
        if (self.groups is None) == (self.tones is None):
            raise ValueError("provide either 'tones' (one group) or 'groups', not both")
        if self.groups is not None and (self.am is not None or self.fm is not None):
            raise ValueError("'am'/'fm' belong inside each group when 'groups' is used")
        if self.groups is not None and len(self.groups) < 1:
            raise ValueError("'groups' must not be empty")
        return self

    def build(self) -> AcSignal | CompositeSignal:
        if self.groups is not None:
            if len(self.groups) == 1:
                return self.groups[0].build()
            return CompositeSignal(groups=tuple(g.build() for g in self.groups))
        single = SignalGroupConfig(tones=self.tones, am=self.am, fm=self.fm)
        return single.build()


class CpmgConfig(_Model):
    pulse_count: int = Field(ge=2)
    tau_s: float | None = Field(default=None, gt=0.0)
    lockin_frequency_hz: float | None = Field(default=None, gt=0.0)
    harmonic: int = Field(default=1, ge=1)

    @model_validator(mode="after")
    def _check(self) -> "CpmgConfig":
        if self.pulse_count % 2 != 0:
            raise ValueError("pulse_count must be even")
        if self.harmonic % 2 != 1:
            raise ValueError("harmonic must be odd")
        if (self.tau_s is None) == (self.lockin_frequency_hz is None):
            raise ValueError("exactly one of tau_s / lockin_frequency_hz is required")
        return self

    def build(self) -> CpmgSequence:
        if self.tau_s is not None:
            return CpmgSequence(
                pulse_count=self.pulse_count, tau_s=self.tau_s, harmonic=self.harmonic
            )
        return CpmgSequence.for_frequency(
            self.lockin_frequency_hz, self.pulse_count, harmonic=self.harmonic
        )


class ReadoutConfig(_Model):
    qnd_repetitions: int = Field(ge=1)
    contrast: float = Field(gt=0.0, lt=1.0)
    gain_slope_photons: float = Field(default=0.105, gt=0.0)
    depolarization_per_readout: float = Field(default=0.0, ge=0.0)
    readout_unit_time_s: float = Field(default=2.32e-6, gt=0.0)

    def build(self) -> ReadoutModel:
        return ReadoutModel(
            qnd_repetitions=self.qnd_repetitions,
            contrast=self.contrast,
            gain_slope_photons=self.gain_slope_photons,
            depolarization_per_readout=self.depolarization_per_readout,
            readout_unit_time_s=self.readout_unit_time_s,
        )


class ScheduleConfig(_Model):
    num_samples: int = Field(ge=1)
    dead_time_s: float | None = Field(default=None, ge=0.0)
    sampling_period_s: float | None = Field(default=None, gt=0.0)
    start_time_s: float = Field(default=0.0, ge=0.0)
    clock_jitter_std_s: float = Field(default=0.0, ge=0.0)

    @model_validator(mode="after")
    def _one_period_spec(self) -> "ScheduleConfig":
        if (self.dead_time_s is None) == (self.sampling_period_s is None):
            raise ValueError(
                "exactly one of dead_time_s / sampling_period_s is required"
            )
        return self

    def build(self, seq: CpmgSequence, model: ReadoutModel) -> SamplingSchedule:
        if self.dead_time_s is not None:
            return SamplingSchedule.from_components(
                seq,
                model,
                self.dead_time_s,
                self.num_samples,
                start_time_s=self.start_time_s,
                clock_jitter_std_s=self.clock_jitter_std_s,
            )
        return SamplingSchedule.from_period(
            seq,
            model,
            self.sampling_period_s,
            self.num_samples,
            start_time_s=self.start_time_s,
            clock_jitter_std_s=self.clock_jitter_std_s,
        )


class AnalysisConfig(_Model):
    window_half_bins: int = Field(default=12, ge=2)
    window_linewidth_factor: float = Field(default=8.0, gt=0.0)
    noise_guard_linewidths: float = Field(default=10.0, gt=0.0)
    exact_snr: bool = False
    target_frequency_hz: float | None = Field(default=None, gt=0.0)


class SweepConfig(_Model):
    qnd_repetitions: list[int] = Field(min_length=2)

    @model_validator(mode="after")
    def _positive(self) -> "SweepConfig":
        if any(n < 1 for n in self.qnd_repetitions):
            raise ValueError("qnd_repetitions entries must be >= 1")
        return self


class ScalingConfig(_Model):
    num_samples_list: list[int] = Field(min_length=2)
    seeds_per_point: int = Field(default=3, ge=1)

    @model_validator(mode="after")
    def _positive(self) -> "ScalingConfig":
        if any(n < 8 for n in self.num_samples_list):
            raise ValueError("num_samples_list entries must be >= 8")
        return self


class ReconstructionConfig(_Model):
    nyquist_rate_hz: float = Field(gt=0.0)
    duration_s: float = Field(gt=0.0)
    sampling_periods_s: list[float] = Field(min_length=2)
    records_per_rate: int = Field(default=1, ge=1)
    support_bands_hz: list[tuple[float, float]] = Field(min_length=1)
    floor_subtraction: Literal["median", "none"] = "median"
    nnls_tol: float = Field(default=1e-10, gt=0.0)

    @model_validator(mode="after")
    def _check(self) -> "ReconstructionConfig":
        if any(p <= 0.0 for p in self.sampling_periods_s):
            raise ValueError("sampling_periods_s entries must be > 0")
        if len(set(self.sampling_periods_s)) != len(self.sampling_periods_s):
            raise ValueError("sampling_periods_s entries must be distinct")
        m = self.duration_s * self.nyquist_rate_hz
        if abs(m - round(m)) > 1e-6:
            raise ValueError("duration_s * nyquist_rate_hz must be an integer (grid size)")
        return self


class RateDesignConfig(_Model):
    num_rates: int = Field(ge=2)
    base_period_s: float = Field(gt=0.0)
    max_extra_s: float = Field(gt=0.0)
    time_grid_s: float = Field(default=1e-7, gt=0.0)


class RunConfig(_Model):
    """Top-level run configuration (one YAML document)."""

    seed: int
    signal: SignalConfig | None = None
    cpmg: CpmgConfig | None = None
    readout: ReadoutConfig | None = None
    schedule: ScheduleConfig | None = None
    analysis: AnalysisConfig = AnalysisConfig()
    sweep: SweepConfig | None = None
    scaling: ScalingConfig | None = None
    reconstruction: ReconstructionConfig | None = None
    rate_design: RateDesignConfig | None = None

    def require(self, *sections: str) -> None:
        missing = [s for s in sections if getattr(self, s) is None]
        if missing:
            raise ConfigError(
                "config is missing required section(s): " + ", ".join(missing)
            )


def _format_validation_error(exc: ValidationError) -> str:
    lines = []
    for err in exc.errors():
        path = ".".join(str(p) for p in err["loc"]) or "<root>"
        lines.append(f"  {path}: {err['msg']}")
    return "invalid configuration:\n" + "\n".join(lines)


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a YAML run configuration.

    Raises:
        ConfigError: On unreadable files, YAML syntax errors, or schema
            violations (message lists each offending dotted path).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    try:
        return RunConfig.model_validate(raw)
    except ValidationError as exc:
        raise ConfigError(_format_validation_error(exc)) from exc


def config_hash(config: RunConfig) -> str:
    """sha256 over the canonical JSON serialization of the resolved config."""
    return sha256_hex(canonical_json(config.model_dump(mode="json")))


def build_signal(config: RunConfig) -> AcSignal | CompositeSignal:
    config.require("signal")
    return config.signal.build()


def build_sequence(config: RunConfig) -> CpmgSequence:
    config.require("cpmg")
    return config.cpmg.build()


def build_readout(config: RunConfig) -> ReadoutModel:
    config.require("readout")
    return config.readout.build()


def build_schedule(
    config: RunConfig, seq: CpmgSequence, model: ReadoutModel
) -> SamplingSchedule:
    config.require("schedule")
    try:
        return config.schedule.build(seq, model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def signal_linewidth_hz(config: RunConfig) -> float:
    """Largest FM linewidth declared in the signal (0 for coherent tones)."""
    if config.signal is None:
        return 0.0
    if config.signal.groups is not None:
        fms = [g.fm.linewidth_hz for g in config.signal.groups if g.fm is not None]
        return max(fms, default=0.0)
    return config.signal.fm.linewidth_hz if config.signal.fm else 0.0


def target_frequency_hz(config: RunConfig) -> float:
    """Analysis target tone (explicit setting or the strongest tone)."""
    if config.analysis.target_frequency_hz is not None:
        return config.analysis.target_frequency_hz
    config.require("signal")
    signal = config.signal.build()
    tones = [t for g in signal.groups for t in g.tones]
    return max(tones, key=lambda t: t.amplitude_rad_per_s).frequency_hz

