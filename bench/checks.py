"""Correctness checks of each workload's output.

Each check reads the files one ``lockinsim`` command wrote and the YAML
config it ran on, and raises :class:`CheckFailed` naming the first thing
that is wrong. Expected values are derived here from the config, not from
the program: a folded tone lands on a bin fixed by its frequency, the
sampling period and the record length, whatever the seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import yaml

#: Wall-clock time of one QND readout repetition (the readout model's
#: default, which none of the configs overrides).
READOUT_UNIT_S = 2.32e-6

#: A recovered tone must exceed every other component within this many bins.
NEIGHBOURHOOD_BINS = 5


class CheckFailed(Exception):
    """An output broke a workload's correctness check."""


def load_yaml(path: Path) -> dict[str, Any]:
    """The config as plain YAML; numbers such as ``1.2e6`` stay strings."""
    return yaml.safe_load(path.read_text())


def folded_bin(frequency_hz: float, period_s: float, num_samples: int) -> int:
    """DFT bin of a tone after sampling every ``period_s`` for N samples."""
    pos = (frequency_hz * period_s) % 1.0 * num_samples
    if pos > num_samples / 2.0:
        pos = num_samples - pos
    return min(int(round(pos)), num_samples // 2)


def _strongest_tone_hz(config: dict[str, Any]) -> float:
    tones = config["signal"]["tones"]
    strongest = max(
        tones, key=lambda t: float(t.get("amplitude_rad_per_s", t.get("field_amplitude_tesla")))
    )
    return float(strongest["frequency_hz"])


def _require_finite(obj: Any, where: str = "result") -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise CheckFailed(f"{where} is {obj}")
    if isinstance(obj, dict):
        for key, value in obj.items():
            _require_finite(value, f"{where}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _require_finite(value, f"{where}[{i}]")


def _sensing_time_s(config: dict[str, Any]) -> float:
    cpmg = config["cpmg"]
    return int(cpmg["pulse_count"]) * float(cpmg["tau_s"])


def check_sweep_json(out: Path, config: dict[str, Any]) -> None:
    """Every sweep point peaks at its folded bin; every value is finite."""
    result = json.loads(out.read_text())["result"]
    _require_finite(result)
    ns = config["sweep"]["qnd_repetitions"]
    if result["qnd_repetitions"] != ns:
        raise CheckFailed(f"sweep points {result['qnd_repetitions']} != {ns}")
    num_samples = config["schedule"]["num_samples"]
    tone_hz = _strongest_tone_hz(config)
    fixed_s = _sensing_time_s(config) + float(config["schedule"]["dead_time_s"])
    for n, period, peak in zip(ns, result["sampling_period_s"], result["peak_bin"]):
        expected_period = fixed_s + n * READOUT_UNIT_S
        if not math.isclose(period, expected_period, rel_tol=1e-9):
            raise CheckFailed(f"n={n}: sampling period {period} != {expected_period}")
        expected = folded_bin(tone_hz, expected_period, num_samples)
        if peak != expected:
            raise CheckFailed(f"n={n}: peak at bin {peak}, expected {expected}")


def check_hour_csv(out: Path, config: dict[str, Any]) -> None:
    """One row per one-sided bin, strongest non-DC bin at the folded carrier."""
    rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    if rows[:1] != ["bin,frequency_hz,power"]:
        raise CheckFailed(f"unexpected header {rows[:1]}")
    num_samples = config["schedule"]["num_samples"]
    data = rows[1:]
    if len(data) != num_samples // 2 + 1:
        raise CheckFailed(f"{len(data)} rows, expected {num_samples // 2 + 1}")
    best_bin, best_power = -1, -math.inf
    for k, row in enumerate(data):
        fields = row.split(",")
        if len(fields) != 3 or int(fields[0]) != k:
            raise CheckFailed(f"row {k} is malformed: {row!r}")
        power = float(fields[2])
        if not (math.isfinite(power) and power >= 0.0):
            raise CheckFailed(f"row {k}: power {power}")
        if k > 0 and power > best_power:
            best_bin, best_power = k, power
    expected = folded_bin(
        _strongest_tone_hz(config), float(config["schedule"]["sampling_period_s"]), num_samples
    )
    if best_bin != expected:
        raise CheckFailed(f"peak at bin {best_bin}, expected {expected}")


def check_wideband_recon(out: Path, config: dict[str, Any]) -> None:
    """Every tone is recovered at its grid bin and dominates its neighbourhood."""
    result = json.loads(out.read_text())["result"]
    _require_finite(result)
    duration = float(config["reconstruction"]["duration_s"])
    components = dict(zip(result["nonzero_bins"], result["nonzero_components"]))
    for tone in config["signal"]["tones"]:
        pos = float(tone["frequency_hz"]) * duration
        m = round(pos)
        if abs(pos - m) > 1e-6:
            raise CheckFailed(f"tone {tone['frequency_hz']} Hz is off the grid")
        value = components.get(m, 0.0)
        if not value > 0.0:
            raise CheckFailed(f"tone {tone['frequency_hz']} Hz: bin {m} is {value}")
        for other, other_value in components.items():
            if other != m and abs(other - m) <= NEIGHBOURHOOD_BINS and other_value >= value:
                raise CheckFailed(
                    f"tone bin {m} ({value}) does not exceed bin {other} ({other_value})"
                )


def check_fast_fm(out: Path, config: dict[str, Any]) -> None:
    """The trace reads back through ``read_trace`` with N non-negative counts."""
    from lockinsim.sampler import read_trace

    num_samples = config["schedule"]["num_samples"]
    try:
        trace = read_trace(out)
    except ValueError as exc:
        raise CheckFailed(f"read_trace: {exc}") from exc
    rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")][1:]
    counts = [int(row.rsplit(",", 1)[1]) for row in rows]
    if trace.num_samples != num_samples or len(counts) != num_samples:
        raise CheckFailed(f"{trace.num_samples} samples, expected {num_samples}")
    if min(counts) < 0 or trace.counts.tolist() != counts:
        raise CheckFailed("counts are negative or do not round-trip")
