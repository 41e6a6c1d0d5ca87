"""End-to-end tests of the command-line interface and YAML configuration."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import lockinsim
from lockinsim import __version__, csrecon, spectral
from lockinsim import cli as cli_module
from lockinsim import config as config_module
from lockinsim import sampler as sampler_module
from lockinsim._io import CSV_BLOCK_ROWS, csv_blocks
from lockinsim.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, _COMMANDS, _emit, main
from lockinsim.config import ConfigError, config_hash, load_config
from lockinsim.lockin import nonlinear_spectrum_prediction
from lockinsim.sampler import read_trace, undersampled_bin
from lockinsim.spectral import FitError

from .helpers import REPO_ROOT, short_wideband_config, str_csv_blocks, str_csv_bytes

BASE_CONFIG = {
    "seed": 42,
    "signal": {
        "tones": [
            {
                "frequency_hz": 1.2e6,
                "amplitude_rad_per_s": 117809.72450700928,  # phase amplitude 0.5
                "phase_rad": 0.6,
            }
        ]
    },
    "cpmg": {"pulse_count": 16, "tau_s": 1.0 / 2.4e6},
    "readout": {"qnd_repetitions": 260, "contrast": 0.35},
    "schedule": {"num_samples": 2000, "dead_time_s": 5.0e-4},
}


#: BASE_CONFIG's tone plus a weaker one (phase amplitude 0.3) that folds 222
#: bins away in an 8000-sample record, far outside the 10-bin peak guard.
TWO_TONES = {
    "signal": {
        "tones": BASE_CONFIG["signal"]["tones"]
        + [{"frequency_hz": 1.2e6 + 25.0, "amplitude_rad_per_s": 70685.83, "phase_rad": 0.2}]
    },
    "schedule": {"num_samples": 8000, "dead_time_s": 5.0e-4},
}


def write_config(tmp_path, overrides=None, name="run.yaml", drop=()):
    cfg = copy.deepcopy(BASE_CONFIG)
    for key in drop:
        cfg.pop(key, None)
    cfg.update(overrides or {})  # overrides replace whole sections
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestLoadConfig:
    def test_loads_the_base_document(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.seed == 42
        assert config.cpmg.pulse_count == 16
        assert config.schedule.dead_time_s == pytest.approx(5.0e-4)

    def test_missing_seed_names_the_field(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, drop=("seed",)))

    def test_unknown_keys_are_rejected_with_dotted_paths(self, tmp_path):
        path = write_config(tmp_path, {"readout": {"bogus_knob": 1}})
        with pytest.raises(ConfigError, match=r"readout\.bogus_knob"):
            load_config(path)

    def test_rejects_yaml_syntax_errors(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)

    def test_rejects_non_mapping_documents(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.yaml")

    def test_tone_amplitude_is_exactly_one_of_two_forms(self, tmp_path):
        tone = {"frequency_hz": 1.0e6, "phase_rad": 0.0}
        path = write_config(tmp_path, {"signal": {"tones": [tone]}})
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)
        tone_both = dict(
            tone, amplitude_rad_per_s=1.0, field_amplitude_tesla=1e-9
        )
        path = write_config(tmp_path, {"signal": {"tones": [tone_both]}})
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_cpmg_timing_is_exactly_one_of_two_forms(self, tmp_path):
        path = write_config(
            tmp_path,
            {"cpmg": {"pulse_count": 16, "tau_s": 1e-6, "lockin_frequency_hz": 5e5}},
        )
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_schedule_period_is_exactly_one_of_two_forms(self, tmp_path):
        path = write_config(
            tmp_path,
            {"schedule": {"num_samples": 100, "dead_time_s": 1e-4, "sampling_period_s": 2e-3}},
        )
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_signal_groups_exclude_top_level_tones(self, tmp_path):
        group = {"tones": [{"frequency_hz": 1e6, "amplitude_rad_per_s": 1.0}]}
        cfg_both = {"signal": dict(BASE_CONFIG["signal"], groups=[group])}
        with pytest.raises(ConfigError, match="not both"):
            load_config(write_config(tmp_path, cfg_both))

    @pytest.mark.parametrize("text", ["1200000.0", "1.2e6", "1200000"])
    def test_exponent_text_and_ints_read_as_floats(self, tmp_path, text):
        # YAML 1.1 reads 1.2e6 (no sign in the exponent) as a string.
        dumped = yaml.safe_dump(BASE_CONFIG)
        assert "frequency_hz: 1200000.0" in dumped
        path = tmp_path / "run.yaml"
        path.write_text(dumped.replace("frequency_hz: 1200000.0", f"frequency_hz: {text}"))
        config = load_config(path)
        assert type(config.signal.tones[0].frequency_hz) is float
        assert config_hash(config) == config_hash(load_config(write_config(tmp_path)))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seed": True}, r"^seed: expected an integer, got True"),
            (
                {"schedule": {"num_samples": True, "dead_time_s": 5.0e-4}},
                r"^schedule\.num_samples: expected an integer",
            ),
            (
                {"readout": {"qnd_repetitions": 260, "contrast": 0.35,
                             "readout_unit_time_s": float("inf")}},
                r"^readout\.readout_unit_time_s: expected a finite number, got inf",
            ),
            (
                {"cpmg": {"pulse_count": 16, "tau_s": float("nan")}},
                r"^cpmg\.tau_s: expected a finite number",
            ),
            ({"analysis": {"exact_snr": "yes"}}, r"^analysis\.exact_snr: expected true or false"),
            ({"readout": [260, 0.35]}, r"^readout: expected a mapping, got list"),
            (
                {"readout": {"qnd_repetitions": 260, "contrast": 1.5}},
                r"^readout: contrast must be in \(0, 1\), got 1\.5",
            ),
            (
                {"signal": dict(BASE_CONFIG["signal"],
                                am={"mod_frequency_hz": 1.0, "mod_depth": 2})},
                r"^signal\.am: am\.mod_depth must be in \[0, 1\], got 2\.0",
            ),
            (
                {"scaling": {"num_samples_list": [4130, 160030]}},
                r"^scaling: num_samples_list needs >= 4 points per decade, got 1\.26$",
            ),
            (
                {"scaling": {"num_samples_list": [4130, 5230.5]}},
                r"^scaling\.num_samples_list\[1\]: expected an integer, got 5230\.5$",
            ),
            (
                {"rate_design": {"num_rates": 3, "base_period_s": 1.0e-3,
                                 "max_extra_s": 1.0e10, "time_grid_s": 1.0e-10}},
                r"^rate_design: max_extra_s / time_grid_s must be in \[0, ",
            ),
            (
                {"rate_design": {"num_rates": 3, "base_period_s": 1.0e-3,
                                 "max_extra_s": 1.0e-7, "time_grid_s": 1.0e-7}},
                r"^rate_design: time grid too coarse for the requested number of rates$",
            ),
        ],
        ids=["bool-seed", "bool-int", "inf", "nan", "quoted-yes", "list-section",
             "readout-bound", "am-bound", "sparse-ladder", "fractional-ladder",
             "level-overflow", "too-few-levels"],
    )
    def test_rejects_values_naming_their_dotted_path(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, overrides))

    def test_reconstruction_grid_is_built_at_load(self, tmp_path):
        recon = dict(reconstruction_config()["reconstruction"], nyquist_rate_hz=1.0)
        with pytest.raises(ConfigError, match=r"^reconstruction: num_bins must be >= 2, got 1$"):
            load_config(write_config(tmp_path, {"reconstruction": recon}))

    def test_field_amplitude_tones_build(self, tmp_path):
        tone = {"frequency_hz": 601254.7, "field_amplitude_tesla": 1.7e-7}
        config = load_config(write_config(tmp_path, {"signal": {"tones": [tone]}}))
        built = config.signal.build()
        # 170 nT at the electron gyromagnetic ratio: ~2 pi x 4.76 kHz.
        assert built.tones[0].amplitude_rad_per_s == pytest.approx(
            2.0 * np.pi * 4760.0, rel=0.01
        )


class TestConfigHash:
    def test_stable_and_sensitive(self, tmp_path):
        a = config_hash(load_config(write_config(tmp_path, name="a.yaml")))
        b = config_hash(load_config(write_config(tmp_path, name="b.yaml")))
        c = config_hash(load_config(write_config(tmp_path, {"seed": 43}, name="c.yaml")))
        assert a == b
        assert a != c
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    def test_explicit_defaults_hash_like_omitted_ones(self, tmp_path):
        implicit = load_config(write_config(tmp_path, name="i.yaml"))
        explicit = load_config(
            write_config(
                tmp_path, {"analysis": {"exact_snr": False}}, name="e.yaml"
            )
        )
        assert config_hash(implicit) == config_hash(explicit)


def run_json(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    return json.loads(captured.out)


class TestSpectrumCommand:
    def test_json_payload_and_expected_bin(self, tmp_path, capsys):
        path = write_config(tmp_path)
        payload = run_json(["spectrum", "--config", str(path)], capsys)
        assert payload["tool_version"] == __version__
        assert payload["command"] == "spectrum"
        assert payload["config_sha256"] == config_hash(load_config(path))
        result = payload["result"]
        assert result["num_samples"] == 2000
        t_s = result["sample_rate_hz"] ** -1
        oracle = undersampled_bin(1.2e6, 1.0 / t_s, 2000)
        assert result["expected_bin"] == oracle
        assert abs(result["peak_bin"] - result["expected_bin"]) <= 2
        assert result["measured_snr"] > 10.0
        assert result["predicted_snr_ideal"] > 10.0
        assert result["noise_band_bins"] > 100

    def test_result_keys(self, tmp_path, capsys):
        path = write_config(tmp_path)
        result = run_json(["spectrum", "--config", str(path)], capsys)["result"]
        assert set(result) == {
            "measured_snr", "predicted_snr_ideal", "predicted_snr_depolarized",
            "peak_bin", "peak_power", "noise_mean", "noise_std", "noise_band_bins",
            "exact", "num_samples", "bin_width_hz", "sample_rate_hz", "expected_bin",
        }

    def test_noise_band_excludes_a_second_tone_outside_the_peak_guard(self, tmp_path, capsys):
        # Left in the band, the second tone's line would inflate the spread
        # of the exponential floor (std/mean = 1).
        path = write_config(tmp_path, TWO_TONES)
        result = run_json(["spectrum", "--config", str(path)], capsys)["result"]
        assert result["peak_bin"] == result["expected_bin"]
        assert 0.9 <= result["noise_std"] / result["noise_mean"] <= 1.1

    def test_prediction_uses_the_targeted_tone(self, tmp_path, capsys):
        predicted = []
        for f_target in (1.2e6, 1.2e6 + 25.0):
            overrides = dict(TWO_TONES, analysis={"target_frequency_hz": f_target})
            path = write_config(tmp_path, overrides)
            result = run_json(["spectrum", "--config", str(path)], capsys)["result"]
            predicted.append(result["predicted_snr_ideal"])
        # SNR goes as phi_max^2, and phi_max as the tone amplitude (the
        # 25 Hz detuning moves phi_max by 2e-5 relative).
        ratio = (70685.83 / 117809.72450700928) ** 2
        assert predicted[1] / predicted[0] == pytest.approx(ratio, rel=1e-4)

    def test_csv_spectrum_lists_every_bin(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "spec.csv"
        code = main(
            ["spectrum", "--config", str(path), "--format", "csv", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# tool_version=")
        assert lines[1].startswith("# config_sha256=")
        assert lines[3] == "bin,frequency_hz,power"
        rows = [line.split(",") for line in lines[4:]]
        assert len(rows) == 1001  # one-sided bins of a 2000-sample record
        assert [int(r[0]) for r in rows[:3]] == [0, 1, 2]
        assert all(float(r[2]) >= 0.0 for r in rows)


class TestSimulateCommand:
    def test_writes_trace_and_sidecar(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "trace.csv"
        code = main(
            ["simulate", "--config", str(path), "--format", "csv", "--out", str(out)]
        )
        assert code == EXIT_OK
        trace = read_trace(out)
        assert trace.num_samples == 2000
        assert trace.metadata["seed"] == 42
        assert trace.metadata["tool_version"] == __version__

    def test_requires_out_and_csv(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--format", "csv"]) == EXIT_CONFIG
        assert "requires --out" in capsys.readouterr().err
        out = tmp_path / "trace.csv"
        assert (
            main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        )
        assert "csv" in capsys.readouterr().err


class TestFitCommand:
    def test_fit_fields_are_finite_and_converged(self, tmp_path, capsys):
        path = write_config(tmp_path)
        result = run_json(["fit", "--config", str(path)], capsys)["result"]
        assert result["converged"] is True
        for key in ("center_hz", "width_hz", "amplitude", "offset", "sigma_center_hz"):
            assert np.isfinite(result[key])
        lo, hi = result["window"]
        t_s = 16 / 2.4e6 + 260 * 2.32e-6 + 5.0e-4
        bin_width = 1.0 / (2000 * t_s)
        assert lo * bin_width <= result["center_hz"] <= hi * bin_width
        assert lo <= result["expected_bin"] <= hi

    def test_csv_fit_single_row(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["fit", "--config", str(path), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[3] == "center_hz,width_hz,amplitude,offset,sigma_center_hz"
        assert len(lines) == 5
        assert all(np.isfinite(float(v)) for v in lines[4].split(","))


class TestSnrSweepCommand:
    def test_sweep_rows_and_fixed_dead_time(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "sweep": {"qnd_repetitions": [130, 260]},
                "schedule": {"num_samples": 1500, "dead_time_s": 5.0e-4},
            },
        )
        result = run_json(["snr-sweep", "--config", str(path)], capsys)["result"]
        assert result["qnd_repetitions"] == [130, 260]
        periods = result["sampling_period_s"]
        # Dead time is held fixed, so the period grows with the readout train.
        assert periods[1] - periods[0] == pytest.approx(130 * 2.32e-6, rel=1e-9)
        assert all(s > 0.0 for s in result["measured_snr"])
        assert len(result["peak_bin"]) == 2

    def test_result_keys_and_csv_header(self, tmp_path, capsys):
        path = write_config(tmp_path, {"sweep": {"qnd_repetitions": [130, 260]}})
        keys = [
            "qnd_repetitions", "sampling_period_s", "peak_bin", "measured_snr",
            "predicted_snr_ideal", "predicted_snr_depolarized",
        ]
        result = run_json(["snr-sweep", "--config", str(path)], capsys)["result"]
        assert sorted(result) == sorted(keys)
        out = tmp_path / "sweep.csv"
        assert main(["snr-sweep", "--config", str(path), "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[3] == ",".join(keys)

    def test_sampling_period_fixes_the_dead_time_at_the_base_depth(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "sweep": {"qnd_repetitions": [130, 260, 498]},
                "schedule": {"num_samples": 1500, "sampling_period_s": 1.2e-3},
            },
        )
        result = run_json(["snr-sweep", "--config", str(path)], capsys)["result"]
        periods = result["sampling_period_s"]
        # The configured period holds at the config's own depth (260); the
        # dead time it implies is then kept across the sweep.
        assert periods[1] == pytest.approx(1.2e-3, rel=1e-12)
        assert periods[1] - periods[0] == pytest.approx(130 * 2.32e-6, rel=1e-9)
        assert periods[2] - periods[1] == pytest.approx(238 * 2.32e-6, rel=1e-9)

    def test_depth_above_the_count_cap_exits_2_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        path = write_config(tmp_path, {"sweep": {"qnd_repetitions": [260, 50_000_000_000]}})
        simulated = []
        monkeypatch.setattr(cli_module, "run_sampling", lambda *a, **k: simulated.append(a))
        assert main(["snr-sweep", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: sweep.qnd_repetitions[1]: " in err
        assert "qnd_repetitions * gain_slope_photons must be in [0, 4294967296]" in err
        assert simulated == []

    def test_full_sweep_peaks_as_one_depth_does(self, capsys):
        # Each depth's trace, spectrum and noise band die before the next
        # depth is sampled, so the six depths need about the memory of one.
        # A sweep takes at least two depths; `spectrum` does one depth's
        # work (simulate, FFT, SNR) at the config's own depth.
        path = str(REPO_ROOT / "configs" / "gain_sweep.yaml")

        def peak_bytes(command):
            tracemalloc.start()
            try:
                run_json([command, "--config", path], capsys)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes("snr-sweep") <= 1.1 * peak_bytes("spectrum")

    def test_requires_the_sweep_section(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["snr-sweep", "--config", str(path)]) == EXIT_CONFIG
        assert "sweep" in capsys.readouterr().err


class TestScalingCommand:
    @staticmethod
    def scaling_config(tmp_path, **schedule):
        return write_config(
            tmp_path,
            {
                "signal": {
                    "tones": [
                        {
                            "frequency_hz": 1.2e6,
                            "amplitude_rad_per_s": 58904.86225350464,
                            "phase_rad": 0.7,
                        }
                    ]
                },
                "cpmg": {"pulse_count": 32, "tau_s": 1.0 / 2.4e6},
                "readout": {"qnd_repetitions": 498, "contrast": 0.35},
                "schedule": {
                    "num_samples": 4130, "sampling_period_s": 20160.31 / 1.2e6, **schedule
                },
                "scaling": {"num_samples_list": [4130, 5230, 6730], "seeds_per_point": 2},
            },
        )

    def test_reports_the_duration_ladder(self, tmp_path, capsys):
        path = self.scaling_config(tmp_path)
        result = run_json(["scaling", "--config", str(path)], capsys)["result"]
        assert result["num_samples"] == [4130, 5230, 6730]
        assert len(result["durations_s"]) == 3
        assert result["intrinsic_width_hz"] == 0.0
        assert result["resolved"] == [False, False, False]
        assert result["width_slope_unresolved"] is not None
        assert result["width_plateau_hz"] is None
        assert all(np.isfinite(w) for w in result["width_hz"])
        assert all(s > 0 for s in result["sigma_center_hz"])

    def test_every_point_runs_the_configured_schedule(self, tmp_path, capsys, monkeypatch):
        # Each point keeps the config's start time and clock jitter; only
        # its sample count changes.
        path = self.scaling_config(tmp_path, start_time_s=12345.0, clock_jitter_std_s=1.0e-12)
        seen = []

        def spy(signal, seq, model, sched, rng, **kwargs):
            seen.append(sched)
            return sampler_module.run_sampling(signal, seq, model, sched, rng, **kwargs)

        monkeypatch.setattr(spectral, "run_sampling", spy)
        run_json(["scaling", "--config", str(path)], capsys)
        assert [s.num_samples for s in seen] == [4130, 4130, 5230, 5230, 6730, 6730]
        assert {(s.start_time_s, s.clock_jitter_std_s) for s in seen} == {(12345.0, 1.0e-12)}

    def test_requires_the_scaling_section(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["scaling", "--config", str(path)]) == EXIT_CONFIG
        assert "scaling" in capsys.readouterr().err

    def test_a_too_sparse_ladder_is_refused_at_load_by_every_command(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scaling": {"num_samples_list": [4130, 160030]}})
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: scaling: num_samples_list needs >= 4 points" in err


def reconstruction_config():
    """A one-second wideband grid with a 1 kHz resonant tone and two rates."""
    return {
        "seed": 7,
        "signal": {
            "tones": [
                {
                    "frequency_hz": 1000.0,
                    "amplitude_rad_per_s": 58.9048622535,  # phase amplitude ~0.3
                    "phase_rad": 0.4,
                }
            ]
        },
        "cpmg": {"pulse_count": 16, "tau_s": 1.0 / 2000.0},
        "readout": {"qnd_repetitions": 260, "contrast": 0.35},
        "schedule": {"num_samples": 66, "sampling_period_s": 1.0 / 66.0},
        "reconstruction": {
            "nyquist_rate_hz": 4096.0,
            "duration_s": 1.0,
            "sampling_periods_s": [1.0 / 79.0, 1.0 / 66.0],
            "records_per_rate": 2,
            "support_bands_hz": [[995.0, 1005.0]],
        },
    }


class TestReconstructCommand:
    def test_recovers_the_resonant_tone_bin(self, tmp_path, capsys):
        path = tmp_path / "recon.yaml"
        path.write_text(yaml.safe_dump(reconstruction_config()))
        payload = run_json(["reconstruct", "--config", str(path)], capsys)
        result = payload["result"]
        assert result["grid_bins"] == 4096
        assert result["support_bins"] == 22  # 11 band bins + 11 conjugates
        assert not result["support_bands_overlap"]
        assert 1000 in result["nonzero_bins"]
        assert 3096 in result["nonzero_bins"]  # the conjugate image
        components = dict(zip(result["nonzero_bins"], result["nonzero_components"]))
        assert components[1000] == max(components.values())
        assert result["rows_used"] > 0
        assert len(result["floor_estimates"]) == 2

    def test_requires_the_reconstruction_section(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["reconstruct", "--config", str(path)]) == EXIT_CONFIG
        assert "reconstruction" in capsys.readouterr().err

    def test_grid_size_overflow_exits_2_naming_both_fields(self, tmp_path, capsys):
        # 1e200 * 1e200 overflows to inf; round(inf) used to raise OverflowError.
        cfg = reconstruction_config()
        cfg["reconstruction"].update(duration_s=1.0e200, nyquist_rate_hz=1.0e200)
        path = tmp_path / "recon.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["reconstruct", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "duration_s * nyquist_rate_hz must be finite" in err


    def test_subnormal_sampling_period_exits_2_naming_the_record_length(self, tmp_path, capsys):
        # 1 / 1e-320 overflows to inf; floor(inf) used to raise OverflowError.
        cfg = reconstruction_config()
        cfg["reconstruction"]["sampling_periods_s"] = [1.0e-320, 1.0 / 66.0]
        path = tmp_path / "recon.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["reconstruct", "--config", str(path)]) == EXIT_CONFIG
        assert "duration_s * sample_rate_hz must be finite" in capsys.readouterr().err


class TestRateDesignCommand:
    @staticmethod
    def design_config(tmp_path, reconstruction=None, **rate_design):
        cfg = reconstruction_config()
        cfg["reconstruction"].update(reconstruction or {})
        cfg["rate_design"] = {
            "num_rates": 3,
            "base_period_s": 1.0 / 79.0,
            "max_extra_s": 2.0e-3,
            "time_grid_s": 1.0e-5,
            **rate_design,
        }
        path = tmp_path / "design.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return path

    @pytest.mark.parametrize("max_extra_s", [1.0e300, 1.0e10])
    def test_level_count_overflow_exits_2_naming_the_ratio(self, tmp_path, capsys, max_extra_s):
        # 1e310 levels overflow to inf, and 1e20 levels do not fit the int64 draw.
        path = self.design_config(tmp_path, max_extra_s=max_extra_s, time_grid_s=1.0e-10)
        assert main(["rate-design", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: rate_design: max_extra_s / time_grid_s must be" in err

    @pytest.mark.parametrize("command", ["reconstruct", "rate-design"])
    def test_band_without_a_grid_bin_exits_2(self, tmp_path, capsys, command):
        path = self.design_config(tmp_path, reconstruction={"support_bands_hz": [[995.1, 995.3]]})
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "invalid input: band (995.1, 995.3) holds no bin of the 1.0 Hz grid" in captured.err
        assert captured.out == ""

    def test_unallocatable_support_exits_2_out_of_memory(self, tmp_path, capsys):
        # The support is 5e16 int64 bins: 355 PiB, more than any address space
        # and less than numpy's 2**63-byte limit, so the allocation is refused
        # at once with a MemoryError and nothing is allocated.
        wide = {"duration_s": 1.0e12, "nyquist_rate_hz": 2.5e6,
                "support_bands_hz": [[1.0e6, 1.05e6]]}
        path = self.design_config(tmp_path, reconstruction=wide)
        assert main(["rate-design", "--config", str(path)]) == EXIT_CONFIG
        assert "lockinsim: out of memory: " in capsys.readouterr().err

    def test_support_too_wide_for_coherence_exits_2_naming_the_bands(
        self, tmp_path, capsys, monkeypatch
    ):
        # The shipped bands with the first widened down to 3 Hz: 804 696
        # columns, whose dense Gram blocks would take about 400 s. The
        # support is refused before any of the seven matrices is built.
        cfg = yaml.safe_load((REPO_ROOT / "configs" / "wideband_recovery.yaml").read_text())
        cfg["reconstruction"]["support_bands_hz"][0][0] = 3.0
        path = tmp_path / "wide.yaml"
        path.write_text(yaml.safe_dump(cfg))
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return csrecon.build_sampling_matrix(*args, **kwargs)

        monkeypatch.setattr(cli_module, "build_sampling_matrix", counted)
        assert main(["rate-design", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "invalid input: coherence of 804696 support columns" in captured.err
        assert "narrow support_bands_hz" in captured.err
        assert captured.out == ""
        assert built == []

    def test_reports_rates_and_design_coherence(self, tmp_path, capsys):
        path = self.design_config(tmp_path)
        result = run_json(["rate-design", "--config", str(path)], capsys)["result"]
        rates = result["sample_rates_hz"]
        assert len(rates) == 3
        assert rates == sorted(rates, reverse=True)
        assert 0.0 <= result["coherence_mu"] <= 1.0
        assert result["num_columns"] == 11

    def test_writes_matrix_sidecars_in_csv_mode(self, tmp_path, capsys):
        path = self.design_config(tmp_path, num_rates=2)
        out = tmp_path / "design.csv"
        code = main(
            ["rate-design", "--config", str(path), "--format", "csv", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert out.exists()
        assert (tmp_path / "design.matrix0.csv").exists()
        assert (tmp_path / "design.matrix1.csv").exists()

    def test_csv_with_matrix_sidecars_requires_out(self, tmp_path, capsys):
        path = self.design_config(tmp_path, num_rates=2)
        code = main(["rate-design", "--config", str(path), "--format", "csv"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "requires --out" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [path]

    def test_coherence_is_omitted_without_a_reconstruction_section(
        self, tmp_path, capsys
    ):
        path = write_config(
            tmp_path,
            {
                "rate_design": {
                    "num_rates": 2,
                    "base_period_s": 1.0e-3,
                    "max_extra_s": 1.0e-4,
                }
            },
        )
        result = run_json(["rate-design", "--config", str(path)], capsys)["result"]
        assert "coherence_mu" not in result
        assert len(result["sample_rates_hz"]) == 2


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["spectrum", "--config", str(path), "--out", str(out_a)]) == EXIT_OK
        assert main(["spectrum", "--config", str(path), "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_thread_count_does_not_change_results(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "t1.json", tmp_path / "t4.json"
        assert (
            main(["spectrum", "--config", str(path), "--out", str(out_a), "--threads", "1"])
            == EXIT_OK
        )
        assert (
            main(["spectrum", "--config", str(path), "--out", str(out_b), "--threads", "4"])
            == EXIT_OK
        )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_data_not_config_hash(self, tmp_path, capsys):
        path = write_config(tmp_path)
        base = run_json(["spectrum", "--config", str(path)], capsys)
        other = run_json(["spectrum", "--config", str(path), "--seed", "43"], capsys)
        assert base["config_sha256"] == other["config_sha256"]
        assert base["result"]["peak_power"] != other["result"]["peak_power"]


class TestExitCodes:
    def test_config_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.yaml"
        assert main(["spectrum", "--config", str(missing)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_mean_gain_above_2_to_the_32_photons_exits_2(self, tmp_path, capsys):
        readout = {"qnd_repetitions": 5_000_000_000, "contrast": 0.35, "gain_slope_photons": 1.0}
        path = write_config(tmp_path, {"readout": readout})
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG
        assert "readout: qnd_repetitions * gain_slope_photons must be in [0, 4294967296]" in (
            capsys.readouterr().err
        )

    def test_bad_thread_count_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["spectrum", "--config", str(path), "--threads", "0"]) == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "no_such_dir" / "x.json"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "i/o error" in capsys.readouterr().err

    def test_fm_path_too_long_for_memory_exits_2_before_allocating(self, tmp_path, capsys):
        signal = copy.deepcopy(BASE_CONFIG["signal"])
        signal["fm"] = {"linewidth_hz": 1.0, "rng_seed": 5, "correlation_time_s": 1e-12}
        path = write_config(tmp_path, {"signal": signal})
        out = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(path), "--format", "csv", "--out", str(out)])
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert peak_bytes < 2**26  # no path array was allocated
        err = capsys.readouterr().err
        assert "correlation_time_s" in err and "nodes" in err

    def test_fm_correlation_time_whose_square_overflows_exits_2(self, tmp_path, capsys):
        signal = copy.deepcopy(BASE_CONFIG["signal"])
        signal["fm"] = {"linewidth_hz": 1.0, "rng_seed": 5, "correlation_time_s": 1e200}
        path = write_config(tmp_path, {"signal": signal})
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG
        assert "fm.correlation_time_s = 1e+200 s is too long" in capsys.readouterr().err

    def test_fm_step_moments_that_overflow_exit_2_naming_both_fields(self, tmp_path, capsys):
        # sigma_f^2 tau_c^2 overflows while tau_c^2 does not: the path used
        # to lose its residual variance silently and the run exited 0.
        cfg = yaml.safe_load((REPO_ROOT / "configs" / "broadened_pair.yaml").read_text())
        fm = cfg["signal"]["groups"][1]["fm"]
        fm.update(linewidth_hz=1.0e160, correlation_time_s=1.0e154)
        path = tmp_path / "overflow.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "t.csv"
        argv = ["simulate", "--config", str(path), "--format", "csv", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "fm.linewidth_hz = 1e+160" in err and "fm.correlation_time_s = 1e+154" in err
        assert not out.exists()

    def test_numerical_failures_exit_3(self, tmp_path, capsys, monkeypatch):
        def explode(config, seed, out, threads, fmt):
            raise FitError("synthetic non-convergence")

        monkeypatch.setitem(_COMMANDS, "fit", explode)
        path = write_config(tmp_path)
        assert main(["fit", "--config", str(path)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_reconstruction_exits_3_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        def nan_residual(*args, **kwargs):
            spectrum, diag = csrecon.reconstruct(*args, **kwargs)
            return spectrum, dataclasses.replace(diag, residual_norm=np.nan)

        monkeypatch.setattr("lockinsim.cli.reconstruct", nan_residual)
        out = tmp_path / "recon.json"
        argv = ["reconstruct", "--config", str(short_wideband_config(tmp_path))]
        assert main([*argv, "--out", str(out)]) == EXIT_NUMERICAL
        assert "residual_norm" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_rate_design_exits_3_and_writes_no_sidecar(
        self, tmp_path, capsys, monkeypatch
    ):
        def nan_mu(matrices):
            return dataclasses.replace(csrecon.coherence(matrices), mu=np.nan)

        monkeypatch.setattr("lockinsim.cli.coherence", nan_mu)
        config = short_wideband_config(tmp_path)
        out = tmp_path / "design.csv"
        argv = ["rate-design", "--config", str(config), "--format", "csv", "--out", str(out)]
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "lockinsim: numerical failure: result.coherence_mu is non-finite (nan)\n"
        )
        assert list(tmp_path.iterdir()) == [config]

    def test_non_finite_fitted_width_exits_3(self, tmp_path, capsys, monkeypatch):
        def nan_width(*args, **kwargs):
            return dataclasses.replace(spectral.fit_lorentzian(*args, **kwargs), width_hz=np.nan)

        monkeypatch.setattr("lockinsim.cli.fit_lorentzian", nan_width)
        out = tmp_path / "fit.json"
        argv = ["fit", "--config", str(write_config(tmp_path)), "--out", str(out)]
        assert main(argv) == EXIT_NUMERICAL
        assert "width_hz" in capsys.readouterr().err
        assert not out.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_help_lists_every_command_with_its_summary(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name, fn in _COMMANDS.items():
            assert f"{name:<12} {fn.__doc__.splitlines()[0]}" in out

    @pytest.mark.parametrize("argv", [[], ["--config", "x.yaml"], ["bogus", "--config", "x.yaml"]])
    def test_missing_or_unknown_command_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "command" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lockinsim.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout


class TestCsvOutput:
    def test_numpy_scalars_print_as_plain_numbers(self, tmp_path):
        # Under numpy 2, repr(np.float64(0.5)) is "np.float64(0.5)".
        payload = {"tool_version": __version__, "config_sha256": "0", "command": "t"}
        out = tmp_path / "x.csv"
        _emit(
            payload,
            "csv",
            str(out),
            csv_header=("a", "b"),
            csv_columns=([np.float64(0.5)], [np.int64(3)]),
        )
        assert out.read_text().splitlines()[-1] == "0.5,3"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_text_stdout_gets_the_same_text(self, tmp_path, fmt):
        # io.StringIO has no binary buffer, as under contextlib.redirect_stdout.
        argv = ["spectrum", "--config", str(write_config(tmp_path)), "--format", fmt]
        out = tmp_path / f"spectrum.{fmt}"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(argv) == EXIT_OK
        assert text.getvalue() == out.read_text()

    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
    def test_blocks_join_to_the_whole_text(self, rows):
        header = ("# a=1", "k,x")
        columns = (np.arange(rows), np.random.default_rng(rows).normal(size=rows))
        blocks = list(csv_blocks(header, columns))
        assert [block.decode() for block in blocks] == list(str_csv_blocks(header, columns))
        assert len(blocks) == 1 + -(-rows // CSV_BLOCK_ROWS)

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--config", "configs/am_sidebands_hour.yaml", "--threads", "2"],
            ["spectrum", "--config", "configs/broadened_pair.yaml"],
            ["spectrum", "--config", "configs/gain_sweep.yaml"],
            ["simulate", "--config", "configs/gain_sweep.yaml"],
            ["rate-design", "--config", "configs/wideband_recovery.yaml"],
        ],
        ids=["spectrum-hour", "spectrum-broadened", "spectrum-gain", "simulate", "rate-design"],
    )
    def test_shipped_configs_write_the_str_oracle_bytes(self, argv, tmp_path, monkeypatch):
        # Every CSV a command writes (its output, trace and matrix files)
        # must equal the cell-by-cell str writer on the same columns.
        expected = []

        def spy(header, columns):
            expected.append(str_csv_bytes(header, columns))
            return csv_blocks(header, columns)

        for module in (cli_module, sampler_module, csrecon):
            monkeypatch.setattr(module, "csv_blocks", spy)
        argv = [*argv, "--format", "csv", "--out", str(tmp_path / "out.csv")]
        argv[2] = str(REPO_ROOT / argv[2])
        assert main(argv) == EXIT_OK
        written = [p.read_bytes() for p in tmp_path.glob("*.csv")]
        assert len(written) == len(expected) >= 1
        assert sorted(written) == sorted(expected)

    def test_spectrum_csv_to_stdout_and_out_file_is_the_same_bytes(self, tmp_path, capsysbinary):
        path = write_config(tmp_path, {"schedule": {"num_samples": 70000, "dead_time_s": 5e-4}})
        out = tmp_path / "spec.csv"
        args = ["spectrum", "--config", str(path), "--format", "csv"]
        assert main([*args, "--out", str(out)]) == EXIT_OK
        assert main(args) == EXIT_OK
        text = out.read_bytes()
        assert capsysbinary.readouterr().out == text
        assert text.count(b"\n") == 4 + 70000 // 2 + 1


def run_python(argv, **env):
    """Run ``python argv`` on this checkout's package with extra ``env``."""
    src = str(Path(lockinsim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportGraph:
    # scipy.sparse alone cost every command about 0.17 s, 249 modules and
    # 11.5 MB at start-up; no command needs any scipy module.
    @staticmethod
    def scipy_modules(loaded):
        return sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))

    @staticmethod
    def start_up_modules():
        """Modules loaded by importing the CLI and loading a config."""
        config = TestShippedConfigs.CONFIG_DIR / "gain_sweep.yaml"
        code = (
            "import sys\n"
            "import lockinsim.cli, lockinsim.config\n"
            f"lockinsim.config.load_config({str(config)!r})\n"
            "print(' '.join(sys.modules))\n"
        )
        return set(run_python(["-c", code]).split())

    def test_cli_start_up_loads_no_scipy_module(self):
        loaded = self.start_up_modules()
        assert "lockinsim.cli" in loaded
        assert self.scipy_modules(loaded) == []

    def test_harmonic_prediction_runs_with_scipy_blocked(self):
        # None in sys.modules makes any scipy import raise ImportError.
        phis = (0.0, 1.8, 14.0)
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from lockinsim.lockin import nonlinear_spectrum_prediction as predict\n"
            f"lines = [predict(phi, 1.0e6) for phi in {phis!r}]\n"
            "print(json.dumps([[line.amplitude for line in each] for each in lines]))\n"
        )
        lines = [nonlinear_spectrum_prediction(phi, 1.0e6) for phi in phis]
        expected = [[line.amplitude for line in each] for each in lines]
        assert json.loads(run_python(["-c", code])) == expected

    def test_cli_start_up_loads_no_pydantic_module(self):
        # The config loader needs no validation library.
        roots = {"pydantic", "pydantic_core", "annotated_types"}
        assert [m for m in self.start_up_modules() if m.split(".")[0] in roots] == []

    def test_fit_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.median imports numpy.ma (15 ms) on first use; fit needs nothing from it.
        argv = ["fit", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "f.json")]
        code = (
            "import sys\n"
            "from lockinsim.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(' '.join(sys.modules))\n"
        )
        loaded = set(run_python(["-c", code]).split())
        assert "lockinsim.spectral" in loaded
        assert "numpy.ma" not in loaded

    def test_reconstruct_and_rate_design_load_no_scipy_module(self, tmp_path):
        config = str(short_wideband_config(tmp_path))
        code = (
            "import sys\n"
            "from lockinsim.cli import main\n"
            "for command in ('reconstruct', 'rate-design'):\n"
            f"    out = {str(tmp_path)!r} + '/' + command + '.json'\n"
            f"    assert main([command, '--config', {config!r}, '--out', out]) == 0\n"
            "print(' '.join(sys.modules))\n"
        )
        loaded = set(run_python(["-c", code]).split())
        assert "lockinsim.csrecon" in loaded
        assert self.scipy_modules(loaded) == []
        # np.unique and np.median import numpy.ma (15 ms) on first use.
        assert "numpy.ma" not in loaded


class TestBlasThreadCount:
    def test_reconstruct_writes_the_same_bytes_with_one_and_two_threads(self, tmp_path):
        # The NNLS mat-vecs run through numpy's BLAS.
        config = str(short_wideband_config(tmp_path))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"recon_{threads}.json"
            argv = ["-m", "lockinsim.cli", "reconstruct", "--config", config, "--out", str(out)]
            run_python(argv, OPENBLAS_NUM_THREADS=threads)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


#: config_sha256 of every shipped and benchmark config, as each payload
#: records it: these pin the loader's canonical form of a config.
CONFIG_HASHES = {
    "am_sidebands_hour.yaml": "dfbea245ca75b862549674d656eacd8c9c583be0a528e74c4eb66f9087a5650a",
    "broadened_pair.yaml": "781b439c637cf11861ef490b1b6ad799f936af303a48c0097b2ba67debf4a82b",
    "gain_sweep.yaml": "eab440926da4bfb39c6e368c3f258028e1794ed968678f8d9c234777b58ab70e",
    "wideband_recovery.yaml": "f8a4079caa8cc3eb41aaf96f9cc6ac3064c08e316a50cff992e3cf65e62931da",
    "fast_fm.yaml": "0fc64f74ff72ce3737b9693497fe12665a36b98d058584f39fd2e1e37769dde7",
    "wideband_recon.yaml": "72c196a4070b14d00105a38155bb33da72034ac4f8f26a5cc85b2d5e4538c8f1",
}


class TestShippedConfigs:
    """Every shipped and benchmark configuration loads to its pinned hash."""

    CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
    BENCH_CONFIG_DIR = CONFIG_DIR.parent / "bench" / "configs"

    @pytest.mark.parametrize("name", list(CONFIG_HASHES))
    def test_loads_and_hashes_stably(self, name):
        path = self.CONFIG_DIR / name
        if not path.exists():
            path = self.BENCH_CONFIG_DIR / name
        config = load_config(path)
        assert config.seed is not None
        assert config_hash(config) == CONFIG_HASHES[name]

    @pytest.mark.parametrize(
        "path",
        sorted(CONFIG_DIR.glob("*.yaml")) + sorted(BENCH_CONFIG_DIR.glob("*.yaml")),
        ids=lambda path: path.name,
    )
    def test_libyaml_and_pure_python_loaders_give_equal_configs(self, path, monkeypatch):
        loaded = []
        for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
            monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
            loaded.append(load_config(path))
        assert loaded[0] == loaded[1]

    def test_the_directory_ships_exactly_the_documented_set(self):
        found = sorted(p.name for p in self.CONFIG_DIR.glob("*.yaml"))
        assert found == [
            "am_sidebands_hour.yaml",
            "broadened_pair.yaml",
            "gain_sweep.yaml",
            "wideband_recovery.yaml",
        ]
