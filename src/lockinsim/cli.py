"""Command-line interface.

Subcommands cover the batch workflow end to end: ``simulate`` (write a
sampled count trace), ``spectrum`` (power spectrum + SNR at the folded
target tone), ``fit`` (Lorentzian line fit), ``snr-sweep`` (SNR vs. QND
repetition count), ``scaling`` (linewidth / uncertainty vs. duration),
``reconstruct`` (multi-rate compressive wideband recovery), and
``rate-design`` (draw distinct sampling periods and report design
coherence). All randomness derives from the config's mandatory ``seed``
(overridable with ``--seed``); outputs embed the tool version and the
sha256 of the resolved configuration, floats are serialized via ``repr``
(shortest round trip), so identical runs produce byte-identical files.

Exit codes: 0 success; 2 configuration/input errors; 3 numerical failures
(non-convergent fits, NNLS cap, non-finite results).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from ._io import canonical_json
from .config import (
    ConfigError,
    RunConfig,
    build_readout,
    build_schedule,
    build_sequence,
    build_signal,
    config_hash,
    load_config,
    signal_linewidth_hz,
    target_frequency_hz,
)
from .csrecon import (
    NnlsError,
    WidebandGrid,
    build_sampling_matrix,
    coherence,
    design_rates,
    reconstruct,
    support_from_bands,
    write_matrix_csv,
)
from .lockin import phase_amplitude
from .readout import ReadoutModel
from .sampler import SamplingSchedule, run_sampling, undersampled_bin, write_trace
from .signal import AcSignal, CompositeSignal
from .spectral import (
    FitError,
    average_spectra,
    default_noise_band,
    find_peak_bin,
    fit_lorentzian,
    measure_snr,
    power_spectrum,
    scaling_study,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _require_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise FitError(f"{what} is non-finite ({value})")
    return value


def _strongest_phi_max(
    signal: AcSignal | CompositeSignal, seq
) -> float:
    tones = [t for g in signal.groups for t in g.tones]
    strongest = max(tones, key=lambda t: t.amplitude_rad_per_s)
    return abs(phase_amplitude(strongest, seq))


def _payload(config: RunConfig, command: str, result: dict[str, Any]) -> dict[str, Any]:
    return {
        "tool_version": __version__,
        "config_sha256": config_hash(config),
        "command": command,
        "result": result,
    }


def _emit(
    payload: dict[str, Any],
    fmt: str,
    out: str | None,
    csv_header: Sequence[str] | None = None,
    csv_rows: Sequence[Sequence[Any]] | None = None,
) -> None:
    if fmt == "json":
        text = canonical_json(payload) + "\n"
    else:
        if csv_header is None or csv_rows is None:
            raise ConfigError("this subcommand does not support --format csv")
        lines = [
            f"# tool_version={payload['tool_version']}",
            f"# config_sha256={payload['config_sha256']}",
            f"# command={payload['command']}",
            ",".join(csv_header),
        ]
        for row in csv_rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _simulate_trace(config: RunConfig, seed: int, threads: int):
    signal = build_signal(config)
    seq = build_sequence(config)
    model = build_readout(config)
    sched = build_schedule(config, seq, model)
    trace = run_sampling(
        signal, seq, model, sched, np.random.SeedSequence(seed), num_threads=threads
    )
    return signal, seq, model, sched, trace


def cmd_simulate(config: RunConfig, seed: int, out: str | None, threads: int, fmt: str) -> None:
    """Simulate a photon-count time trace and write it as CSV."""
    if fmt != "csv":
        raise ConfigError("simulate writes a CSV trace; use --format csv")
    if out is None:
        raise ConfigError("simulate requires --out (trace + metadata sidecar)")
    *_, trace = _simulate_trace(config, seed, threads)
    write_trace(trace, out)


def _analysis_window(config: RunConfig, bin_width_hz: float) -> int:
    """Half window in bins: fixed floor, widened with the intrinsic linewidth."""
    linewidth = signal_linewidth_hz(config)
    return max(
        config.analysis.window_half_bins,
        int(math.ceil(config.analysis.window_linewidth_factor * linewidth / bin_width_hz)),
    )


def cmd_spectrum(config: RunConfig, seed: int, out: str | None, threads: int, fmt: str) -> None:
    """Simulate a trace and report its power spectrum and SNR."""
    signal, seq, model, sched, trace = _simulate_trace(config, seed, threads)
    spec = power_spectrum(trace)
    f_target = target_frequency_hz(config)
    expected_bin = undersampled_bin(f_target, sched.sample_rate_hz, sched.num_samples)
    half = _analysis_window(config, spec.bin_width_hz)
    peak = find_peak_bin(
        spec, max(1, expected_bin - half), min(spec.num_bins, expected_bin + half + 1)
    )
    linewidth_bins = max(1.0, signal_linewidth_hz(config) / spec.bin_width_hz)
    band = default_noise_band(
        spec,
        [peak],
        linewidth_bins=linewidth_bins,
        guard_linewidths=config.analysis.noise_guard_linewidths,
    )
    report = measure_snr(
        spec,
        peak,
        band,
        model=model,
        phi_max=_strongest_phi_max(signal, seq),
        exact=config.analysis.exact_snr,
    )
    _require_finite(report.measured_snr, "measured SNR")
    result = {
        "num_samples": spec.num_samples,
        "bin_width_hz": spec.bin_width_hz,
        "sample_rate_hz": spec.sample_rate_hz,
        "expected_bin": expected_bin,
        "peak_bin": report.peak_bin,
        "peak_power": report.peak_power,
        "noise_mean": report.noise_mean,
        "noise_std": report.noise_std,
        "noise_band_bins": int(report.noise_band.size),
        "measured_snr": report.measured_snr,
        "predicted_snr_ideal": report.predicted_snr_ideal,
        "predicted_snr_depolarized": report.predicted_snr_depolarized,
        "exact": report.exact,
    }
    rows = [
        (j, j * spec.bin_width_hz, float(spec.power[j])) for j in range(spec.num_bins)
    ]
    _emit(
        _payload(config, "spectrum", result),
        fmt,
        out,
        csv_header=("bin", "frequency_hz", "power"),
        csv_rows=rows,
    )


def cmd_fit(config: RunConfig, seed: int, out: str | None, threads: int, fmt: str) -> None:
    """Fit a Lorentzian to the spectral peak near the target frequency."""
    _, _, _, sched, trace = _simulate_trace(config, seed, threads)
    spec = power_spectrum(trace)
    f_target = target_frequency_hz(config)
    expected_bin = undersampled_bin(f_target, sched.sample_rate_hz, sched.num_samples)
    half = _analysis_window(config, spec.bin_width_hz)
    peak = find_peak_bin(
        spec, max(1, expected_bin - half), min(spec.num_bins, expected_bin + half + 1)
    )
    lo = max(1, peak - half)
    hi = min(spec.num_bins, peak + half + 1)
    fit = fit_lorentzian(spec, (lo, hi))
    _require_finite(fit.center_hz, "fitted center")
    _require_finite(fit.sigma_center_hz, "fitted center uncertainty")
    result = {
        "window": list(fit.window),
        "center_hz": fit.center_hz,
        "width_hz": fit.width_hz,
        "amplitude": fit.amplitude,
        "offset": fit.offset,
        "sigma_center_hz": fit.sigma_center_hz,
        "sigma_res": fit.sigma_res,
        "n_iterations": fit.n_iterations,
        "converged": fit.converged,
        "target_frequency_hz": f_target,
        "expected_bin": expected_bin,
    }
    rows = [tuple(result[k] for k in ("center_hz", "width_hz", "amplitude", "offset", "sigma_center_hz"))]
    _emit(
        _payload(config, "fit", result),
        fmt,
        out,
        csv_header=("center_hz", "width_hz", "amplitude", "offset", "sigma_center_hz"),
        csv_rows=rows,
    )


def cmd_snr_sweep(config: RunConfig, seed: int, out: str | None, threads: int, fmt: str) -> None:
    """Measure SNR against the analytic law over a readout-depth sweep."""
    config.require("sweep")
    signal = build_signal(config)
    seq = build_sequence(config)
    base_model = build_readout(config)
    config.require("schedule")
    if config.schedule.dead_time_s is not None:
        dead_time = config.schedule.dead_time_s
    else:
        base_sched = build_schedule(config, seq, base_model)
        dead_time = base_sched.dead_time_s
    num_samples = config.schedule.num_samples
    f_target = target_frequency_hz(config)
    phi_max = _strongest_phi_max(signal, seq)

    rows = []
    for idx, n in enumerate(config.sweep.qnd_repetitions):
        model = dataclasses.replace(base_model, qnd_repetitions=n)
        sched = SamplingSchedule.from_components(
            seq,
            model,
            dead_time,
            num_samples,
            start_time_s=config.schedule.start_time_s,
            clock_jitter_std_s=config.schedule.clock_jitter_std_s,
        )
        trace = run_sampling(
            signal, seq, model, sched,
            np.random.SeedSequence((seed, idx)), num_threads=threads,
        )
        spec = power_spectrum(trace)
        expected_bin = undersampled_bin(f_target, sched.sample_rate_hz, num_samples)
        half = _analysis_window(config, spec.bin_width_hz)
        peak = find_peak_bin(
            spec, max(1, expected_bin - half), min(spec.num_bins, expected_bin + half + 1)
        )
        linewidth_bins = max(1.0, signal_linewidth_hz(config) / spec.bin_width_hz)
        band = default_noise_band(
            spec,
            [peak],
            linewidth_bins=linewidth_bins,
            guard_linewidths=config.analysis.noise_guard_linewidths,
        )
        report = measure_snr(
            spec, peak, band, model=model, phi_max=phi_max,
            exact=config.analysis.exact_snr,
        )
        _require_finite(report.measured_snr, f"measured SNR at n={n}")
        rows.append(
            (
                n,
                sched.sampling_period_s,
                report.peak_bin,
                report.measured_snr,
                report.predicted_snr_ideal,
                report.predicted_snr_depolarized,
            )
        )
    result = {
        "qnd_repetitions": [r[0] for r in rows],
        "sampling_period_s": [r[1] for r in rows],
        "peak_bin": [r[2] for r in rows],
        "measured_snr": [r[3] for r in rows],
        "predicted_snr_ideal": [r[4] for r in rows],
        "predicted_snr_depolarized": [r[5] for r in rows],
    }
    _emit(
        _payload(config, "snr-sweep", result),
        fmt,
        out,
        csv_header=(
            "qnd_repetitions",
            "sampling_period_s",
            "peak_bin",
            "measured_snr",
            "predicted_snr_ideal",
            "predicted_snr_depolarized",
        ),
        csv_rows=rows,
    )


def cmd_scaling(config: RunConfig, seed: int, out: str | None, threads: int, fmt: str) -> None:
    """Run the duration-scaling study of linewidth and center uncertainty."""
    config.require("scaling")
    signal = build_signal(config)
    seq = build_sequence(config)
    model = build_readout(config)
    config.require("schedule")
    if config.schedule.dead_time_s is not None:
        dead_time = config.schedule.dead_time_s
    else:
        dead_time = build_schedule(config, seq, model).dead_time_s
    result_obj = scaling_study(
        signal,
        seq,
        model,
        dead_time,
        config.scaling.num_samples_list,
        seed,
        seeds_per_point=config.scaling.seeds_per_point,
        window_bins=config.analysis.window_half_bins,
        window_linewidth_factor=config.analysis.window_linewidth_factor,
        target_frequency_hz=config.analysis.target_frequency_hz,
        num_threads=threads,
    )
    for w, s in zip(result_obj.width_hz, result_obj.sigma_center_hz):
        _require_finite(float(w), "fitted linewidth")
        _require_finite(float(s), "center uncertainty")
    result = {
        "durations_s": result_obj.durations_s.tolist(),
        "num_samples": result_obj.num_samples.tolist(),
        "bin_width_hz": result_obj.bin_width_hz.tolist(),
        "width_hz": result_obj.width_hz.tolist(),
        "sigma_center_hz": result_obj.sigma_center_hz.tolist(),
        "intrinsic_width_hz": result_obj.intrinsic_width_hz,
        "resolved": result_obj.resolved_mask.tolist(),
        "width_slope_unresolved": result_obj.width_slope_unresolved,
        "width_plateau_hz": result_obj.width_plateau_hz,
        "sigma_center_slope_unresolved": result_obj.sigma_center_slope_unresolved,
        "sigma_center_slope_resolved": result_obj.sigma_center_slope_resolved,
    }
    rows = [
        (int(n), float(t), float(b), float(w), float(s), bool(r))
        for n, t, b, w, s, r in zip(
            result_obj.num_samples,
            result_obj.durations_s,
            result_obj.bin_width_hz,
            result_obj.width_hz,
            result_obj.sigma_center_hz,
            result_obj.resolved_mask,
        )
    ]
    _emit(
        _payload(config, "scaling", result),
        fmt,
        out,
        csv_header=(
            "num_samples",
            "duration_s",
            "bin_width_hz",
            "width_hz",
            "sigma_center_hz",
            "resolved",
        ),
        csv_rows=rows,
    )


def cmd_reconstruct(config: RunConfig, seed: int, out: str | None, threads: int, fmt: str) -> None:
    """Reconstruct the sparse wideband spectrum from multi-rate records."""
    config.require("reconstruction")
    rcfg = config.reconstruction
    signal = build_signal(config)
    seq = build_sequence(config)
    model = build_readout(config)
    grid = WidebandGrid(duration_s=rcfg.duration_s, nyquist_rate_hz=rcfg.nyquist_rate_hz)
    support, overlapped = support_from_bands(grid, rcfg.support_bands_hz)

    spectra = []
    matrices = []
    for i, t_s in enumerate(rcfg.sampling_periods_s):
        n_i = int(math.floor(rcfg.duration_s / t_s + 1e-9))
        sched = SamplingSchedule.from_period(seq, model, t_s, n_i)
        records = []
        for r in range(rcfg.records_per_rate):
            trace = run_sampling(
                signal, seq, model, sched,
                np.random.SeedSequence((seed, i, r)), num_threads=threads,
            )
            records.append(power_spectrum(trace))
        spectra.append(average_spectra(records))
        matrices.append(
            build_sampling_matrix(sched.sample_rate_hz, n_i, grid, support)
        )
    floor = None if rcfg.floor_subtraction == "none" else rcfg.floor_subtraction
    spectrum, diag = reconstruct(
        spectra, matrices, floor_subtraction=floor, tol=rcfg.nnls_tol
    )
    nonzero = spectrum.components > 0.0
    result = {
        "grid_bins": grid.num_bins,
        "resolution_hz": grid.resolution_hz,
        "support_bins": int(support.size),
        "support_bands_overlap": overlapped,
        "nonzero_bins": spectrum.support[nonzero].tolist(),
        "nonzero_frequencies_hz": spectrum.frequencies_hz[nonzero].tolist(),
        "nonzero_components": spectrum.components[nonzero].tolist(),
        "nnls_iterations": diag.iterations,
        "residual_norm": diag.residual_norm,
        "rows_used": diag.rows_used,
        "floor_estimates": diag.floor_estimates.tolist(),
        "num_dc_coupled_columns": diag.num_dc_coupled_columns,
    }
    rows = [
        (int(b), float(f), float(x))
        for b, f, x in zip(
            spectrum.support[nonzero],
            spectrum.frequencies_hz[nonzero],
            spectrum.components[nonzero],
        )
    ]
    _emit(
        _payload(config, "reconstruct", result),
        fmt,
        out,
        csv_header=("wideband_bin", "frequency_hz", "component"),
        csv_rows=rows,
    )


def cmd_rate_design(config: RunConfig, seed: int, out: str | None, threads: int, fmt: str) -> None:
    """Propose incoherent sampling rates and report their coherence."""
    config.require("rate_design")
    dcfg = config.rate_design
    rates = design_rates(
        dcfg.num_rates,
        dcfg.base_period_s,
        dcfg.max_extra_s,
        seed,
        time_grid_s=dcfg.time_grid_s,
    )
    result: dict[str, Any] = {
        "sample_rates_hz": rates.tolist(),
        "sampling_periods_s": (1.0 / rates).tolist(),
    }
    if config.reconstruction is not None:
        rcfg = config.reconstruction
        grid = WidebandGrid(
            duration_s=rcfg.duration_s, nyquist_rate_hz=rcfg.nyquist_rate_hz
        )
        support, _ = support_from_bands(grid, rcfg.support_bands_hz)
        matrices = [
            build_sampling_matrix(
                f_s, int(math.floor(rcfg.duration_s * f_s + 1e-9)), grid, support
            )
            for f_s in rates
        ]
        report = coherence(matrices)
        result.update(
            {
                "coherence_mu": report.mu,
                "num_zero_columns": report.num_zero_columns,
                "num_columns": report.num_columns,
            }
        )
        if out is not None and fmt == "csv":
            base = Path(out)
            for k, mat in enumerate(matrices):
                write_matrix_csv(mat, base.with_suffix(f".matrix{k}.csv"))
    rows = [(float(r), float(1.0 / r)) for r in rates]
    _emit(
        _payload(config, "rate-design", result),
        fmt,
        out,
        csv_header=("sample_rate_hz", "sampling_period_s"),
        csv_rows=rows,
    )


_COMMANDS = {
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "fit": cmd_fit,
    "snr-sweep": cmd_snr_sweep,
    "scaling": cmd_scaling,
    "reconstruct": cmd_reconstruct,
    "rate-design": cmd_rate_design,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lockinsim",
        description="Quantum lock-in sampling simulator and analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__ or name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument(
            "--seed", type=int, default=None, help="override the config seed"
        )
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument(
            "--threads", type=int, default=1, help="worker threads for trace generation"
        )
        p.add_argument(
            "--format", choices=("csv", "json"), default="json", dest="fmt",
            help="output format (simulate: csv only)",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else config.seed
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        _COMMANDS[args.command](config, seed, args.out, args.threads, args.fmt)
    except ConfigError as exc:
        print(f"lockinsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"lockinsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, NnlsError) as exc:
        print(f"lockinsim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"lockinsim: invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
