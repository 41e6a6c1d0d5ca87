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

Each command but ``simulate`` returns its JSON result, CSV header and CSV
columns (which may be None outside ``--format csv``); :func:`main` checks every
number of the result for finiteness, then writes it.

Exit codes: 0 success; 2 configuration/input errors, and a config whose
arrays do not fit in memory; 3 numerical failures (non-convergent fits, NNLS
cap, a non-finite value in any result field).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__
from ._io import canonical_json, csv_blocks
from .config import (
    ConfigError,
    RunConfig,
    build_readout,
    build_schedule,
    build_sequence,
    build_signal,
    config_hash,
    load_config,
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
from .lockin import CpmgSequence, phase_amplitude
from .readout import ReadoutModel
from .sampler import SamplingSchedule, run_sampling, undersampled_bin, write_trace
from .signal import AnySignal, expanded_tones, max_linewidth_hz
from .spectral import (
    FitError,
    PowerSpectrum,
    TargetPeak,
    average_spectra,
    default_noise_band,
    fit_lorentzian,
    locate_target_peak,
    measure_snr,
    power_spectrum,
    predicted_snr,
    scaling_study,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


CommandResult = tuple[dict[str, Any], Sequence[str], Sequence[Any] | None]


def _require_finite(value: Any, key: str = "result") -> None:
    """Raise FitError naming the dotted ``key`` of any non-finite number.

    A numeric array, or a list or tuple of plain numbers, is checked with
    one ``np.isfinite``; only its first bad entry gets a key.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise FitError(f"{key} is non-finite ({value})")
    elif isinstance(value, dict):
        for k, v in value.items():
            _require_finite(v, f"{key}.{k}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        flat = isinstance(value, np.ndarray) or all(isinstance(v, (int, float)) for v in value)
        array = np.asarray(value) if flat else None
        if array is not None and array.dtype.kind in "biuf":
            finite = np.isfinite(array)
            if not finite.all():
                bad = np.unravel_index(np.argmin(finite), array.shape)
                _require_finite(float(array[bad]), key + "".join(f".{i}" for i in bad))
        else:
            for i, v in enumerate(value):
                _require_finite(v, f"{key}.{i}")


def _models(config: RunConfig) -> tuple[AnySignal, CpmgSequence, ReadoutModel]:
    """The config's signal, CPMG sequence and readout model."""
    return build_signal(config), build_sequence(config), build_readout(config)


def _target_peak(
    config: RunConfig, spec: PowerSpectrum, f_target: float, signal: AnySignal
) -> TargetPeak:
    return locate_target_peak(
        spec,
        f_target,
        max_linewidth_hz(signal),
        window_bins=config.analysis.window_half_bins,
        window_linewidth_factor=config.analysis.window_linewidth_factor,
    )


def _target_snr(
    config: RunConfig,
    spec: PowerSpectrum,
    f_target: float,
    signal: AnySignal,
    seq: CpmgSequence,
    model: ReadoutModel,
) -> tuple[TargetPeak, dict[str, Any]]:
    """Locate the target peak, measure its SNR against the noise band and
    predict it: the report's fields and both predictions, as one dict.

    The band is guarded around the peak and around the folded bin of every
    tone of the signal, AM sidebands included, so no other line enters it.
    The prediction uses phi_max of the tone nearest the target frequency.
    """
    peak = _target_peak(config, spec, f_target, signal)
    tones = expanded_tones(signal)
    tone_bins = [
        undersampled_bin(t.frequency_hz, spec.sample_rate_hz, spec.num_samples)
        for t in tones
    ]
    target_tone = min(tones, key=lambda t: abs(t.frequency_hz - f_target))
    band = default_noise_band(
        spec,
        [peak.peak_bin, *tone_bins],
        linewidth_bins=max_linewidth_hz(signal) / spec.bin_width_hz,
        guard_linewidths=config.analysis.noise_guard_linewidths,
    )
    report = measure_snr(spec, peak.peak_bin, band, exact=config.analysis.exact_snr)
    phi_max, n = abs(phase_amplitude(target_tone, seq)), spec.num_samples
    return peak, dict(
        dataclasses.asdict(report),
        predicted_snr_ideal=predicted_snr(phi_max, n, model, depolarized=False),
        predicted_snr_depolarized=predicted_snr(phi_max, n, model, depolarized=True),
    )


def _emit(
    payload: dict[str, Any],
    fmt: str,
    out: str | None,
    csv_header: Sequence[str],
    csv_columns: Sequence[Any] | None,
) -> None:
    if fmt == "json":
        blocks: Iterable[bytes] = ((canonical_json(payload) + "\n").encode(),)
    else:
        header = (
            f"# tool_version={payload['tool_version']}",
            f"# config_sha256={payload['config_sha256']}",
            f"# command={payload['command']}",
            ",".join(csv_header),
        )
        blocks = csv_blocks(header, csv_columns)
    if out is None:
        sys.stdout.flush()
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:  # a text stream, such as io.StringIO
            sys.stdout.writelines(block.decode() for block in blocks)
        else:
            buffer.writelines(blocks)
    else:
        with open(out, "wb") as fh:
            fh.writelines(blocks)


def _simulate_trace(config: RunConfig, seed: int, threads: int):
    signal, seq, model = _models(config)
    sched = build_schedule(config, seq, model)
    trace = run_sampling(
        signal, seq, model, sched, np.random.SeedSequence(seed), num_threads=threads
    )
    return signal, seq, model, trace


def _wideband(config: RunConfig) -> tuple[WidebandGrid, np.ndarray, bool]:
    """The reconstruction grid, its support and whether the bands overlapped."""
    rcfg = config.reconstruction
    grid = WidebandGrid(duration_s=rcfg.duration_s, nyquist_rate_hz=rcfg.nyquist_rate_hz)
    return (grid, *support_from_bands(grid, rcfg.support_bands_hz))


def cmd_simulate(config: RunConfig, seed: int, out: str | None, threads: int, fmt: str) -> None:
    """Simulate a photon-count time trace and write it as CSV."""
    if fmt != "csv":
        raise ConfigError("simulate writes a CSV trace; use --format csv")
    if out is None:
        raise ConfigError("simulate requires --out (trace + metadata sidecar)")
    *_, trace = _simulate_trace(config, seed, threads)
    write_trace(trace, out)


def cmd_spectrum(
    config: RunConfig, seed: int, out: str | None, threads: int, fmt: str
) -> CommandResult:
    """Simulate a trace and report its power spectrum and SNR."""
    signal, seq, model, trace = _simulate_trace(config, seed, threads)
    spec = power_spectrum(trace)
    peak, result = _target_snr(
        config, spec, target_frequency_hz(config, signal), signal, seq, model
    )
    result.update(
        num_samples=spec.num_samples,
        bin_width_hz=spec.bin_width_hz,
        sample_rate_hz=spec.sample_rate_hz,
        expected_bin=peak.expected_bin,
    )
    columns = None
    if fmt == "csv":
        columns = (np.arange(spec.num_bins), spec.frequencies_hz, spec.power)
    return result, ("bin", "frequency_hz", "power"), columns


def cmd_fit(
    config: RunConfig, seed: int, out: str | None, threads: int, fmt: str
) -> CommandResult:
    """Fit a Lorentzian to the spectral peak near the target frequency."""
    signal, *_, trace = _simulate_trace(config, seed, threads)
    spec = power_spectrum(trace)
    f_target = target_frequency_hz(config, signal)
    peak = _target_peak(config, spec, f_target, signal)
    result = dataclasses.asdict(fit_lorentzian(spec, peak.window))
    del result["covariance"]
    result.update(target_frequency_hz=f_target, expected_bin=peak.expected_bin)
    header = ("center_hz", "width_hz", "amplitude", "offset", "sigma_center_hz")
    return result, header, [[result[k]] for k in header]


def cmd_snr_sweep(
    config: RunConfig, seed: int, out: str | None, threads: int, fmt: str
) -> CommandResult:
    """Measure SNR against the analytic law over a readout-depth sweep."""
    config.require("sweep")
    signal, seq, base_model = _models(config)
    sched = build_schedule(config, seq, base_model)
    f_target = target_frequency_hz(config, signal)
    reported = ("peak_bin", "measured_snr", "predicted_snr_ideal", "predicted_snr_depolarized")

    def point(idx: int, n: int) -> tuple:
        # The dead time stays fixed; the readout train sets the period. This
        # depth's trace, spectrum and noise band die before the next is drawn.
        model = dataclasses.replace(base_model, qnd_repetitions=n)
        seed_seq = np.random.SeedSequence((seed, idx))
        trace = run_sampling(signal, seq, model, sched, seed_seq, num_threads=threads)
        _, snr = _target_snr(config, power_spectrum(trace), f_target, signal, seq, model)
        return n, trace.sampling_period_s, *(snr[key] for key in reported)

    rows = [point(idx, n) for idx, n in enumerate(config.sweep.qnd_repetitions)]
    keys = ("qnd_repetitions", "sampling_period_s", *reported)
    result = {key: list(column) for key, column in zip(keys, zip(*rows))}
    return result, keys, tuple(result.values())


def cmd_scaling(
    config: RunConfig, seed: int, out: str | None, threads: int, fmt: str
) -> CommandResult:
    """Run the duration-scaling study of linewidth and center uncertainty."""
    config.require("scaling")
    signal, seq, model = _models(config)
    result = dataclasses.asdict(
        scaling_study(
            signal,
            seq,
            model,
            build_schedule(config, seq, model),
            config.scaling.num_samples_list,
            seed,
            seeds_per_point=config.scaling.seeds_per_point,
            window_bins=config.analysis.window_half_bins,
            window_linewidth_factor=config.analysis.window_linewidth_factor,
            target_frequency_hz=config.analysis.target_frequency_hz,
            num_threads=threads,
        )
    )
    result["resolved"] = result.pop("resolved_mask")
    keys = ("num_samples", "durations_s", "bin_width_hz", "width_hz", "sigma_center_hz", "resolved")
    header = ("num_samples", "duration_s", *keys[2:])
    return result, header, [result[k] for k in keys]


def cmd_reconstruct(
    config: RunConfig, seed: int, out: str | None, threads: int, fmt: str
) -> CommandResult:
    """Reconstruct the sparse wideband spectrum from multi-rate records."""
    config.require("reconstruction")
    rcfg = config.reconstruction
    signal, seq, model = _models(config)
    grid, support, overlapped = _wideband(config)

    spectra = []
    matrices = []
    for i, t_s in enumerate(rcfg.sampling_periods_s):
        n_i = grid.record_bins(1.0 / t_s)
        sched = SamplingSchedule.from_period(seq, model, t_s, n_i)
        records = []
        for r in range(rcfg.records_per_rate):
            trace = run_sampling(
                signal, seq, model, sched,
                np.random.SeedSequence((seed, i, r)), num_threads=threads,
            )
            records.append(power_spectrum(trace))
        spectra.append(average_spectra(records))
        matrices.append(build_sampling_matrix(spectra[-1].sample_rate_hz, n_i, grid, support))
    spectrum, diag = reconstruct(
        spectra, matrices, floor_subtraction=rcfg.floor_subtraction, tol=rcfg.nnls_tol
    )
    nonzero = spectrum.components > 0.0
    result = {
        "grid_bins": grid.num_bins,
        "resolution_hz": grid.resolution_hz,
        "support_bins": int(spectrum.support.size),
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
    header = ("wideband_bin", "frequency_hz", "component")
    columns = [result[k] for k in ("nonzero_bins", "nonzero_frequencies_hz", "nonzero_components")]
    return result, header, columns


def cmd_rate_design(
    config: RunConfig, seed: int, out: str | None, threads: int, fmt: str
) -> CommandResult:
    """Propose incoherent sampling rates and report their coherence."""
    config.require("rate_design")
    dcfg = config.rate_design
    if fmt == "csv" and out is None and config.reconstruction is not None:
        raise ConfigError(
            "rate-design --format csv with a reconstruction section requires --out "
            "(one matrix CSV per rate)"
        )
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
        grid, support, _ = _wideband(config)
        matrices = [
            build_sampling_matrix(f_s, grid.record_bins(f_s), grid, support) for f_s in rates
        ]
        report = coherence(matrices)
        result.update(
            coherence_mu=report.mu,
            num_zero_columns=report.num_zero_columns,
            num_columns=report.num_columns,
        )
        if fmt == "csv":
            _require_finite(result)  # write no sidecar for a result main refuses
            base = Path(out)
            for k, mat in enumerate(matrices):
                write_matrix_csv(mat, base.with_suffix(f".matrix{k}.csv"))
    header = ("sample_rate_hz", "sampling_period_s")
    return result, header, [result["sample_rates_hz"], result["sampling_periods_s"]]


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
    """One flat parser: the command is a positional choice, and every
    command takes the same five options."""
    summaries = ((name, (fn.__doc__ or "").partition("\n")[0]) for name, fn in _COMMANDS.items())
    commands = "\n".join(f"  {name:<12} {summary}" for name, summary in summaries)
    parser = argparse.ArgumentParser(
        prog="lockinsim",
        description="Quantum lock-in sampling simulator and analysis toolkit",
        epilog=f"commands:\n{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands below"
    )
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument(
        "--threads", type=int, default=1, help="worker threads for trace generation"
    )
    parser.add_argument(
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
        returned = _COMMANDS[args.command](config, seed, args.out, args.threads, args.fmt)
        if returned is not None:
            result, csv_header, csv_columns = returned
            _require_finite(result)
            payload = {
                "tool_version": __version__,
                "config_sha256": config_hash(config),
                "command": args.command,
                "result": result,
            }
            _emit(payload, args.fmt, args.out, csv_header, csv_columns)
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
    except MemoryError as exc:
        print(f"lockinsim: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
