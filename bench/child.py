"""One measured iteration of a benchmark workload, in a fresh interpreter.

    python3 bench/child.py --spawn T --trace 0|1 --result OUT.json -- <lockinsim argv>

Run from the root of a checkout. The process imports ``lockinsim.cli`` from
``./src`` and loads the config named by ``--config`` (setup), then runs
``lockinsim.cli.main(argv)`` (the command). ``--spawn`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start-up too. With ``--trace 1`` the command runs under
:class:`tracer.Tracer` and the result also holds the per-layer metrics.
Timings, peak RSS and the environment are written to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any

from tracer import Tracer


def _size(args: tuple[Any, ...], result: Any) -> dict[str, int]:
    return {"samples": int(getattr(result, "size", 1))}


def _run_sampling_counts(args: tuple[Any, ...], trace: Any) -> dict[str, Any]:
    from lockinsim.sampler import CHUNK_SAMPLES

    n = trace.num_samples
    return {
        "samples": n,
        "chunks": -(-n // CHUNK_SAMPLES),
        "phase_method": trace.metadata["phase_method"],
    }


def _nnls_counts(args: tuple[Any, ...], result: Any) -> dict[str, int]:
    x, info = result
    return {"iterations": info.iterations, "nonzero": int((x > 0.0).sum())}


#: (owner, attribute, span name, counter, keep result). The owner is the
#: module or class through which the caller looks the function up, so the
#: patch is seen by that caller.
PATCHES = [
    ("lockinsim.cli", "load_config", "config.load_config", None, False),
    ("lockinsim.cli", "run_sampling", "sampler.run_sampling", _run_sampling_counts, False),
    ("lockinsim.spectral", "run_sampling", "sampler.run_sampling", _run_sampling_counts, False),
    ("lockinsim.cli", "write_trace", "sampler.write_trace", None, False),
    ("lockinsim.sampler", "phase_closed_form", "lockin.phase_closed_form", _size, False),
    ("lockinsim.sampler", "phase_by_integration", "lockin.phase_by_integration", _size, False),
    ("lockinsim.sampler", "transition_probability", "lockin.transition_probability", _size, False),
    ("lockinsim.sampler", "sample_counts", "readout.sample_counts", _size, False),
    (
        "lockinsim.sampler",
        "materialize_fm_noise",
        "signal.materialize_fm_noise",
        lambda args, path: {"nodes": path.psi_rad.size},
        False,
    ),
    ("lockinsim.lockin", "evaluate", "signal.evaluate", None, False),
    (
        "lockinsim.signal:PhaseNoisePath",
        "phase_at",
        "signal.PhaseNoisePath.phase_at",
        lambda args, psi: {"nodes": args[0].psi_rad.size},
        False,
    ),
    (
        "lockinsim.cli",
        "power_spectrum",
        "spectral.power_spectrum",
        lambda args, spec: {"points": spec.num_samples},
        False,
    ),
    (
        "lockinsim.spectral",
        "power_spectrum",
        "spectral.power_spectrum",
        lambda args, spec: {"points": spec.num_samples},
        False,
    ),
    ("lockinsim.cli", "measure_snr", "spectral.measure_snr", None, False),
    (
        "lockinsim.cli",
        "build_sampling_matrix",
        "csrecon.build_sampling_matrix",
        lambda args, mat: {"nnz": mat.matrix.nnz},
        True,
    ),
    ("lockinsim.cli", "reconstruct", "csrecon.reconstruct", None, True),
    ("lockinsim.csrecon", "nnls_active_set", "csrecon.nnls_active_set", _nnls_counts, False),
]


def _owner(path: str) -> Any:
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(tracer: Tracer) -> None:
    for owner, attr, name, counter, keep in PATCHES:
        tracer.patch(_owner(owner), attr, name, counter, keep)


def _arg(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _extras(argv: list[str], config: Any, tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers measured after the traced command, outside run_s."""
    import numpy as np
    from lockinsim import config as cfg
    from lockinsim.csrecon import coherence
    from lockinsim.sampler import run_sampling

    out: dict[str, float] = {}
    matrices = tracer.kept.get("csrecon.build_sampling_matrix", [])
    if len(matrices) >= 2:
        start = time.perf_counter()
        coherence(matrices)
        out["coherence_s"] = time.perf_counter() - start

    for spectrum, _diag in tracer.kept.get("csrecon.reconstruct", []):
        grid = spectrum.grid
        signal = cfg.build_signal(config)
        groups = getattr(signal, "groups", (signal,))
        tone_bins = {grid.bin_of(t.frequency_hz) for g in groups for t in g.tones}
        true_bins = tone_bins | {grid.conjugate_bin(m) for m in tone_bins}
        comps = dict(zip(spectrum.support.tolist(), spectrum.components.tolist()))
        nonzero = {m: v for m, v in comps.items() if v > 0.0}
        useful = [v for m, v in nonzero.items() if m in true_bins]
        spurious = [v for m, v in nonzero.items() if m not in true_bins]
        weakest = min(comps.get(m, 0.0) for m in true_bins)
        out["useful_ratio"] = len(useful) / len(nonzero) if nonzero else 0.0
        out["spurious_ratio"] = (max(spurious) / weakest) if spurious and weakest > 0 else 0.0

    # Thread-pool payoff: only meaningful when the command itself ran the
    # sampler with more than one thread.
    threads = int(_arg(argv, "--threads", "1"))
    if threads > 1 and config.schedule is not None:
        seq = cfg.build_sequence(config)
        model = cfg.build_readout(config)
        sched = cfg.build_schedule(config, seq, model)
        signal = cfg.build_signal(config)
        seed = int(_arg(argv, "--seed", str(config.seed)))
        best = {1: math.inf, threads: math.inf}
        for _ in range(2):
            for k in best:
                start = time.perf_counter()
                run_sampling(
                    signal, seq, model, sched, np.random.SeedSequence(seed), num_threads=k
                )
                best[k] = min(best[k], time.perf_counter() - start)
        out["thread_speedup"] = best[1] / best[threads]
    return out


def layer_metrics(
    summ: dict[str, dict[str, Any]], run_s: float, timings: dict[str, float], extras: dict[str, float]
) -> dict[str, float]:
    """The per-layer metrics, 0 for a layer the workload never reaches."""

    def get(name: str, key: str = "s") -> float:
        return float(summ.get(name, {}).get(key, 0.0))

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    nnls_s = get("csrecon.nnls_active_set")
    nnls_iters = get("csrecon.nnls_active_set", "iterations")
    integ_s = get("lockin.phase_by_integration")
    phase_at_calls = get("signal.PhaseNoisePath.phase_at", "calls")
    main = summ["cli.main"]
    return {
        "csrecon.nnls_active_set.s": nnls_s,
        "csrecon.nnls_active_set.share": per(nnls_s, run_s),
        "csrecon.nnls.iterations": nnls_iters,
        "csrecon.nnls.s_per_iteration": per(nnls_s, nnls_iters),
        "csrecon.nnls.nonzero": get("csrecon.nnls_active_set", "nonzero"),
        "csrecon.nnls.useful_ratio": extras.get("useful_ratio", 0.0),
        "csrecon.spurious_ratio": extras.get("spurious_ratio", 0.0),
        "csrecon.build_sampling_matrix.s": get("csrecon.build_sampling_matrix"),
        "csrecon.matrix_nnz": get("csrecon.build_sampling_matrix", "nnz"),
        "csrecon.reconstruct.self_s": get("csrecon.reconstruct", "self_s"),
        "csrecon.coherence.s": extras.get("coherence_s", 0.0),
        "lockin.phase_closed_form.s": get("lockin.phase_closed_form"),
        "lockin.phase_closed_form.ns_per_sample": per(
            get("lockin.phase_closed_form"), get("lockin.phase_closed_form", "samples"), 1e9
        ),
        "lockin.transition_probability.s": get("lockin.transition_probability"),
        "readout.sample_counts.s": get("readout.sample_counts"),
        "readout.sample_counts.ns_per_sample": per(
            get("readout.sample_counts"), get("readout.sample_counts", "samples"), 1e9
        ),
        "lockin.phase_by_integration.s": integ_s,
        "lockin.phase_by_integration.us_per_sample": per(
            integ_s, get("lockin.phase_by_integration", "samples"), 1e6
        ),
        "lockin.phase_by_integration.share": per(integ_s, run_s),
        "signal.evaluate.s": get("signal.evaluate"),
        "signal.PhaseNoisePath.phase_at.s": get("signal.PhaseNoisePath.phase_at"),
        "signal.PhaseNoisePath.phase_at.calls": phase_at_calls,
        "signal.PhaseNoisePath.phase_at.nodes_per_call": per(
            get("signal.PhaseNoisePath.phase_at", "nodes"), phase_at_calls
        ),
        "signal.materialize_fm_noise.s": get("signal.materialize_fm_noise"),
        "signal.materialize_fm_noise.nodes": get("signal.materialize_fm_noise", "nodes"),
        "spectral.power_spectrum.s": get("spectral.power_spectrum"),
        "spectral.power_spectrum.ns_per_point": per(
            get("spectral.power_spectrum"), get("spectral.power_spectrum", "points"), 1e9
        ),
        "spectral.fft_points": get("spectral.power_spectrum", "points"),
        "spectral.measure_snr.s": get("spectral.measure_snr"),
        "sampler.run_sampling.self_s": get("sampler.run_sampling", "self_s"),
        "sampler.samples": get("sampler.run_sampling", "samples"),
        "sampler.chunks": get("sampler.run_sampling", "chunks"),
        "sampler.thread_speedup": extras.get("thread_speedup", 0.0),
        "sampler.write_trace.s": get("sampler.write_trace"),
        "cli.main.self_s": float(main["self_s"]),
        "config.load_config.s": timings["load_config_s"],
        "setup.import_s": timings["import_s"],
        "trace.run_s": run_s,
        "trace.covered_share": per(main["s"] - main["self_s"], main["s"]),
    }


def _blas() -> dict[str, Any]:
    """Name, version and thread count of the BLAS numpy links against."""
    import numpy as np

    info: dict[str, Any] = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return info
    info["name"], info["version"] = blas.get("name"), blas.get("version")
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    t0 = time.monotonic()
    import lockinsim.cli as cli

    t1 = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"lockinsim imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    config = cli.load_config(_arg(argv, "--config"))
    t2 = time.monotonic()
    timings = {"setup_s": t2 - args.spawn, "import_s": t1 - t0, "load_config_s": t2 - t1}

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
    start = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span("cli.main"):
                code = cli.main(argv)
        else:
            code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.restore()
    run_s = time.perf_counter() - start
    result: dict[str, Any] = {
        "exit": code,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **timings,
    }
    if tracer is not None and code == 0:
        summ = tracer.summary()
        result["layers"] = layer_metrics(summ, run_s, timings, _extras(argv, config, tracer))
        result["phase_method"] = summ.get("sampler.run_sampling", {}).get("phase_method", [])
    result["env"] = environment()
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
