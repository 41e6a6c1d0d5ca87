"""Benchmark of the ``lockinsim`` command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ``./src``.
A workload is one ``lockinsim`` command on a fixed config, with ``--seed N``
passed through unless the workload keeps its config's seed. Each iteration
runs it in a fresh interpreter (``bench/child.py``): the child first imports
``lockinsim.cli`` and loads the config (``setup_s``, timed from process
start), then runs the command (``run_s``). Iterations repeat, one at a
time, while the next one is expected to end within ``--seconds`` (at least
two, so that determinism can be checked); the end-to-end metrics are the
medians over the iterations that passed.

Every iteration's output is checked (``bench/checks.py``) and must be
byte-identical to the first iteration's. An iteration that exits non-zero,
fails its check or differs counts in ``failed``.

With ``--trace 1`` untraced and traced iterations alternate; the traced ones
time each layer through ``bench/tracer.py`` and the result holds the
per-layer metrics (medians over traced iterations) instead, with
``trace.overhead_s`` = traced minus untraced median ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the per-iteration values. ``--workload all``
runs every workload and prints each end-to-end metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import checks

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
#: Metric names by mode (0: end to end, 1: traced) and the unit of each.
METRICS = {
    0: [m["name"] for m in SPEC["end_to_end"]],
    1: [m["name"] for m in SPEC["per_layer"]],
}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Every run ends well within the 180 s a run may take.
HARD_LIMIT_S = 165.0


def child_env(root: Path) -> dict[str, str]:
    """Environment of a measured process: the checkout's source, one BLAS thread.

    Only the NNLS of wideband_recon calls BLAS. On two shared cores its
    second BLAS thread made the same solve slower and far less steady
    (14.3-15.5 s against 9.7-11.0 s per run), and the solution's last
    digits depend on the BLAS thread count.
    """
    return dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the checkout root
    argv: tuple[str, ...]
    out: str
    check: Callable[[Path, dict[str, Any]], None]
    #: Pass ``--seed`` through to the command. The NNLS work of a
    #: reconstruction depends on the noise draw (6.6-11.3 s over seeds 1-10),
    #: so wideband_recon keeps its config's seed and its cost stays fixed.
    seeded: bool = True


WORKLOADS = {
    "sweep_json": Workload(
        "configs/gain_sweep.yaml",
        ("snr-sweep", "--threads", "1"),
        "sweep.json",
        checks.check_sweep_json,
    ),
    "hour_csv": Workload(
        "configs/am_sidebands_hour.yaml",
        ("spectrum", "--format", "csv", "--threads", "2"),
        "spectrum.csv",
        checks.check_hour_csv,
    ),
    "wideband_recon": Workload(
        "bench/configs/wideband_recon.yaml",
        ("reconstruct",),
        "recon.json",
        checks.check_wideband_recon,
        seeded=False,
    ),
    "fast_fm": Workload(
        "bench/configs/fast_fm.yaml",
        ("simulate", "--format", "csv"),
        "trace.csv",
        checks.check_fast_fm,
    ),
}


def command_argv(wl: Workload, out: Path, seed: int) -> list[str]:
    """The ``lockinsim`` arguments of one iteration that writes ``out``."""
    argv = [*wl.argv, "--config", wl.config, "--out", str(out)]
    if wl.seeded:
        argv += ["--seed", str(seed)]
    return argv


@contextlib.contextmanager
def scratch_dir(root: Path, prefix: str) -> Iterator[Path]:
    """A fresh directory under ``<root>/.bench_tmp``, removed afterwards."""
    parent = root / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path)
        if not any(parent.iterdir()):
            parent.rmdir()


def has_source(root: Path) -> bool:
    """Whether ``root`` is a checkout holding the ``lockinsim`` source."""
    if (root / "src" / "lockinsim" / "__init__.py").is_file():
        return True
    print(f"bench: no lockinsim source under {root / 'src'}", file=sys.stderr)
    return False


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name != "child.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _iteration(
    root: Path, work: Path, index: int, wl: Workload, seed: int, trace: bool, timeout: float
) -> tuple[dict[str, Any] | None, str | None, str]:
    """Run one child; return (child result, output digest, error or "")."""
    it_dir = work / f"it{index}"
    it_dir.mkdir()
    result_path = it_dir / "child.json"
    env = child_env(root)
    spawn = time.monotonic()
    cmd = [
        sys.executable, str(CHILD), "--spawn", repr(spawn), "--trace", str(int(trace)),
        "--result", str(result_path), "--", *command_argv(wl, it_dir / wl.out, seed),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {timeout:.0f} s"
    try:
        if proc.returncode != 0 or not result_path.exists():
            return None, None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        result = json.loads(result_path.read_text())
        try:
            wl.check(it_dir / wl.out, checks.load_yaml(root / wl.config))
        except checks.CheckFailed as exc:
            return result, None, f"check failed: {exc}"
        return result, _digest(it_dir), ""
    finally:
        shutil.rmtree(it_dir)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Measure one workload; return the result object plus an ``info`` record."""
    wl = WORKLOADS[name]
    loadavg = os.getloadavg()
    plain: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    errors: list[str] = []
    first_digest = None
    attempted = failed = 0
    durations: list[float] = []
    start = time.monotonic()
    with scratch_dir(root, f"{name}-") as work:
        while True:
            with_trace = trace and attempted % 2 == 1
            elapsed = time.monotonic() - start
            t0 = time.monotonic()
            result, digest, error = _iteration(
                root, work, attempted, wl, seed, with_trace, HARD_LIMIT_S - elapsed
            )
            durations.append(time.monotonic() - t0)
            attempted += 1
            if first_digest is None:
                first_digest = digest
            elif digest is not None and digest != first_digest:
                error = "output differs from the first iteration's"
            if error:
                failed += 1
                errors.append(f"iteration {attempted - 1}: {error}")
                print(f"{name}: iteration {attempted - 1}: {error}", file=sys.stderr)
            else:
                (traced if with_trace else plain).append(result)
            elapsed = time.monotonic() - start
            longest = max(durations)
            enough = len(plain) >= (1 if trace else 2) and (not trace or traced)
            if result is None or elapsed + longest > HARD_LIMIT_S:
                break
            if enough and elapsed + longest > seconds:
                break

    metrics = {}
    if trace and traced:
        metrics = {k: _median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - _median(
            [r["run_s"] for r in plain]
        )
    elif not trace and plain:
        metrics = {k: _median([r[k] for r in plain]) for k in METRICS[0]}
    if metrics and sorted(metrics) != sorted(METRICS[int(trace)]):
        raise RuntimeError(
            f"measured metrics {sorted(metrics)} differ from BENCHMARK.json's "
            f"{sorted(METRICS[int(trace)])}"
        )
    samples = plain + traced
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loadavg_start": loadavg,
        "env": samples[0]["env"] if samples else None,
        "phase_method": sorted({m for r in traced for m in r.get("phase_method", [])}),
        "iterations": {k: [r[k] for r in plain] for k in METRICS[0]},
        "traced_run_s": [r["run_s"] for r in traced],
        "errors": errors,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not has_source(root):
        return 2
    # checks.check_fast_fm reads the trace back with the checkout's own reader.
    sys.path.insert(0, str(root / "src"))

    if args.workload == "all":
        all_ok = True
        for name in WORKLOADS:
            res = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            all_ok = all_ok and res["correct"] and bool(res["metrics"])
            for metric, value in res["metrics"].items():
                print(f"{name:15s} {metric:48s} {value:14.6f} {UNITS[metric]}")
            print(f"{name:15s} {'error_rate':48s} {res['failed'] / res['attempted']:14.6f} ratio")
            print(json.dumps(res["info"]), file=sys.stderr)
        return 0 if all_ok else 1

    res = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(res.pop("info")))
    if not res["metrics"]:
        print(f"bench: {args.workload}: no iteration produced a measurement", file=sys.stderr)
        return 1
    res["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in res["metrics"].items()}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
