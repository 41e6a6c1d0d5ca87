"""Run each workload once per seed and report how steady each metric is.

    python3 bench/validate.py [--workload NAME ...] [--out FILE]

Run from the root of a checkout. It runs every workload (or each one named)
at seeds 1 to 10, for ``run_seconds`` of ``BENCHMARK.json`` each.
For every workload and end-to-end metric it prints the median of the per-run
values, their first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is
(q3 - q1) / median, next to the bound in ``BENCHMARK.json``. ``--out`` also
writes every run's result and the summary as JSON. The exit code is 1 if any
run failed or any spread exceeds a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def main() -> int:
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in doc["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    report: dict = {"seconds": doc["run_seconds"], "workloads": {}}
    ok = True
    for name in args.workload or names:
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(doc["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result, info = json.loads(lines[-1]), json.loads(lines[-2])
            ok = ok and result["correct"]
            runs.append({"seed": seed, "result": result, "info": info})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()
            ), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bound, "runs": len(values)}
            steady = spread < bound / 3.0
            ok = ok and steady
            print(f"{name:15s} {metric:12s} median {median:10.4f} q1 {q1:10.4f} q3 {q3:10.4f}"
                  f" spread {spread:.4f} bound {bound}{'' if steady else '  NOT STEADY'}")
        report["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
