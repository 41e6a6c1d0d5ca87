"""Show that each workload's correctness check passes on real output and
fails on corrupted output.

    python3 bench/selftest.py

Run from the root of a checkout. For every workload this runs the command
once, with the arguments a benchmark run at seed 1 gives it, requires its
check to pass, then applies each corruption below to a copy of the output and
requires the check to fail. It also shows that the determinism digest changes
when one output byte changes, and that the tracer's self times stay
non-negative when a span's children run on two threads. Exits 0 when every
expectation holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

import checks
from run import WORKLOADS, _digest, child_env, command_argv, has_source, scratch_dir
from tracer import Tracer


def _edit_json(path: Path, edit: Callable[[dict], None]) -> None:
    doc = json.loads(path.read_text())
    edit(doc["result"])
    path.write_text(json.dumps(doc))


def _edit_rows(path: Path, edit: Callable[[list[str]], list[str]]) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _shift_peak(r: dict) -> None:
    r["peak_bin"][2] += 1


def _nan_snr(r: dict) -> None:
    r["measured_snr"][0] = float("nan")


def _move_csv_peak(lines: list[str]) -> list[str]:
    header = next(i for i, ln in enumerate(lines) if ln.startswith("bin,"))
    rows = [ln.split(",") for ln in lines[header + 1 :]]
    peak = max(range(1, len(rows)), key=lambda k: float(rows[k][2]))
    rows[1][2], rows[peak][2] = rows[peak][2], rows[1][2]
    return lines[: header + 1] + [",".join(r) for r in rows]


def _first_tone_bin(config: dict) -> int:
    tone_hz = float(config["signal"]["tones"][0]["frequency_hz"])
    return round(tone_hz * float(config["reconstruction"]["duration_s"]))


def _drop_tone(r: dict, config: dict) -> None:
    i = r["nonzero_bins"].index(_first_tone_bin(config))
    del r["nonzero_bins"][i], r["nonzero_components"][i]


def _louder_neighbour(r: dict, config: dict) -> None:
    m = _first_tone_bin(config)
    r["nonzero_bins"].append(m + 3)
    r["nonzero_components"].append(2.0 * r["nonzero_components"][r["nonzero_bins"].index(m)])


def _negative_count(lines: list[str]) -> list[str]:
    k, t, _ = lines[-1].split(",")
    return lines[:-1] + [f"{k},{t},-1"]


#: Per workload: (what is wrong, corrupt(output path, config)).
CORRUPTIONS = {
    "sweep_json": [
        ("peak moved one bin", lambda p, c: _edit_json(p, _shift_peak)),
        ("non-finite SNR", lambda p, c: _edit_json(p, _nan_snr)),
    ],
    "hour_csv": [
        ("last row dropped", lambda p, c: _edit_rows(p, lambda ls: ls[:-1])),
        ("peak moved to bin 1", lambda p, c: _edit_rows(p, _move_csv_peak)),
    ],
    "wideband_recon": [
        ("first tone missing", lambda p, c: _edit_json(p, lambda r: _drop_tone(r, c))),
        (
            "louder component 3 bins from a tone",
            lambda p, c: _edit_json(p, lambda r: _louder_neighbour(r, c)),
        ),
    ],
    "fast_fm": [
        ("negative count", lambda p, c: _edit_rows(p, _negative_count)),
        ("last sample dropped", lambda p, c: _edit_rows(p, lambda ls: ls[:-1])),
    ],
}


def check_tracer() -> bool:
    """Self times stay non-negative when a span's children run in parallel."""
    ns = types.SimpleNamespace(work=lambda: time.sleep(0.05))

    def fan_out() -> None:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: ns.work(), range(4)))

    ns.fan_out = fan_out
    tracer = Tracer()
    tracer.patch(ns, "work", "work")
    tracer.patch(ns, "fan_out", "fan_out")
    ns.fan_out()
    tracer.restore()
    summ = tracer.summary()
    parent, child = summ["fan_out"], summ["work"]
    # Four 50 ms calls on two threads: ~100 ms of wall, ~200 ms of busy time.
    ok = (
        child["calls"] == 4
        and 0.0 <= parent["self_s"] < 0.5 * parent["s"]
        and child["s"] > 1.5 * (parent["s"] - parent["self_s"])
        and ns.work.__name__ == "<lambda>"
    )
    print(
        f"{'PASS' if ok else 'FAIL'} tracer: parallel children, parent self "
        f"{parent['self_s']:.4f} s of {parent['s']:.4f} s, children busy {child['s']:.4f} s"
    )
    return ok


def main() -> int:
    root = Path.cwd()
    if not has_source(root):
        return 2
    sys.path.insert(0, str(root / "src"))
    env = child_env(root)
    ok = check_tracer()
    with scratch_dir(root, "selftest-") as work:
        for name, wl in WORKLOADS.items():
            good = work / name / "good"
            good.mkdir(parents=True)
            out = good / wl.out
            argv = command_argv(wl, out, seed=1)
            code = "import sys; from lockinsim.cli import main; sys.exit(main(sys.argv[1:]))"
            subprocess.run([sys.executable, "-c", code, *argv], cwd=root, env=env, check=True)
            config = checks.load_yaml(root / wl.config)
            wl.check(out, config)
            print(f"PASS {name}: check accepts the real output")
            for label, corrupt in CORRUPTIONS[name]:
                bad = work / name / "bad"
                shutil.copytree(good, bad)
                corrupt(bad / wl.out, config)
                try:
                    wl.check(bad / wl.out, config)
                except checks.CheckFailed as exc:
                    print(f"PASS {name}: check rejects {label}: {exc}")
                else:
                    print(f"FAIL {name}: check accepts {label}")
                    ok = False
                shutil.rmtree(bad)
            before = _digest(good)
            data = bytearray(out.read_bytes())
            data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
            out.write_bytes(bytes(data))
            if _digest(good) == before:
                print(f"FAIL {name}: digest ignores a changed byte")
                ok = False
            else:
                print(f"PASS {name}: digest changes with one output byte")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
