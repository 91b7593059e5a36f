#!/usr/bin/env python3
"""Regenerate the benchmark's reference figures from nothing.

    python3 perfbench/reference.py --seeds 10

Runs ``run.py`` once per seed (1..N) on every workload with tracing off,
then once per workload with tracing on, all at BENCHMARK.json's run
length.  Prints, per workload and end-to-end metric, the median, the
quartiles and their distance as a share of the median next to the
metric's bound, and the traced run's per-layer figures.  Raw results go to
perfbench/out/reference.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run"] = json.loads(lines[-2])["run"]
    record = HERE / "out" / f"{workload}{'-trace' if trace else ''}" / "run.json"
    result["round_s"] = json.loads(record.read_text(encoding="utf-8"))["round_s"]
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    raw: dict = {}
    for wl in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(run(wl, seed, seconds, 0))
            r = runs[-1]
            print(f"{wl} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", file=sys.stderr, flush=True)
        raw[wl] = {"untraced": runs}
        print(f"\n== {wl}: {args.seeds} seeds, {seconds} s per run, workers {runs[0]['run']['workers']}, "
              f"nproc {runs[0]['run']['nproc']}, Python {runs[0]['run']['python']}, "
              f"numpy {runs[0]['run']['numpy']}")
        print(f"all correct: {all(r['correct'] for r in runs)}; failed/attempted: "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"{'metric':<20}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  steady")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else float("inf")
            steady = "yes" if spread < m["bound"] / 3 else "NO"
            print(f"{m['name']:<20}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{m['bound']:>7}  {steady}")
        traced = run(wl, 1, seconds, 1)
        raw[wl]["traced"] = traced
        print(f"-- {wl} traced run: correct={traced['correct']} attempted={traced['attempted']} "
              f"failed={traced['failed']}")
        for name, v in traced["metrics"].items():
            print(f"   {name:<28}{v['value']:>14.6g} {v['unit']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "reference.json").write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
