#!/usr/bin/env python3
"""Run the benchmark repeatedly on one commit and print each metric's
median, quartiles and spread per workload, so that the bounds in
BENCHMARK.json rest on measured spread.

    python3 bench/steadiness.py                       # every workload, seeds 1-10
    python3 bench/steadiness.py --trace 1 --seeds 1 1  # per-layer metrics, same seed twice

Every run lasts BENCHMARK.json's run_seconds, the length the bounds are
set for. Runs are made one after another, never in parallel. The spread
is the distance between the first and third quartile (statistics.quantiles
with n=4) as a share of the median; with --trace 0 it is compared with a
third of each metric's bound. The raw results are written to
.bench_work/steadiness-<trace>.json.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw, steady = {}, True
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(wl, seed, spec["run_seconds"], args.trace))
            print(f"{wl} seed {seed}: done", file=sys.stderr)
        raw[wl] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{wl}: {len(runs)} runs, all correct: {correct}, "
              f"failed shares: {sorted(shares)}")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            note = ""
            if args.trace == 0 and name in bounds and name != "setup_s":
                ok = spread < bounds[name] / 3
                steady &= ok
                note = f"  {'ok' if ok else 'WIDE'} (bound/3 = {bounds[name] / 3:.3f})"
            print(f"  {name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}{note}")
        steady &= correct and len(shares) == 1

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    (work / f"steadiness-{args.trace}.json").write_text(json.dumps(raw, indent=1))
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
