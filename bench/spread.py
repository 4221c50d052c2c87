"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 bench/spread.py --workload presentations --seeds 1-10

Runs bench/run.py once per seed, one after another, and prints for each
end-to-end metric the median of the runs and the distance between the
first and third quartile as a share of the median, next to a third of the
metric's bound from BENCHMARK.json (the target for a steady benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':14s} {'median':>10s} {'iqr/median':>11s} {'bound/3':>8s}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        flag = "" if share < m["bound"] / 3 else "  <-- wide"
        print(f"{m['name']:14s} {med:10.4g} {share:11.3f} {m['bound'] / 3:8.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
