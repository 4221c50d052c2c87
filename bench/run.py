"""Benchmark for ncgraded: one workload, one seed, one run.

    python3 bench/run.py --workload paper-example --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
./src, so there is nothing to build.  Each run starts fresh interpreters
(worker.py) with BLAS/OpenMP threads pinned to 1: first a few that only
set up, to time set-up, then the one that measures.  Times are reported at
a fixed reference speed (see worker.py); each set-up time is scaled by the
speed the runner measures right before and right after that interpreter.
The last stdout line is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it records provenance, raw times included.
--trace 1 reports the per-layer metrics instead of the end-to-end ones and
writes the spans under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from worker import reference_speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper-example", "presentations", "cli-queries")
SETUP_PROBES = 9   # interpreters started only to time set-up
PROBE_REF_SLICES = 8   # reference slices before and after each of them
RUN_TIMEOUT = 175   # seconds for the whole run, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ncgraded", "cli.py")):
        print(f"bench: no ncgraded sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(RUN_TIMEOUT)
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir = os.path.join(ROOT, ".bench_work", tag)
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    try:
        setups = [timed_setup(base + ["--workdir", os.path.join(workdir, f"probe{k}"),
                                      "--setup-only"], env)
                  for k in range(SETUP_PROBES)]
        cmd = base + ["--workdir", os.path.join(workdir, "run")]
        if spans:
            cmd += ["--spans", spans]
        _, result = start_worker(cmd, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s for _, s in setups), "unit": "s"}
    for line in result["failures"]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print("# provenance " + json.dumps(provenance(args, result, setups, spans)))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def start_worker(cmd, env):
    """Run a worker to completion.  Returns (seconds from start to its READY
    line, its final JSON object or None for a set-up probe)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        ready = None
        last = None
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise SystemExit(f"bench: worker exited with code {code}: {' '.join(cmd)}")
    return ready, (json.loads(last) if "--setup-only" not in cmd else None)


def timed_setup(cmd, env):
    """(raw, scaled) set-up time of one set-up-only worker.  The machine's
    speed drifts within seconds, so the time is scaled by the mean of the
    reference speeds measured right before and right after the worker."""
    before = reference_speed(PROBE_REF_SLICES)
    ready, _ = start_worker(cmd, env)
    after = reference_speed(PROBE_REF_SLICES)
    return ready, ready * (before + after) / 2


def _expired(signum, frame):
    raise TimeoutError(f"bench: run still going after {RUN_TIMEOUT} s")


def provenance(args, result, setups, spans) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "spans_file": spans and os.path.relpath(spans, ROOT),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": result["numpy"], "thread_vars": {v: "1" for v in THREAD_VARS},
        "setup_raw_s": [raw for raw, _ in setups],
        "setup_scaled_s": [scaled for _, scaled in setups],
        "untraced_rounds": result["rounds"], "round_raw_walls_s": result["round_walls"],
        "round_speeds": result["round_speeds"], "inputs": result["inputs"],
        "fail_frac": result["failed"] / result["attempted"],
    }


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ncgraded")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


if __name__ == "__main__":
    sys.exit(main())
