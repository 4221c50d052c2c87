"""One benchmark run of one workload, in the interpreter run.py started.

Set-up (imports and input generation) ends with a READY line on stdout.
Then rounds of tasks run in a closed loop, one task at a time, for about
--seconds, and at least the workload's minimum number of rounds.  Each
task's output is checked after its clock stops, so oracle time stays out of
every timing.  The last stdout line is a JSON object with the counts and
metrics for run.py.

The speed of the machine this runs on drifts by a fifth or more over
minutes (a shared VM), so times are reported at a fixed reference speed:
while a round runs, a timer interrupts it every REF_INTERVAL_S for one
slice of fixed reference work (`reference_slice`, which calls nothing of
ncgraded), whose time is taken out of the task it interrupted.  A round's
times are then scaled by REF_SLICE_S over the round's mean slice time.
Both raw and scaled times are in the result.

With --trace 1 the rounds cycle untraced, spans, counts: span rounds give
the per-layer times and call counts, count rounds the per-element Field
counts, and span rounds minus untraced rounds (medians) is the tracing
overhead.  Traced rounds run with the reference timer too, and time their
spans with a clock that stops while a slice runs, so that no slice lands in
a span.  The spans are written to --spans when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

REF_INTERVAL_S = 0.2
# The time of one reference slice on the machine whose speed the reported
# times are scaled to (a 2-vCPU Intel Xeon VM, in its fast periods).
REF_SLICE_S = 0.010


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds = measure(wl, args.seconds, tracer)
    result = summarize(rounds, tracer)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    result["numpy"] = np.__version__
    result["inputs"] = wl.inputs()
    print(json.dumps(result, default=str), flush=True)
    return 0


# ---------------------------------------------------------------------------
# reference work: the machine's current speed, measured with code of our own
# ---------------------------------------------------------------------------


def reference_slice() -> int:
    """Fixed work in the mix the library runs, about a quarter each:
    interpreted loops, dict updates, Fraction arithmetic and small int64
    matrix products."""
    s = 0
    for i in range(36_000):
        s += i * i % 7
    d: dict = {}
    for i in range(9_000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i
    for _ in range(6):
        x = Fraction(0)
        for i in range(1, 150):
            x += Fraction(i % 11 + 1, i % 7 + 1)
    a = np.arange(3600, dtype=np.int64).reshape(60, 60) % 101
    for _ in range(10):
        a = (a @ a) % 101
    return s + len(d) + x.denominator + int(a[0, 0])


def _timed_slice():
    c0 = time.process_time()
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0, time.process_time() - c0


def reference_speed(slices: int) -> float:
    """Reference speed over the machine's current speed, from `slices`
    reference slices back to back."""
    return REF_SLICE_S * slices / sum(_timed_slice()[0] for _ in range(slices))


class RefClock:
    """Runs a reference slice every REF_INTERVAL_S of wall time from a
    SIGALRM timer while started, and sums the slices' wall and CPU time."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.slices = 0

    def _tick(self, signum, frame):
        w, c = _timed_slice()
        self.wall += w
        self.cpu += c
        self.slices += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.slices == 0:  # a round shorter than one interval
            self._tick(None, None)

    def clock(self) -> float:
        """perf_counter with the slices so far taken out."""
        return time.perf_counter() - self.wall


class Round:
    def __init__(self, mode: str | None):
        self.mode = mode  # None (untraced), "spans" or "counts"
        self.task_walls: list[float] = []  # raw, reference slices taken out
        self.cpu = 0.0
        self.ok = 0
        self.failures: list[str] = []
        self.ref = RefClock()

    @property
    def wall(self) -> float:
        return sum(self.task_walls)

    @property
    def speed(self) -> float:
        """Reference speed over this round's speed, for wall times."""
        return REF_SLICE_S * self.ref.slices / self.ref.wall

    @property
    def cpu_speed(self) -> float:
        return REF_SLICE_S * self.ref.slices / self.ref.cpu


TRACE_CYCLE = (None, "spans", "counts")


def measure(wl, seconds: float, tracer) -> list[Round]:
    """Rounds until the workload's minimum is done and one more round would
    likely end after `seconds`."""
    need = max(wl.min_rounds, len(TRACE_CYCLE) if tracer is not None else 1)
    rounds: list[Round] = []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if len(rounds) >= need and elapsed + elapsed / len(rounds) > seconds:
            return rounds
        mode = TRACE_CYCLE[len(rounds) % len(TRACE_CYCLE)] if tracer is not None else None
        rounds.append(run_round(wl, tracer, mode, first_task=sum(
            len(r.task_walls) for r in rounds)))


def run_round(wl, tracer, mode, first_task: int) -> Round:
    rnd = Round(mode)
    if mode is not None:
        tracer.rounds[mode] += 1
        tracer.clock = rnd.ref.clock
    rnd.ref.start()
    for n, task in enumerate(wl.round_tasks()):
        gc.collect()  # free the previous task's cyclic garbage before the clock starts
        if mode is not None:
            tracer.begin_task(first_task + n)
            tracer.install(mode)
        r0, rc0 = rnd.ref.wall, rnd.ref.cpu
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, err = task.run(), None
        except Exception as exc:  # a task that raises counts as failed
            out, err = None, exc
        t1 = time.perf_counter()
        c1 = time.process_time()
        if mode is not None:
            tracer.uninstall()
        rnd.task_walls.append(t1 - t0 - (rnd.ref.wall - r0))
        rnd.cpu += c1 - c0 - (rnd.ref.cpu - rc0)
        if err is None:
            try:
                task.check(out)
            except Exception as exc:  # oracles.Mismatch, or a malformed output
                err = exc
        if err is None:
            rnd.ok += 1
        else:
            rnd.failures.append(f"{task.label}: {type(err).__name__}: {err}")
    rnd.ref.stop()
    return rnd


def _p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def summarize(rounds: list[Round], tracer) -> dict:
    attempted = sum(len(r.task_walls) for r in rounds)
    ok = sum(r.ok for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    plain = [r for r in rounds if r.mode is None]
    out = {
        "attempted": attempted,
        "failed": attempted - ok,
        "failures": failures[:20],
        "rounds": len(plain),
        "round_walls": [r.wall for r in rounds],
        "round_speeds": [r.speed for r in rounds],
    }
    if tracer is None:
        walls = [w * r.speed for r in plain for w in r.task_walls]
        m = {
            "wall_s": (statistics.median(r.wall * r.speed for r in plain), "s"),
            "cpu_s": (statistics.median(r.cpu * r.cpu_speed for r in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": (ok / attempted, "ratio"),
            "tasks_per_s": (sum(r.ok for r in plain) / sum(walls), "1/s"),
            "task_p50_s": (statistics.median(walls), "s"),
            "task_p90_s": (_p90(walls), "s"),
        }
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
        return out
    from tracer import layer_metrics

    spans = [r for r in rounds if r.mode == "spans"]
    metrics = layer_metrics(tracer)
    speed = statistics.median(r.speed for r in spans)
    for m in metrics.values():
        if m["unit"] == "s":
            m["value"] *= speed
    metrics["trace.overhead_s"] = {
        "value": statistics.median(r.wall * r.speed for r in spans)
        - statistics.median(r.wall * r.speed for r in plain),
        "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer.start) / len(spans), "unit": "count"}
    out["metrics"] = metrics
    return out


if __name__ == "__main__":
    sys.exit(main())
