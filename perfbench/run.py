#!/usr/bin/env python3
"""Benchmark of the homleibniz package: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a process of its
own, so that its peak memory is its own; set-up is timed in further fresh
processes, interpreter start-up included, and reported as a median.  Each
timed pass is a closed loop: one caller, one thread, calls back to back.
Times are reported at a fixed reference speed of the host, which is
sampled while the calls run (see SpeedSampler).  Outputs are checked
against references after each pass.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the worker alternates untraced passes
with passes that have every layer wrapped (see spans.py) and reports the
per-layer metrics and the tracing overhead instead, writing the spans to
.perfbench_run/spans-<workload>.json.  Human-readable lines come first.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
WORKLOADS = ("cohomology", "twisted", "calibration", "deform_chain")
SETUP_SAMPLES = 9  # set-ups timed per run, the measuring worker's included
MIN_PASSES = 3  # timed passes per run at least, so wall_s is always a median
RUN_DEADLINE_S = 170  # every worker of one invocation ends within this


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="time budget of the timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("parent", "setup", "measure"), default="parent",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, q):
    """Nearest-rank percentile: always one of the measured values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# worker side


def import_package():
    """Import homleibniz from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import homleibniz

    if os.path.dirname(os.path.abspath(homleibniz.__file__)) != os.path.join(SRC, "homleibniz"):
        raise ImportError(f"homleibniz imported from {homleibniz.__file__}, not from {SRC}")


PROBE_ROUNDS, PROBE_LOOP = 3, 200_000  # 9 to 15 ms per CPU and round
REPIN_INTERVAL_S = 1.0
# Probe times on an idle vCPU of the machine in NOTES.md: times are
# reported as they would read at that speed.
REFERENCE_PROBE_S = 0.009
TICK_S, REFERENCE_TICK_S = 0.02, 0.001
TICK_FRACTIONS = [Fraction(3 * i + 1, 2 * i + 5) for i in range(12)]


def probe(loop=PROBE_LOOP):
    """Seconds for a fixed pure-Python loop that uses nothing of the package."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loop):
        acc += i % 7
    return time.perf_counter() - t0


def pin_fastest_cpu():
    """Pin this process to the CPU that runs the probe fastest right now.

    On a shared host one CPU can run at half the speed of another for
    minutes at a time, and a pass timed on whichever CPU the scheduler
    picked turns that into run-to-run spread.  The probe runs outside
    every timed region.  Where affinity cannot be set, nothing is pinned.
    Returns the probe's best time on the CPU now in use.
    """
    best = {}
    for _ in range(PROBE_ROUNDS):
        for cpu in range(os.cpu_count() or 1):
            try:
                os.sched_setaffinity(0, {cpu})
            except (AttributeError, OSError):
                cpu = None
            best[cpu] = min(best.get(cpu, math.inf), probe())
    fastest = min(best, key=best.get)
    if fastest is not None:
        os.sched_setaffinity(0, {fastest})
    return best[fastest]


class Repin:
    """Re-pins to the fastest CPU between calls, at most once per interval."""

    def __init__(self):
        self.last = -math.inf

    def __call__(self):
        if time.perf_counter() - self.last >= REPIN_INTERVAL_S:
            pin_fastest_cpu()
            self.last = time.perf_counter()


class SpeedSampler:
    """Samples the host's speed every TICK_S while the calls run.

    A shared host's speed changes within tens of milliseconds and for
    minutes at a time.  A SIGALRM handler times a fixed task of about a
    millisecond, integer and Fraction arithmetic that uses nothing of the
    package, between the calls' own bytecodes.  reference_seconds() then
    takes the handlers' time out of a call and scales the rest by how much
    slower than the reference the host ran around it; a change to the
    package moves the calls but not the task.
    """

    def __init__(self):
        self.ticks = []  # (entry, exit, task seconds)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _tick(self, signum, frame):
        entry = time.perf_counter()
        gc.disable()  # a collection the calls are due would land in the task
        try:
            probe(15_000)
            total = Fraction(0)
            for a in TICK_FRACTIONS:
                for b in TICK_FRACTIONS[:6]:
                    total += a * b
        finally:
            gc.enable()
        done = time.perf_counter()
        self.ticks.append((entry, done, done - entry))

    def reference_seconds(self, start, end):
        """Seconds from start to end less the ticks in between, at the
        reference speed of the ticks in between and the one before."""
        entries = [t[0] for t in self.ticks]
        lo, hi = bisect.bisect_left(entries, start), bisect.bisect_right(entries, end)
        inside = self.ticks[lo:hi]
        near = self.ticks[max(0, lo - 1):hi] or self.ticks[hi:hi + 1]
        net = end - start - sum(t[1] - t[0] for t in inside)
        return net * statistics.mean(REFERENCE_TICK_S / t[2] for t in near) if near else net


def one_pass(workloads, inputs):
    """(pass seconds, measured pass seconds, calls) at the reference speed.

    A pass takes the sum of its calls' times.  Each call's seconds are
    replaced by its seconds at the reference speed (see SpeedSampler).
    """
    with SpeedSampler() as sampler:
        got = workloads.run_pass(inputs, Repin())
    measured = sum(c.seconds for c in got)
    for c in got:
        c.seconds = sampler.reference_seconds(c.start, c.start + c.seconds)
    return sum(c.seconds for c in got), measured, got


def timed_passes(workloads, inputs, budget):
    """Passes until the budget is spent, at least MIN_PASSES; checked after each.

    Returns the passes' seconds at the reference speed and as measured,
    and the checked calls.
    """
    walls, measured, calls = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < budget:
        wall, raw, got = one_pass(workloads, inputs)
        walls.append(wall)
        measured.append(raw)
        calls.extend(workloads.check(inputs, got))
    return walls, measured, calls


def call_latencies_ms(calls):
    """Each distinct call's median time over the passes, in milliseconds."""
    times = {}
    for c in calls:
        times.setdefault(c.label, []).append(c.seconds * 1000)
    return [statistics.median(t) for t in times.values()]


def traced_pairs(workloads, inputs, budget, recorder):
    """Untraced and traced passes in turn, at least MIN_PASSES pairs.

    The recorder traces the first pair's pass, which gives the per-layer
    metrics; later pairs trace into throwaway recorders.  Returns the
    traced-minus-untraced differences of the pairs, and the checked calls.
    """
    import spans

    diffs, calls = [], []
    start = time.perf_counter()
    while len(diffs) < MIN_PASSES or time.perf_counter() - start < budget:
        untraced, _, got = one_pass(workloads, inputs)
        calls.extend(workloads.check(inputs, got))
        rec = recorder if not diffs else spans.Recorder()
        rec.pass_id = 1
        rec.install()
        try:
            traced, _, got = one_pass(workloads, inputs)
        finally:
            rec.uninstall()
        calls.extend(workloads.check(inputs, got))
        diffs.append(traced - untraced)
    return diffs, calls


def measure(inputs, seconds, recorder=None):
    """Timed passes of set-up inputs; the result object without setup_s.

    With a recorder, untraced and traced passes alternate instead; the
    per-layer metrics of one traced pass and the tracing overhead, the
    median difference within a pair, are reported.
    """
    import workloads

    setup_calls = inputs.setup_calls
    if recorder is None:
        walls, measured, calls = timed_passes(workloads, inputs, seconds)
        latencies = call_latencies_ms(calls)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "call_p50_ms": (percentile(latencies, 0.50), "ms"),
            "call_p90_ms": (percentile(latencies, 0.90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info = {"pass_walls_s": [round(w, 3) for w in walls],
                "measured_walls_s": [round(w, 3) for w in measured],
                "calls": len(calls)}
    else:
        diffs, calls = traced_pairs(workloads, inputs, seconds, recorder)
        metrics = recorder.metrics()
        metrics["trace.overhead_s"] = (statistics.median(diffs), "s")
        info = {"pairs": len(diffs), "overhead_s": [round(d, 3) for d in diffs], "spans": len(recorder.spans)}
    calls = setup_calls + calls
    failed = [c for c in calls if c.problems]
    for c in failed[:10]:
        print(f"FAILED {c.label}: {'; '.join(c.problems)}")
    return {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def set_up(workload, seed, workdir, recorder=None, small=False):
    """Generate inputs, write them as documents and validate every document."""
    import workloads

    inputs = workloads.generate(workload, seed, workdir, small=small)
    if recorder is not None:
        recorder.pass_id = "setup"
        recorder.install()
    try:
        inputs.setup_calls = [workloads.validate(inputs.write())]
    finally:
        if recorder is not None:
            recorder.uninstall()
    return inputs


def worker(args):
    import_package()
    import spans

    workdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    recorder = spans.Recorder() if args.trace else None
    try:
        inputs = set_up(args.workload, args.seed, workdir, recorder)
        ready = time.time()
        if args.role == "setup":
            bad = [p for c in inputs.setup_calls for p in c.problems]
            if bad:
                print(f"set-up failed: {bad}", file=sys.stderr)
                return 1
            print(json.dumps({"ready": ready}))
            return 0
        result = measure(inputs, args.seconds, recorder)
        result["ready"] = ready
        if recorder is not None:
            recorder.dump(os.path.join(RUN_DIR, f"spans-{args.workload}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent side


def spawn(args, role, deadline):
    """Run one worker to completion.

    Returns its last JSON line and the seconds from spawning it until its
    inputs were ready, at the reference speed of the probe just before.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    scale = REFERENCE_PROBE_S / pin_fastest_cpu()  # the pinning is inherited by the worker
    spawned = time.time()
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    return result, (result.pop("ready") - spawned) * scale


def parent(args):
    if not os.path.isfile(os.path.join(SRC, "homleibniz", "__init__.py")):
        print(f"no package source at {SRC}/homleibniz; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        setups = [] if args.trace else [spawn(args, "setup", deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
        result, setup_s = spawn(args, "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(setup_s)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    info = result.pop("info")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {info}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    return parent(args) if args.role == "parent" else worker(args)


if __name__ == "__main__":
    sys.exit(main())
