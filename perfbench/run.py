"""Benchmark of biserial: one workload, fresh processes, every metric by name.

Run from the root of a checkout (the library is imported from ./src):

  python3 perfbench/run.py --workload calculus --seed 0 --seconds 20 --trace 0

Workloads: calculus, cli and sweep-fp (the ones BENCHMARK.json lists) and
sweep-q (run by hand; perfbench/workloads.py says why it is not listed).

With --trace 0 the inputs are set up several times in fresh interpreters,
each timed from spawn to READY (setup_s is the median); one of them goes
on to run closed-loop passes, one call at a time, for --seconds.
With --trace 1 one worker runs untraced passes and a traced pass and
reports the per-layer metrics.

Human-readable lines come first and show every metric computed; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, holding the metrics BENCHMARK.json names
(end_to_end with --trace 0, per_layer with --trace 1).  The exit
code is 0 when the run completed (failed checks are counted, not fatal) and
non-zero, without a JSON line, when the outputs could not be checked.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# set-up samples per run: at least SETUP_MIN, more while they have taken
# less than SETUP_BUDGET_S together, at most SETUP_MAX
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 7, 21, 6.0
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _worker_argv(args, mode):
    argv = [sys.executable, WORKER, "--root", os.getcwd(),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode]
    if args.instances is not None:
        argv += ["--instances", str(args.instances)]
    if args.max_len is not None:
        argv += ["--max-len", str(args.max_len)]
    return argv


def _run_worker(args, mode, deadline):
    """Start one worker; return (seconds until READY, READY info, RESULT)."""
    t0 = perf_counter()
    proc = subprocess.Popen(_worker_argv(args, mode), stdout=subprocess.PIPE,
                            text=True)
    # the read loop below blocks, so a timer enforces the deadline
    killer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    killer.start()
    ready_s = info = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready_s is None:
                ready_s = perf_counter() - t0
                info = json.loads(line[6:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None or (mode != "setup" and result is None):
        raise BenchError(f"{mode} worker failed with exit code {code}")
    return ready_s, info, result


def _setup_wanted(samples, share):
    """Whether `share` of the set-up samples is not taken yet."""
    return ((len(samples) < share * SETUP_MIN
             or sum(samples) < share * SETUP_BUDGET_S)
            and len(samples) < share * SETUP_MAX)


def _fmt(value):
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("calculus", "cli", "sweep-q", "sweep-fp"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int,
                    help="override the number of instances (tests only)")
    ap.add_argument("--max-len", type=int,
                    help="override the string bound (tests only)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "biserial", "__init__.py")):
        print("error: run from a checkout of biserial (no src/biserial here)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            _, info, result = _run_worker(args, "trace", deadline)
            metrics = {k: [v, _layer_unit(k)] for k, v in result["per_layer"].items()}
        else:
            # half the set-up samples before the timed run, half after it,
            # so that they span the run rather than one moment of the host
            setups = []
            while _setup_wanted(setups, 0.5):
                setups.append(_run_worker(args, "setup", deadline)[0])
            ready_s, info, result = _run_worker(args, "run", deadline)
            setups.append(ready_s)
            while _setup_wanted(setups, 1.0):
                setups.append(_run_worker(args, "setup", deadline)[0])
            metrics = dict(result["metrics"])
            metrics["setup_s"] = [statistics.median(setups), "s"]
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if attempted < 1:
        print("error: no operation was attempted", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"inputs: {info['inputs']}")
    print(f"digest {result['digest']} (answers of the first pass)")
    if not args.trace:
        print(f"passes {result['passes']}, items per pass {result['items_per_pass']}")
        unit = "run_sweep calls" if args.workload.startswith("sweep") else "items"
        print(f"latency percentiles over n={result['latency_samples']} {unit}, "
              f"each at its mean over the {result['passes']} passes")
    else:
        print(f"spans written to {result['spans_file']}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for what in result["failures"]:
        print(f"  failed: {what}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name} {_fmt(value)} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k in listed},
    }))
    return 0


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
