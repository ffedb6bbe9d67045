"""One workload in one fresh process; started by run.py, one at a time.

  python3 perfbench/worker.py --root CHECKOUT --workload NAME --seed N \
      --mode setup|run|trace --seconds S [--instances K] [--max-len L]

Modes:
  setup  import biserial from CHECKOUT/src, generate and size-filter the
         inputs, print READY and exit (run.py times spawn to READY).
  run    the same set-up, READY, then closed-loop passes over the inputs
         until the next pass would end after S seconds (at least one).
  trace  the same set-up, two untraced passes, then one pass under the
         outside-in tracer; prints the per-layer metrics.

The last line of standard output is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from tracer import Tracer, percentile


def _summary(passes, name):
    """End-to-end metrics of a timed run.

    Each unit of work (an instance, a string, a CLI call) is timed in
    every pass and counted at its mean over the run's passes.
    items_per_s is the items of a pass over the sum of its units' means
    (the items of all passes over their timed seconds), and the
    percentiles are over the items' means, so every pass counts the same
    and faster code gets no extra tries at a low time.

    Shared virtual machines (the baseline's 2-core x86_64 one included)
    change speed for seconds to minutes at a time.  A mean moves in
    proportion to the share of the run spent slow and keeps the items in
    their order.  The sweep-fp instances fall into cost clusters (see
    workloads.py), and a percentile over the pooled samples of all passes
    jumped between them: item_p50_ms read 75-104 ms over ten seeds while
    items_per_s read 73-91.  Each unit's best time follows the rare fast
    moments instead: over the same passes of one calculus and one
    sweep-fp process, 35 s windows spread (IQR/median) 0.08-0.10 in
    item_p50_ms and item_p90_ms with means, against 0.09-0.15 and
    0.12-0.13 at the best times.
    """
    first = passes[0]
    out = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "passes": len(passes),
        "items_per_pass": first.items,
        "digest": first.digest(),
        "failures": first.failures[:20],
    }
    unit_s = [statistics.fmean(col) for col in zip(*(p.unit_s for p in passes))]
    out["metrics"] = {"items_per_s": [first.items / sum(unit_s), "1/s"]}
    lat = [statistics.fmean(col) for col in zip(*(p.latencies_ms for p in passes))]
    out["metrics"]["item_p50_ms"] = [percentile(lat, 0.50), "ms"]
    out["metrics"]["item_p90_ms"] = [percentile(lat, 0.90), "ms"]
    out["latency_samples"] = len(lat)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    out["metrics"]["peak_rss_mb"] = [resource.getrusage(who).ru_maxrss / 1024, "MB"]
    return out


def timed(wl, name, seconds):
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(wl.run_pass())
        if len(passes) > 1:
            # only the first pass feeds the digest; keeping the others'
            # answers would make peak_rss_mb grow with the number of passes
            passes[-1].answers.clear()
        typical = statistics.median(p.wall_s for p in passes)
        if perf_counter() - t0 + typical > seconds:
            break
    return _summary(passes, name)


def _spawn_ms(argv, env, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def traced(wl, name, root):
    run = wl.run_pass_in_process if name == "cli" else wl.run_pass
    # the faster of two untraced passes; the first in-process CLI pass also
    # pays one-time costs that the traced pass after it does not
    base_s = min(run().wall_s, run().wall_s)
    tr = Tracer()
    result = tr.run(lambda: run(tracer=tr))
    metrics = tr.metrics()
    metrics["trace.overhead_ratio"] = tr.wall_s / base_s
    spawn = imp = 0.0
    if name == "cli":
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        spawn = _spawn_ms([sys.executable, "-c", "pass"], env)
        imp = _spawn_ms([sys.executable, "-c", "import biserial.cli"], env) - spawn
    metrics["cli.spawn_ms"] = spawn
    metrics["cli.import_ms"] = imp
    spans_dir = os.path.join(root, ".perfbench")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"spans-{name}.tsv")
    tr.write_spans(spans_path)
    return {
        "attempted": result.attempted,
        "failed": result.failed,
        "digest": result.digest(),
        "failures": result.failures[:20],
        "untraced_wall_s": base_s,
        "spans_file": os.path.relpath(spans_path, root),
        "per_layer": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--instances", type=int)
    ap.add_argument("--max-len", type=int)
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import biserial
    if not os.path.abspath(biserial.__file__).startswith(src + os.sep):
        raise SystemExit(f"biserial was not imported from {src}")
    import workloads

    wl = workloads.make_workload(args.workload, args.seed, root,
                                 instances=args.instances, max_len=args.max_len)
    try:
        print("READY " + json.dumps({"inputs": wl.describe()}), flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "run":
            result = timed(wl, args.workload, args.seconds)
        else:
            result = traced(wl, args.workload, root)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
