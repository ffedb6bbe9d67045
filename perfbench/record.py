"""Run every BENCHMARK.json workload over a range of seeds and record the figures.

  python3 perfbench/record.py --seeds 0-9 --out perfbench/baseline.json

Run from the root of a checkout.  For each workload it makes one run per
seed with --trace 0 and one run with --trace 1 (first seed), then writes
the environment, each end-to-end metric's per-seed values, median and
quartile spread (IQR / median, as statistics.quantiles gives them), and
the per-layer snapshot of the traced run, and the mean wall time of a run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed, trace):
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if argv[0] in ("python3", "python"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med}


def parse_seeds(text):
    """'0-9' (inclusive range) or '0,100,200' (list)."""
    if "," in text:
        return [int(x) for x in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,100,200")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
        },
        "workloads": {},
    }
    for name in names:
        per_seed = {}
        failed = attempted = 0
        t0 = time.perf_counter()
        for seed in seeds:
            res = run_once(spec, name, seed, 0)
            attempted += res["attempted"]
            failed += res["failed"]
            for metric, v in res["metrics"].items():
                per_seed.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()),
                flush=True)
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {},
                 "seconds_per_run": (time.perf_counter() - t0) / len(seeds)}
        for metric, values in per_seed.items():
            s = spread(values)
            s["values"] = values
            entry["end_to_end"][metric] = s
            print(f"{name} {metric}: median {s['median']:.4g}, "
                  f"IQR/median {s['iqr_over_median']:.3f} "
                  f"(bound {bounds.get(metric)})", flush=True)
        res = run_once(spec, name, seeds[0], 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        out["workloads"][name] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
