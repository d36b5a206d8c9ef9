#!/usr/bin/env python3
"""Noise study: repeat run.py over seeds and report each metric's spread
(inter-quartile range / median, as statistics.quantiles(values, n=4) gives
the quartiles) and whether every run of a seed printed one state digest.

    python3 perfbench/noise.py --workloads star-df,dwd-4loc --seeds 1-10 \\
        --seconds 21 --trace 0 --out noise.jsonl
    python3 perfbench/noise.py --check set1.jsonl set2.jsonl traced.jsonl

Every run is appended to --out as one JSON object (workload, seed, trace,
elapsed wall time, the digests of its processes and the result line); the
summary goes to standard output.  --check only summarizes existing files,
comparing digests across all of them.  The exit code is 1 when a seed
printed more than one digest.  Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0:  # a layer that does no work on this workload
        return (0.0 if q1 == q3 else float("inf")), q2
    return (q3 - q1) / q2, q2


def summarize(rows):
    """Spreads per (workload, trace); digest agreement per (workload, seed)
    over every row, traced and untraced together.  True if they agree."""
    groups = {}
    for r in rows:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    for (wl, trace), runs in sorted(groups.items()):
        good = [r for r in runs if r["result"]["correct"]]
        print("%s trace=%d: %d runs, %d correct, %.0f s mean wall per run"
              % (wl, trace, len(runs), len(good),
                 statistics.mean(r["elapsed_s"] for r in runs)))
        if len(good) < 2:
            continue
        for n in good[0]["result"]["metrics"]:
            s, med = spread([r["result"]["metrics"][n]["value"]
                             for r in good])
            print("  %-32s median %-12.6g spread %.4f" % (n, med, s))
    digests, procs = {}, 0
    for r in rows:
        digests.setdefault((r["workload"], r["seed"]), set()).update(
            r["digests"])
        procs += len(r["digests"])
    split = sorted(k for k, v in digests.items() if len(v) != 1)
    print("digests: %d (workload, seed) pairs over %d processes: %s"
          % (len(digests), procs,
             "each pair printed one digest" if not split else
             "DIFFERING digests for " + ", ".join(
                 "%s seed %d %s" % (k + (sorted(digests[k]),))
                 for k in split)))
    return not split


def run_one(wl, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", wl, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        print("%s seed %d: exit %d" % (wl, seed, proc.returncode))
        return None
    lines = proc.stdout.strip().splitlines()
    digests = [json.loads(ln[len("digest "):])["digests"] for ln in lines
               if ln.startswith("digest ")]
    return {"workload": wl, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, "digests": digests[-1] if digests else [],
            "result": json.loads(lines[-1])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="star-df,sedov-barrier,dwd-4loc")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=21)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--check", nargs="+", metavar="JSONL")
    args = ap.parse_args()

    rows = []
    if args.check:
        for path in args.check:
            with open(path) as f:
                rows += [json.loads(ln) for ln in f if ln.strip()]
        return 0 if summarize(rows) else 1
    if not args.out:
        ap.error("--out is required unless --check is given")
    for wl in args.workloads.split(","):
        for seed in seeds_from(args.seeds):
            row = run_one(wl, seed, args.seconds, args.trace)
            if row is None:
                continue
            with open(args.out, "a") as f:
                f.write(json.dumps(row) + "\n")
            rows.append(row)
    return 0 if summarize(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
