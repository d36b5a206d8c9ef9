#!/usr/bin/env python3
"""Closed-loop cells/s benchmark: three workloads at two AMT workers.

    python3 perfbench/run.py --workload star-df --seed 1 --seconds 21 --trace 0

Run from the root of a checkout.  The first run builds the C++ driver
(perfbench/CMakeLists.txt, compiled from ../src) into .bench_build/perfbench.
Every load is generated by one process with two AMT workers and one driving
thread; a step starts when the previous step() returned.

--trace 0   one untraced process; prints the end-to-end metrics.
--trace 1   an untraced process and a traced process with the same seed and
            step count; prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 on a completed
measurement (correct or not), non-zero when nothing could be measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "octo_perfbench")

WORKLOADS = ("star-df", "sedov-barrier", "dwd-4loc")
WORKERS = 2
SETUPS = 3  # set-ups per untraced run; setup_s is their median
TAIL_STEPS = 10  # timed steps beyond the tail percentile
RUN_TIMEOUT_S = 170  # whole invocation, build excluded
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def say(msg):
    print(msg, flush=True)


def timed_steps(seconds):
    """Timed steps for a --seconds budget: whole audit cycles of 4 steps,
    about one step per 0.75 s (21 s -> 28 steps, tail = p64.29)."""
    return 4 * max(4, round(seconds / 3))


def tail_pct(steps):
    """The highest percentile with TAIL_STEPS timed steps beyond it
    (nearest rank) out of \p steps timed steps."""
    return 100.0 * (steps - TAIL_STEPS) / steps


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure and build the driver; incremental after the first run."""
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")):
        raise RuntimeError("perfbench/CMakeLists.txt missing")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, nproc())))
    cmds = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", BUILD, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=max(1, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    if not os.path.isfile(BINARY):
        raise RuntimeError("build produced no " + BINARY)


def clean_env():
    """The inherited environment minus every OCTO_* knob (step mode, audit
    cadence, fault injection, tracing must not change the workload)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("OCTO_")}


def run_driver(workload, seed, steps, setups, trace, deadline):
    out = os.path.join(BUILD, "result_%s_%d_%d.json" % (workload, seed, trace))
    trace_file = os.path.join(BUILD, "trace_%s_%d.json" % (workload, seed))
    cmd = [BINARY, "workload=" + workload, "seed=%d" % seed,
           "steps=%d" % steps, "setups=%d" % setups, "workers=%d" % WORKERS,
           "trace=%d" % trace, "trace_file=" + trace_file, "out=" + out]
    if os.path.exists(out):
        os.remove(out)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=clean_env(),
                              timeout=max(1, deadline - time.monotonic()))
    finally:
        if os.path.exists(trace_file):
            os.remove(trace_file)
    if proc.returncode != 0 or not os.path.isfile(out):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("driver failed (exit %d): %s"
                           % (proc.returncode, " ".join(cmd)))
    with open(out) as f:
        res = json.load(f)
    os.remove(out)
    return res


def measured(res):
    """True when the run passed its output check and timed every step it
    was asked for (a step that throws ends the timed loop early)."""
    return bool(res["check"]) and len(res["step_s"]) == res["steps"]


def end_to_end(res):
    """End-to-end values of one measured run."""
    step_s = res["step_s"]
    return {
        "cells_per_s": res["cells"] * len(step_s) / sum(step_s),
        "step_s_p50": statistics.median(step_s),
        "step_s_tail": sorted(step_s)[len(step_s) - TAIL_STEPS - 1],
        "setup_s": statistics.median(res["setup_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def declared(kind):
    """(name, unit) of every metric BENCHMARK.json declares under kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def report(values, kind, width):
    metrics = {}
    for name, unit in declared(kind):
        metrics[name] = {"value": values[name], "unit": unit}
        say("  %-*s %.6g %s" % (width, name, values[name], unit))
    return metrics


def describe(res):
    llc = res["llc_bytes"]
    say("perfbench %s seed=%d: nproc=%d workers=%d llc=%.0f MiB simd=%s "
        "build=%s" % (res["workload"], res["seed"], nproc(), res["workers"],
                      llc / 2**20, res["simd"], res["build_type"]))
    say("  %s level=%d localities=%d mode=%s gravity=%s: %d leaves, %d "
        "cells, state %.1f MiB (%s LLC); %d warm-up + %d timed steps, "
        "tail = p%.2f" % (res["workload"], res["level"], res["localities"],
                          res["mode"], res["self_gravity"], res["leaves"],
                          res["cells"], res["state_bytes"] / 2**20,
                          "above" if res["state_bytes"] > llc else "below",
                          res["warmup"], res["steps"],
                          tail_pct(res["steps"])))
    say("  seeded placement: %d quarter turns about z, shift (%.3g, %.3g, "
        "%.3g)" % ((res["quarter_turns"],) + tuple(res["shift"])))
    say("  check: finite=%s mass_drift=%.3g (tol %.0e) sdc=%d digest=%s "
        "failed=%d/%d %s" % (res["finite"], res["mass_drift"], res["mass_tol"],
                             res["sdc_detections"], res["digest"],
                             res["failed"], res["attempted"], res["failure"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if WORKERS + 1 > nproc():
        log("perfbench: refusing to run: %d workers + 1 driving thread "
            "exceed nproc=%d" % (WORKERS, nproc()))
        return 3

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    steps = timed_steps(args.seconds)
    seed = args.seed

    runs = [run_driver(args.workload, seed, steps,
                       1 if args.trace else SETUPS, 0, deadline)]
    describe(runs[0])
    if args.trace and measured(runs[0]):
        runs.append(run_driver(args.workload, seed, steps, 1, 1, deadline))
        describe(runs[1])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = [r["digest"] for r in runs]
    # Machine-readable digest line: noise.py compares it across repetitions.
    say("digest " + json.dumps({"workload": args.workload, "seed": seed,
                                "digests": digests}))
    correct = all(measured(r) for r in runs) and len(set(digests)) == 1
    if len(set(digests)) > 1:
        say("  DIGEST MISMATCH: untraced %s, traced %s" % tuple(digests))
    if not correct:
        return result(False, attempted, max(failed, 1), {})

    e2e = end_to_end(runs[0])
    if not args.trace:
        metrics = report(e2e, "end_to_end", 16)
        say("  %-16s %.6g ratio" % ("failed_step_frac", failed / attempted))
        return result(True, attempted, failed, metrics)

    traced = runs[1]
    if traced["trace_dropped"]:
        correct = False
        say("  trace dropped %d events" % traced["trace_dropped"])
    layers = dict(traced["layers"])
    layers["apex.trace_overhead_frac"] = (
        1 - end_to_end(traced)["cells_per_s"] / e2e["cells_per_s"])
    metrics = report(layers, "per_layer", 32)
    closure = layers["attrib.closure_frac"]
    if abs(1 - closure) > 0.1:
        task = layers["attrib.unattributed_frac"]
        say("  attribution does not close: %.1f%% of workers x wall is "
            "missing; %.1f%% is amt.task self time (task work outside any "
            "named span), %.1f%% the scheduler loop outside tasks"
            % (100 * (1 - closure), 100 * task, 100 * (1 - closure - task)))
    spans = sorted(traced["span_self_ms_per_step"].items(),
                   key=lambda kv: -kv[1])
    say("  span self time, ms per step: " + ", ".join(
        "%s=%.2f" % kv for kv in spans[:12]))
    return result(correct, attempted, failed, metrics)


def result(correct, attempted, failed, metrics):
    """Print the result line, the last line of standard output."""
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: " + str(e))
        sys.exit(2)
