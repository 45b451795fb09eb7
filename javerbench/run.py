#!/usr/bin/env python3
"""The javer benchmark: time-to-all-verdicts on seeded multi-property designs.

Usage (from the repository root):

    python3 javerbench/run.py --workload ja-debugset [--seed N]
                              [--seconds S] [--trace 0|1]

Builds javerbench_driver (javerbench/CMakeLists.txt, which builds libjaver
through the repository's own CMakeLists.txt) into .javerbench_build/,
generates the workload's design from the seed into .javerbench_work/, and
then, for --seconds of wall time, runs one fresh driver process per
verification. Every verification's verdicts are checked by the driver's
untimed oracle.

--trace 0 reports the end-to-end metrics (medians over the runs, tracing
off). --trace 1 alternates untraced and traced runs, prints the per-layer
ledger of the last traced run, and reports the per-layer metrics (medians
over the traced runs). The metric names and units are the ones listed in
BENCHMARK.json. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exit code 0 when every
verdict checked out, 1 otherwise, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".javerbench_build")
WORK = os.path.join(ROOT, ".javerbench_work")
DRIVER = os.path.join(BUILD, "javerbench_driver")
CLI = os.path.join(BUILD, "javer", "javer_cli")

WORKLOADS = ("ja-debugset", "sharded-cold", "sharded-warm")
WARM = ("sharded-warm",)   # cache warmed by one untimed run first
MIN_RUNS = 3               # verifications per benchmark run, at least
RUN_TIMEOUT_S = 120        # one driver process


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets=("javerbench_driver",)):
    """Configures and builds the driver (and `targets`) in Release."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"no {needed} at {ROOT}: not a javer checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    *targets], check=True, stdout=sys.stderr)


def driver(*args, check=True):
    """Runs the driver; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([DRIVER, *args], stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if check and proc.returncode not in (0, 1):
        raise RuntimeError(f"driver {' '.join(args)} exited "
                           f"{proc.returncode}")
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def seed_args(seed):
    return [] if seed is None else ["--seed", str(seed)]


def prepare(workload, seed):
    """Generates the design; returns the verify arguments for it."""
    os.makedirs(WORK, exist_ok=True)
    tag = f"{workload}-{'default' if seed is None else seed}"
    design = os.path.join(WORK, tag + ".aag")
    subprocess.run([DRIVER, "gen", "--workload", workload, *seed_args(seed),
                    "--out", design], check=True, stdout=subprocess.DEVNULL)
    args = ["verify", "--workload", workload, *seed_args(seed),
            "--aiger", design]
    if workload in WARM:
        cache = os.path.join(WORK, tag + "-cache")
        shutil.rmtree(cache, ignore_errors=True)
        args += ["--cache-dir", cache]
    return args


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


# The parts of the ledger's whole, set-up + threads x verify_s: the two
# set-up calls, every profiled phase of the run, the simulation sweep, and
# the driver's residual, unattributed_s, which makes the parts sum to the
# whole by definition. cluster.s is the benchmark's own extra call and lies
# outside the run.
LEDGER_PARTS = ("aig.read_s", "ts.build_s", "cnf.replay_s", "cnf.encode_s",
                "ic3.consecution_s", "ic3.mic_s", "ic3.push_s",
                "ic3.bad_query_s", "ic3.lift_s", "bmc.solve_s",
                "persist.load_s", "persist.store_s", "sim.s",
                "unattributed_s")


def print_ledger(workload, run, untraced_verify_s):
    """The per-layer ledger of one traced run: parts against the whole."""
    layers = run["layers"]
    threads = layers["sched.threads"]
    parts = [(k, layers[k]) for k in LEDGER_PARTS]
    whole = (layers["aig.read_s"] + layers["ts.build_s"] +
             threads * run["verify_s"])
    print(f"ledger {workload} (seed {run['seed']}): set-up + {threads:g} "
          f"thread(s) x verify_s = {whole:.4f} s")
    for name, value in parts:
        print(f"  {name:<22} {value:10.4f} s  {100 * value / whole:5.1f}%")
    print(f"  {'sum of parts':<22} {sum(v for _, v in parts):10.4f} s")
    print(f"  sched.cpu_s {layers['sched.cpu_s']:.4f} s, utilization "
          f"{layers['sched.utilization']:.3f}, trace_overhead_s "
          f"{run['verify_s'] - untraced_verify_s:+.4f} s")
    print(f"  traced work spans: task slices "
          f"{layers['span.task_slice_s']:.4f} s, BMC sweeps "
          f"{layers['span.bmc_sweep_s']:.4f} s")


def bench(workload, seed, seconds, trace):
    build()
    verify = prepare(workload, seed)
    attempted = failed = 0
    correct = True

    def one(traced):
        nonlocal attempted, failed, correct
        try:
            code, out = driver(*verify, *(["--trace"] if traced else []),
                               check=False)
        except subprocess.TimeoutExpired:
            code, out = -1, None
        if out is None:
            attempted, failed, correct = attempted + 1, failed + 1, False
            return None
        attempted += int(out["properties"])
        failed += int(out["ops_failed"])
        if code != 0 or out["ops_failed"] or out["unsolved"]:
            correct = False
            log(f"{workload}: oracle failures {out['oracle_failures']}")
        return out

    if workload in WARM:
        one(False)  # untimed: fills the warm-start cache
    runs, traced_runs = [], []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        out = one(False)
        if out is not None:
            runs.append(out)
        if trace:
            out = one(True)
            if out is not None:
                traced_runs.append(out)
        if not correct:
            break

    end_to_end, per_layer = metric_specs()
    metrics = {}
    if correct and trace:
        untraced = statistics.median(r["verify_s"] for r in runs)
        print_ledger(workload, traced_runs[-1], untraced)
        for r in traced_runs:
            r["layers"]["trace_overhead_s"] = r["verify_s"] - untraced
        for m in per_layer:
            metrics[m["name"]] = {
                "value": statistics.median(r["layers"][m["name"]]
                                           for r in traced_runs),
                "unit": m["unit"]}
    elif correct:
        for m in end_to_end:
            metrics[m["name"]] = {
                "value": statistics.median(r[m["name"]] for r in runs),
                "unit": m["unit"]}
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="design seed (default: the workload's own, see "
                         "BENCHMARK.json)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed is not None and a.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        result = bench(a.workload, a.seed, a.seconds, a.trace == 1)
    except (OSError, RuntimeError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log(f"javerbench: {e}")
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
