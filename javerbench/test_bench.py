#!/usr/bin/env python3
"""The javer benchmark's own tests.

Run from the repository root:

    python3 javerbench/test_bench.py [-v]

They build the driver and javer_cli (as javerbench/run.py does) and check
that the benchmark measures what it claims to:

* seed discipline: a held-out seed gives every workload the same
  property-class counts as its default seed;
* the driver configures each engine as javer_cli does: on every
  workload's generated design both report the same verdict totals, and
  the same sat.propagations where that counter is exact;
* the profiled phases fit inside the work spans the Tracer records
  around them, and each layer is non-zero where the workload exercises
  it and zero where the workload bypasses it;
* run.py prints results in the benchmark's contract format, and refuses
  to run outside a javer checkout.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Workloads whose SAT counters repeat exactly from run to run. On
# sharded-cold they vary with thread timing.
EXACT_COUNTERS = ("ja-debugset", "sharded-warm")

# The profiled IC3 SAT-query phases; each sample is taken inside a task
# slice.
IC3_QUERY_PHASES = ("ic3.consecution_s", "ic3.mic_s", "ic3.push_s",
                    "ic3.bad_query_s", "ic3.lift_s")

# Layer metrics each workload must exercise (non-zero) or bypass (zero).
# sharded-warm re-validates the invariants it loads instead of deriving
# new ones, so nothing is lifted, generalized or pushed there.
EXERCISED = {
    "ja-debugset": (
        "cnf.replay_s", "cnf.replays", "sat.propagations",
        "ic3.consecution_s", "ic3.consecution_queries", "ic3.mic_s",
        "ic3.push_s", "ic3.bad_query_s", "ic3.clauses_added",
        "ic3.solver_contexts_created", "ic3.lift_s", "ic3.lift_queries",
        "ic3.seed_clauses_kept", "task.slices"),
    "sharded-cold": (
        "cnf.replay_s", "sat.propagations", "ic3.consecution_s",
        "ic3.mic_s", "ic3.push_s", "ic3.clauses_added", "ic3.lift_s",
        "ic3.lift_queries", "bmc.solve_s", "bmc.sweeps", "sim.s",
        "sim.kills", "sim.candidates", "cluster.s", "cluster.shards",
        "exchange.published", "exchange.delivered", "pool.items_stolen",
        "task.slices"),
    "sharded-warm": (
        "cnf.replay_s", "sat.propagations", "ic3.consecution_s",
        "ic3.seed_clauses_kept", "bmc.solve_s", "bmc.sweeps", "sim.s",
        "cluster.s", "cluster.shards", "exchange.delivered",
        "persist.load_s", "persist.store_s", "persist.templates_loaded",
        "persist.dbs_loaded", "persist.cubes_loaded",
        "persist.dbs_stored"),
}
BYPASSED = {
    "ja-debugset": (
        "bmc.solve_s", "bmc.sweeps", "bmc.cex_found", "sim.s", "sim.kills",
        "sim.candidates", "sim.kill_rate", "cluster.s", "cluster.shards",
        "exchange.published", "exchange.delivered", "exchange.imported",
        "exchange.rejected", "exchange.import_rate", "persist.load_s",
        "persist.store_s", "persist.templates_loaded",
        "persist.dbs_loaded", "persist.cubes_loaded",
        "persist.dbs_stored"),
    "sharded-cold": (
        "persist.load_s", "persist.store_s", "persist.templates_loaded",
        "persist.dbs_loaded", "persist.cubes_loaded",
        "persist.dbs_stored"),
    "sharded-warm": (
        "ic3.lift_s", "ic3.lift_queries", "ic3.mic_s", "ic3.push_s",
        "ic3.clauses_added", "sim.kills", "bmc.cex_found"),
}

_traced = {}


def traced_run(workload):
    """One traced driver run per workload (default seed), memoized; the
    warm workload's cache is filled by one untraced run first."""
    if workload not in _traced:
        verify = run.prepare(workload, None)
        if workload in run.WARM:
            run.driver(*verify)
        code, out = run.driver(*verify, "--trace")
        _traced[workload] = (verify, code, out)
    return _traced[workload]


def cli_totals(text):
    m = re.search(r"verified (\d+) properties in .*: (\d+) proved, "
                  r"(\d+) failed, (\d+) unsolved", text)
    assert m, text
    return tuple(int(g) for g in m.groups())


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(("javerbench_driver", "javer_cli"))

    def test_held_out_seed_has_same_class_counts(self):
        os.makedirs(run.WORK, exist_ok=True)
        design = os.path.join(run.WORK, "classes.aag")

        def gen(workload, *seed):
            out = subprocess.run(
                [run.DRIVER, "gen", "--workload", workload, *seed, "--out",
                 design], check=True, stdout=subprocess.PIPE, text=True)
            return json.loads(out.stdout)

        for workload in run.WORKLOADS:
            default = gen(workload)
            held_out = gen(workload, "--seed", str(default["seed"] + 1))
            with self.subTest(workload=workload):
                self.assertEqual(held_out["seed"], default["seed"] + 1)
                self.assertEqual(held_out["class_counts"],
                                 default["class_counts"])
                self.assertGreater(sum(default["class_counts"]), 100)

    def test_driver_matches_cli(self):
        for workload in run.WORKLOADS:
            verify, code, out = traced_run(workload)
            design = verify[verify.index("--aiger") + 1]
            cache = (verify[verify.index("--cache-dir") + 1]
                     if "--cache-dir" in verify else "")
            flags = subprocess.run(
                [run.DRIVER, "cli-flags", "--workload", workload,
                 *(["--cache-dir", cache] if cache else [])],
                check=True, stdout=subprocess.PIPE,
                text=True).stdout.split()
            metrics_file = os.path.join(run.WORK, workload + "-cli.jsonl")
            cli = subprocess.run(
                [run.CLI, *flags, "--quiet", "--metrics-out", metrics_file,
                 design], stdout=subprocess.PIPE, text=True,
                timeout=run.RUN_TIMEOUT_S)
            with self.subTest(workload=workload):
                self.assertEqual(code, 0, out["oracle_failures"])
                self.assertIn(cli.returncode, (0, 1), cli.stdout)
                self.assertEqual(
                    cli_totals(cli.stdout),
                    (out["properties"], out["proved"], out["failed"],
                     out["unsolved"]))
                if workload in EXACT_COUNTERS:
                    with open(metrics_file) as f:
                        final = json.loads(f.read().splitlines()[-1])
                    self.assertEqual(final["type"], "final")
                    self.assertEqual(final["counters"]["sat.propagations"],
                                     out["layers"]["sat.propagations"])

    def test_phases_fit_their_spans_and_match_layer_table(self):
        # The ledger balances by definition (unattributed_s is its
        # residual), so the parts are checked against wholes measured
        # apart from the profiler: the Tracer's task-slice and BMC-sweep
        # spans, which enclose every IC3 query and every BMC solve. The
        # CNF phases are left out of the IC3 sum because a context rebuild
        # can nest inside a query. The margin is the microsecond rounding
        # of one span per slice or sweep.
        for workload in run.WORKLOADS:
            _, code, out = traced_run(workload)
            layers = out["layers"]
            with self.subTest(workload=workload):
                self.assertEqual(code, 0, out["oracle_failures"])
                self.assertGreater(layers["trace_events"], 0)
                self.assertEqual(layers["trace_dropped"], 0)
                queries = sum(layers[k] for k in IC3_QUERY_PHASES)
                self.assertLessEqual(
                    queries,
                    layers["span.task_slice_s"] + 1e-6 * layers["task.slices"])
                self.assertLessEqual(
                    layers["bmc.solve_s"],
                    layers["span.bmc_sweep_s"] + 1e-6 * layers["bmc.sweeps"])
                self.assertLessEqual(
                    layers["span.task_slice_s"],
                    layers["sched.threads"] * out["verify_s"])
                self.assertGreaterEqual(layers["unattributed_s"], 0.0)
                for name in EXERCISED[workload]:
                    self.assertGreater(layers[name], 0, name)
                for name in BYPASSED[workload]:
                    self.assertEqual(layers[name], 0, name)

    def test_run_prints_contract_result(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, listed in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", "sharded-warm", "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=180)
            with self.subTest(trace=trace):
                self.assertEqual(proc.returncode, 0)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 148)
                self.assertEqual(list(result["metrics"]),
                                 [m["name"] for m in listed])
                for m in listed:
                    self.assertEqual(result["metrics"][m["name"]]["unit"],
                                     m["unit"])

    def test_refuses_to_run_without_the_program_sources(self):
        bare = os.path.join(run.WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "javerbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "javerbench/run.py", "--workload",
             "ja-debugset", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
