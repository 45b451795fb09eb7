// Scheduler: the one orchestrator behind every verification mode. It owns
// the PropertyTask pool, the ClauseDb plumbing, the worker pool, and the
// engines; the four public verifier classes and mp::shard's
// ShardedScheduler are thin option presets over it.
//
// Every run dispatches over a *partition* of the properties into shards.
// The default is the trivial partition: one shard holding every property
// in verification order, untagged (-1) in traces and profiles, lemma
// exchange off. A `Sharding` (what ShardedScheduler passes) partitions by
// cone similarity instead, after the simulation prefilter so its
// behavior signatures join the similarity, with one tagged shard per
// cluster. Each shard owns its PropertyTasks, a ClauseDb seeded from the
// caller's database and merged back into it, and (hybrid policy) its own
// shared-unrolling BmcSweep; the persist cache keys each shard's database
// by its member set, so the trivial shard's key is the full property set.
//
// Policies:
//  * RunToCompletion — each property gets one engine run bounded by its
//    per-property budget, in order. With num_threads > 1 the tasks are
//    dispatched onto the worker pool (the paper's Section 11 parallel
//    mode); with local proofs this is Sep-loc/JA, with global proofs
//    Sep-glob.
//  * HybridBmcIc3 — rounds of two pool passes: every live shard's BMC
//    falsification sweep (one incremental unrolling, "just assume"
//    constraints on the prefix), then one IC3 budget slice per open task,
//    shard-agnostic, so a slow shard never holds up the rest. With lemma
//    exchange on, each sweep publishes its prefix units to its shard's
//    IC3 tasks, which re-validate them as F_inf candidates.
//    Failing-heavy workloads (the paper's Tables III/V/VIII substrate)
//    die cheaply in the BMC sweeps before IC3 spends anything on them;
//    the surviving properties get proven by the sliced IC3 engines,
//    which keep their frames between slices.
//  * JointAggregate — the paper's Jnt-ver baseline, on the trivial
//    partition only (a Sharding with it is a constructor error): one IC3
//    run on the conjunction of every open property, bounded by what is
//    left of the total budget; a counterexample removes the refuted
//    subset and the loop restarts on the rest. Takes no clause database.
#ifndef JAVER_MP_SCHED_SCHEDULER_H
#define JAVER_MP_SCHED_SCHEDULER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "base/timer.h"
#include "mp/clause_db.h"
#include "mp/clustering.h"
#include "mp/exchange/lemma_bus.h"
#include "mp/report.h"
#include "mp/sched/engine_options.h"
#include "mp/sched/property_task.h"
#include "ts/transition_system.h"

namespace javer::mp::sched {

enum class ProofMode : std::uint8_t {
  Local,   // other ETH properties assumed (T_P projection, §4)
  Global,  // no assumptions
};

enum class DispatchPolicy : std::uint8_t {
  RunToCompletion,
  HybridBmcIc3,
  JointAggregate,
};

struct SchedulerOptions {
  EngineOptions engine;
  ProofMode proof_mode = ProofMode::Local;
  DispatchPolicy dispatch = DispatchPolicy::RunToCompletion;
  unsigned num_threads = 1;  // 0 = hardware concurrency

  // --- HybridBmcIc3 knobs ---
  // IC3 budget slice per open property per round.
  double ic3_slice_seconds = 0.5;
  std::uint64_t ic3_slice_conflicts = 0;
  // Unrolling depth added per BMC sweep, the hard cap on the shared
  // unrolling, and the wall-clock cap per sweep (0 = unlimited).
  int bmc_depth_per_sweep = 8;
  int bmc_max_depth = 64;
  double bmc_sweep_seconds = 0.0;
  // Stop sweeping after this many consecutive sweeps found nothing: the
  // open set is (probably) all-true and BMC money is better spent on IC3.
  int bmc_empty_sweeps_to_stop = 2;
};

// A cluster-sharded run (what mp::shard's ShardedScheduler passes): one
// shard per cone-similarity cluster (mp/clustering.h), members ranked by
// the engine order option. `exchange` selects whether each shard's BMC
// sweep publishes its prefix units to the shard's IC3 tasks (hybrid
// policy).
struct Sharding {
  ClusterOptions clustering;
  exchange::ExchangeMode exchange = exchange::ExchangeMode::Units;
};

class Scheduler {
 public:
  // Without `sharding`, the trivial partition: one untagged shard, lemma
  // exchange off. Throws std::invalid_argument for a `sharding` with the
  // JointAggregate policy.
  Scheduler(const ts::TransitionSystem& ts, SchedulerOptions opts,
            std::optional<Sharding> sharding = std::nullopt);

  MultiResult run();
  MultiResult run(ClauseDb& db);

  // The assumption set the current proof mode gives target `prop`: every
  // ETH property except the target for Local, empty for Global.
  std::vector<std::size_t> assumptions_for(std::size_t prop) const;

  // Post-run introspection (bench / CLI metrics).
  std::size_t num_shards() const { return num_shards_; }
  const exchange::ExchangeStats& exchange_stats() const {
    return exchange_stats_;
  }

 private:
  // The task policies' body (RunToCompletion and HybridBmcIc3), filling
  // the result run() set up and finalises.
  void run_tasks(ClauseDb& db, const Timer& total, MultiResult& result);
  // The task policies' partition: the trivial one holds the engine order
  // option (design order by default). `signatures` are the
  // prefilter's behavior signatures (empty = keep the clustering's own);
  // `signature_merges` receives the unions they contributed.
  std::vector<std::vector<std::size_t>> partition(
      std::vector<std::uint64_t> signatures,
      std::size_t* signature_merges) const;

  const ts::TransitionSystem& ts_;
  SchedulerOptions opts_;
  std::optional<Sharding> sharding_;  // nullopt = trivial partition
  std::size_t num_shards_ = 0;
  exchange::ExchangeStats exchange_stats_;
};

}  // namespace javer::mp::sched

#endif  // JAVER_MP_SCHED_SCHEDULER_H
