// ShardedScheduler: cluster-sharded orchestration, an option preset over
// the one property scheduler (mp/sched). `cluster_properties` partitions
// the properties by cone similarity after the simulation prefilter; every
// cluster becomes a *shard* owning its own PropertyTask pool, its own
// ClauseDb shard, and (for the hybrid policy) its own shared-unrolling
// BmcSweep, so structurally related properties share work and unrelated
// ones never contend for it. The unsharded Scheduler is the same run
// logic over the trivial one-shard partition.
//
// Within a shard, the LemmaBus (mp/exchange) carries the sweep's learned
// prefix units to the shard's IC3 tasks as F_inf candidates, which each
// engine re-validates before use. Each shard has its own channel, so no
// lemma crosses a cluster boundary, and exchange can never flip a verdict
// (tests/test_shard.cpp checks this against exchange-off and oracle
// runs). Proofs are shared between the shard's tasks through its
// ClauseDb, the paper's clause re-use channel.
#ifndef JAVER_MP_SHARD_SHARDED_SCHEDULER_H
#define JAVER_MP_SHARD_SHARDED_SCHEDULER_H

#include <cstddef>

#include "mp/clause_db.h"
#include "mp/clustering.h"
#include "mp/exchange/lemma_bus.h"
#include "mp/report.h"
#include "mp/sched/scheduler.h"
#include "ts/transition_system.h"

namespace javer::mp::shard {

// The `sched::Sharding` fields: `clustering` and `exchange` (default
// Units).
struct ShardedOptions : sched::Sharding {
  // `base.dispatch` selects the within-shard policy: HybridBmcIc3
  // (default here: shared BMC sweep + IC3 slices per shard) or
  // RunToCompletion; JointAggregate is rejected (std::invalid_argument),
  // since the aggregate runs on the one-shard partition only.
  // `base.num_threads` sizes the worker pool the shards' work items are
  // balanced across; the hybrid knobs apply per shard.
  sched::SchedulerOptions base;
};

class ShardedScheduler {
 public:
  ShardedScheduler(const ts::TransitionSystem& ts, ShardedOptions opts);

  MultiResult run();
  // Seeds every shard's ClauseDb from `db` and merges the shards'
  // accumulated strengthenings back into it after the run.
  MultiResult run(ClauseDb& db);

  // Post-run introspection (bench / CLI metrics).
  const exchange::ExchangeStats& exchange_stats() const {
    return scheduler_.exchange_stats();
  }
  std::size_t num_shards() const { return scheduler_.num_shards(); }

 private:
  sched::Scheduler scheduler_;
};

}  // namespace javer::mp::shard

#endif  // JAVER_MP_SHARD_SHARDED_SCHEDULER_H
