// Sharded-scheduler tests: cluster_properties edge cases, LemmaBus
// channel semantics, ShardedClauseDb plumbing, adaptive slice sizing, and
// the lemma-exchange soundness contract — exchanged lemmas never flip a
// verdict: every exchange mode must match the exchange-off runs, the
// explicit-state oracle, and the one-shot engines, and every proof
// produced through exchange must stay independently certifiable.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "aig/sim.h"
#include "gen/counter.h"
#include "gen/random_design.h"
#include "gen/synthetic.h"
#include "mp/clustering.h"
#include "mp/exchange/lemma_bus.h"
#include "mp/sched/property_task.h"
#include "mp/sched/scheduler.h"
#include "mp/shard/sharded_scheduler.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "persist/persist.h"
#include "ref/explicit_checker.h"
#include "test_util.h"
#include "ts/cone_view.h"
#include "ts/trace.h"

namespace javer::mp::shard {
namespace {

// --- cluster_properties edge cases -----------------------------------------

TEST(ClusterEdges, ZeroPropertiesGiveEmptyPartition) {
  aig::Aig aig = gen::make_ring(3);
  aig.properties().clear();
  ts::TransitionSystem ts(aig);
  EXPECT_TRUE(cluster_properties(ts).empty());
}

TEST(ClusterEdges, AllDissimilarPropertiesStaySingletons) {
  // One adjacency property per independent ring: the cones are disjoint,
  // so any positive similarity threshold keeps every property alone.
  gen::SyntheticSpec spec;
  spec.seed = 21;
  spec.rings = 3;
  spec.ring_size = 5;
  spec.ring_props = 3;
  spec.pair_props = 0;
  spec.unreachable_props = 0;
  spec.shuffle_properties = false;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);
  ClusterOptions opts;
  opts.min_similarity = 0.1;
  auto clusters = cluster_properties(ts, opts);
  EXPECT_EQ(clusters.size(), 3u);
  for (const auto& c : clusters) EXPECT_EQ(c.size(), 1u);
}

TEST(ClusterEdges, MaxClusterSizeOverflowSplits) {
  // All 7 ring properties share one cone; a size cap of 3 must split the
  // would-be single cluster into partitions of at most 3 that still cover
  // every property exactly once.
  aig::Aig aig = gen::make_ring(7);
  ts::TransitionSystem ts(aig);
  ClusterOptions opts;
  opts.min_similarity = 0.0;
  opts.max_cluster_size = 3;
  auto clusters = cluster_properties(ts, opts);
  std::vector<bool> seen(ts.num_properties(), false);
  std::size_t covered = 0;
  for (const auto& c : clusters) {
    EXPECT_LE(c.size(), 3u);
    for (std::size_t p : c) {
      ASSERT_LT(p, seen.size());
      EXPECT_FALSE(seen[p]);
      seen[p] = true;
      covered++;
    }
  }
  EXPECT_EQ(covered, 7u);
  EXPECT_EQ(clusters.size(), 3u);  // greedy single-link packs {3,3,1}
}

TEST(ClusterEdges, MaxClusterSizeOneMeansAllSingletons) {
  aig::Aig aig = gen::make_ring(5);
  ts::TransitionSystem ts(aig);
  ClusterOptions opts;
  opts.min_similarity = 0.0;
  opts.max_cluster_size = 1;
  auto clusters = cluster_properties(ts, opts);
  EXPECT_EQ(clusters.size(), 5u);
  for (const auto& c : clusters) EXPECT_EQ(c.size(), 1u);
}

// --- LemmaBus channel semantics --------------------------------------------

ts::Cube unit_cube(int latch, bool value) {
  return ts::Cube{ts::StateLit{latch, value}};
}

TEST(LemmaBus, CursorDeliversEachLemmaOncePerConsumer) {
  exchange::LemmaBus bus(2, exchange::ExchangeMode::Units);
  EXPECT_EQ(bus.publish(0, {unit_cube(0, true), unit_cube(1, false)}), 2u);
  exchange::LemmaBus::Cursor a, b, c;
  EXPECT_EQ(bus.poll(0, a).size(), 2u);
  EXPECT_TRUE(bus.poll(0, a).empty());   // same consumer: nothing new
  EXPECT_EQ(bus.poll(0, b).size(), 2u);  // independent consumer: all of it
  EXPECT_TRUE(bus.poll(1, c).empty());   // other shard's channel is empty
}

TEST(LemmaBus, DedupAndModeFilter) {
  exchange::LemmaBus bus(1, exchange::ExchangeMode::Units);
  EXPECT_EQ(bus.publish(0, {unit_cube(0, true)}), 1u);
  // Same cube again: suppressed.
  EXPECT_EQ(bus.publish(0, {unit_cube(0, true)}), 0u);
  exchange::ExchangeStats s = bus.stats();
  EXPECT_EQ(s.published, 1u);
  EXPECT_EQ(s.duplicates, 1u);
}

TEST(LemmaBus, OffModeAcceptsNothing) {
  exchange::LemmaBus bus(1, exchange::ExchangeMode::Off);
  EXPECT_FALSE(bus.enabled());
  EXPECT_EQ(bus.publish(0, {unit_cube(0, true)}), 0u);
  exchange::LemmaBus::Cursor c;
  EXPECT_TRUE(bus.poll(0, c).empty());
}

TEST(LemmaBus, OffModeIgnoresImportReportsAndKeepsChannelsEmpty) {
  // A disabled bus delivers nothing, so no re-validation report can be
  // about bus traffic; stray reports must not drift the hit-rate
  // counters (bench/table11 reads them as "imports for this bus").
  exchange::LemmaBus bus(2, exchange::ExchangeMode::Off);
  bus.publish(0, {unit_cube(0, true)});
  bus.record_import(0, 3, 2, 1);
  exchange::ExchangeStats s = bus.stats();
  EXPECT_EQ(s.published, 0u);
  EXPECT_EQ(s.delivered, 0u);
  EXPECT_EQ(s.imported, 0u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.redundant, 0u);
  EXPECT_EQ(bus.log_size(0), 0u);
  EXPECT_EQ(bus.log_size(1), 0u);

  // The same report is counted once the bus is actually on.
  exchange::LemmaBus on(1, exchange::ExchangeMode::Units);
  on.record_import(0, 3, 2, 1);
  exchange::ExchangeStats t = on.stats();
  EXPECT_EQ(t.imported, 3u);
  EXPECT_EQ(t.rejected, 2u);
  EXPECT_EQ(t.redundant, 1u);
}

TEST(LemmaBus, ChannelStatsAttributeTrafficPerShard) {
  // Global stats() aggregate the whole bus; channel_stats(s) must break
  // the same totals down by consuming shard so print_report's per-shard
  // exchange lines add up to the summary line.
  exchange::LemmaBus bus(2, exchange::ExchangeMode::Units);
  bus.publish(0, {unit_cube(0, true), unit_cube(1, false)});
  bus.publish(1, {unit_cube(2, true)});
  exchange::LemmaBus::Cursor a, b;
  EXPECT_EQ(bus.poll(0, a).size(), 2u);
  EXPECT_EQ(bus.poll(1, b).size(), 1u);
  bus.record_import(0, 2, 0, 0);
  bus.record_import(1, 0, 1, 0);

  exchange::ExchangeStats c0 = bus.channel_stats(0);
  exchange::ExchangeStats c1 = bus.channel_stats(1);
  EXPECT_EQ(c0.published, 2u);
  EXPECT_EQ(c0.delivered, 2u);
  EXPECT_EQ(c0.imported, 2u);
  EXPECT_EQ(c0.rejected, 0u);
  EXPECT_EQ(c1.published, 1u);
  EXPECT_EQ(c1.delivered, 1u);
  EXPECT_EQ(c1.imported, 0u);
  EXPECT_EQ(c1.rejected, 1u);

  exchange::ExchangeStats g = bus.stats();
  EXPECT_EQ(c0.published + c1.published, g.published);
  EXPECT_EQ(c0.delivered + c1.delivered, g.delivered);
  EXPECT_EQ(c0.imported + c1.imported, g.imported);
  EXPECT_EQ(c0.rejected + c1.rejected, g.rejected);

  // Out-of-range shards answer with zeros rather than faulting.
  exchange::ExchangeStats oob = bus.channel_stats(9);
  EXPECT_EQ(oob.published, 0u);
  EXPECT_EQ(oob.delivered, 0u);
}

// --- ShardedClauseDb --------------------------------------------------------

TEST(ShardedClauseDb, SeedAllAndMergedSnapshot) {
  ShardedClauseDb dbs(3);
  EXPECT_EQ(dbs.num_shards(), 3u);
  EXPECT_EQ(dbs.seed_all({unit_cube(0, true)}), 3u);
  dbs.shard(1).add({unit_cube(1, false)});
  EXPECT_EQ(dbs.total_size(), 4u);
  std::vector<ts::Cube> merged = dbs.merged_snapshot();
  EXPECT_EQ(merged.size(), 2u);  // the shared seed dedups in the union
}

// --- sharded scheduling: verdict equivalence + exchange soundness ----------

ShardedOptions sharded_opts(exchange::ExchangeMode mode) {
  ShardedOptions so;
  so.base.proof_mode = sched::ProofMode::Local;
  so.base.dispatch = sched::DispatchPolicy::HybridBmcIc3;
  // Small slices/windows so rounds, suspensions and lemma traffic
  // actually happen on tiny designs; tiny clusters so several shards
  // exist and the per-shard channels matter.
  so.base.ic3_slice_seconds = 0.05;
  so.base.bmc_depth_per_sweep = 4;
  so.base.bmc_max_depth = 32;
  so.clustering.min_similarity = 0.3;
  so.clustering.max_cluster_size = 2;
  so.exchange = mode;
  return so;
}

void expect_matches_local_oracle(const ts::TransitionSystem& ts,
                                 const MultiResult& result,
                                 const ref::ExplicitResult& oracle,
                                 const std::string& tag) {
  ASSERT_EQ(result.per_property.size(), ts.num_properties()) << tag;
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const PropertyResult& pr = result.per_property[p];
    if (oracle.fails_locally(p)) {
      EXPECT_EQ(pr.verdict, PropertyVerdict::FailsLocally) << tag << " P" << p;
    } else {
      EXPECT_EQ(pr.verdict, PropertyVerdict::HoldsLocally) << tag << " P" << p;
    }
  }
}

// Proofs and counterexamples produced through the exchange must stay
// independently checkable — this is what makes "lemmas can never flip a
// verdict" a theorem rather than a coincidence: an unsoundly imported
// clause would surface here as an uncertifiable strengthening.
void expect_certifiable(const ts::TransitionSystem& ts,
                        const MultiResult& result, const std::string& tag) {
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const PropertyResult& pr = result.per_property[p];
    std::vector<std::size_t> assumed;
    for (std::size_t j = 0; j < ts.num_properties(); ++j) {
      if (j != p && !ts.expected_to_fail(j)) assumed.push_back(j);
    }
    if (pr.verdict == PropertyVerdict::HoldsLocally) {
      testutil::expect_valid_invariant(ts, p, assumed, pr.invariant);
    } else if (pr.verdict == PropertyVerdict::FailsLocally) {
      EXPECT_TRUE(ts::is_local_cex(ts, pr.cex, p, assumed))
          << tag << " P" << p;
    }
  }
}

class ShardedExchangeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedExchangeTest, EveryExchangeModeMatchesOracleAndCertifies) {
  gen::RandomDesignSpec spec;
  spec.seed = GetParam();
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_ands = 18;
  spec.num_properties = 5;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult oracle = ref::explicit_check(ts);

  for (exchange::ExchangeMode mode :
       {exchange::ExchangeMode::Off, exchange::ExchangeMode::Units}) {
    ShardedOptions so = sharded_opts(mode);
    ShardedScheduler sched(ts, so);
    MultiResult r = sched.run();
    std::string tag = std::string("sharded-") + exchange::to_string(mode);
    expect_matches_local_oracle(ts, r, oracle, tag);
    expect_certifiable(ts, r, tag);
    EXPECT_GE(sched.num_shards(), 1u);
  }

  // The same contract holds with shards balanced across real threads.
  {
    ShardedOptions so = sharded_opts(exchange::ExchangeMode::Units);
    so.base.num_threads = 2;
    MultiResult r = ShardedScheduler(ts, so).run();
    expect_matches_local_oracle(ts, r, oracle, "sharded-threads");
    expect_certifiable(ts, r, "sharded-threads");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedExchangeTest,
                         ::testing::Range<std::uint64_t>(700, 715));

TEST(Sharded, ExchangeMatchesExchangeOffOnSyntheticFamily) {
  // A multi-cone failing-heavy design: shallow failures for the sweeps, a
  // masked deep failure that must be proven locally true, true fillers.
  gen::SyntheticSpec spec;
  spec.seed = 93;
  spec.wrap_counter_bits = 10;
  spec.rings = 2;
  spec.ring_size = 5;
  spec.ring_props = 6;
  spec.pair_props = 2;
  spec.unreachable_props = 2;
  spec.det_fail_props = 1;
  spec.input_fail_props = 1;
  spec.masked_fail_props = 1;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);

  ShardedOptions off = sharded_opts(exchange::ExchangeMode::Off);
  MultiResult r_off = ShardedScheduler(ts, off).run();

  sched::SchedulerOptions ja;
  ja.proof_mode = sched::ProofMode::Local;
  MultiResult reference = sched::Scheduler(ts, ja).run();

  ShardedScheduler sharded(ts, sharded_opts(exchange::ExchangeMode::Units));
  MultiResult r = sharded.run();
  ASSERT_EQ(r.per_property.size(), r_off.per_property.size());
  for (std::size_t p = 0; p < r.per_property.size(); ++p) {
    // Exchange-on verdicts match the exchange-off run *and* the one-shot
    // JA engines exactly.
    EXPECT_EQ(r.per_property[p].verdict, r_off.per_property[p].verdict)
        << "P" << p;
    EXPECT_EQ(r.per_property[p].verdict, reference.per_property[p].verdict)
        << "P" << p;
  }
  EXPECT_EQ(r.debugging_set(), r_off.debugging_set());
  // Traffic accounting stays consistent.
  exchange::ExchangeStats xs = sharded.exchange_stats();
  EXPECT_LE(xs.imported, xs.delivered);
  EXPECT_GE(xs.published, 0u);
}

TEST(Sharded, OneClusterRunDoesExactlyTheHybridSchedulersWork) {
  // The unsharded scheduler is the one-shard partition: a sharded run
  // whose clustering puts every property into one cluster, with exchange
  // off, must reach the hybrid Scheduler's verdicts with exactly its SAT
  // work. Conflict-bounded slices keep both runs deterministic.
  gen::SyntheticSpec spec;
  spec.seed = 93;
  spec.wrap_counter_bits = 10;
  spec.rings = 2;
  spec.ring_size = 5;
  spec.ring_props = 6;
  spec.pair_props = 2;
  spec.unreachable_props = 2;
  spec.det_fail_props = 1;
  spec.input_fail_props = 1;
  spec.masked_fail_props = 1;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);

  ShardedOptions so = sharded_opts(exchange::ExchangeMode::Off);
  so.base.num_threads = 1;
  so.base.ic3_slice_seconds = 0.0;
  so.base.ic3_slice_conflicts = 20;
  so.clustering.min_similarity = 0.0;
  so.clustering.max_cluster_size = ts.num_properties();
  ShardedScheduler sharded(ts, so);
  MultiResult one_shard = sharded.run();
  ASSERT_EQ(sharded.num_shards(), 1u);
  MultiResult hybrid = sched::Scheduler(ts, so.base).run();

  ASSERT_EQ(one_shard.per_property.size(), hybrid.per_property.size());
  ic3::Ic3Stats a, b;
  for (std::size_t p = 0; p < hybrid.per_property.size(); ++p) {
    EXPECT_EQ(one_shard.per_property[p].verdict,
              hybrid.per_property[p].verdict)
        << "P" << p;
    const ic3::Ic3Stats& sa = one_shard.per_property[p].engine_stats;
    const ic3::Ic3Stats& sb = hybrid.per_property[p].engine_stats;
    a.sat_propagations += sa.sat_propagations;
    a.sat_conflicts += sa.sat_conflicts;
    a.consecution_queries += sa.consecution_queries;
    b.sat_propagations += sb.sat_propagations;
    b.sat_conflicts += sb.sat_conflicts;
    b.consecution_queries += sb.consecution_queries;
  }
  EXPECT_GT(b.sat_propagations, 0u);
  EXPECT_EQ(a.sat_propagations, b.sat_propagations);
  EXPECT_EQ(a.sat_conflicts, b.sat_conflicts);
  EXPECT_EQ(a.consecution_queries, b.consecution_queries);
}

TEST(Sharded, CallerSignaturesJoinTheClusteringWithoutThePrefilter) {
  // Disjoint ring cones cluster into singletons; equal nonzero signatures
  // set by the caller union them into one shard even though no prefilter
  // runs.
  gen::SyntheticSpec spec;
  spec.seed = 21;
  spec.rings = 3;
  spec.ring_size = 5;
  spec.ring_props = 3;
  spec.pair_props = 0;
  spec.unreachable_props = 0;
  spec.shuffle_properties = false;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);
  ShardedOptions so = sharded_opts(exchange::ExchangeMode::Off);
  so.clustering.min_similarity = 0.1;
  so.clustering.max_cluster_size = ts.num_properties();
  ShardedScheduler structural(ts, so);
  structural.run();
  EXPECT_EQ(structural.num_shards(), 3u);
  so.clustering.signatures.assign(ts.num_properties(), 7);
  ShardedScheduler merged(ts, so);
  MultiResult r = merged.run();
  EXPECT_EQ(merged.num_shards(), 1u);
  EXPECT_EQ(r.num_unsolved(), 0u);
}

TEST(Sharded, JointAggregateDispatchIsRejected) {
  // The aggregate policy runs on the one-shard partition only.
  aig::Aig aig = gen::make_synthetic(gen::SyntheticSpec{});
  ts::TransitionSystem ts(aig);
  ShardedOptions so = sharded_opts(exchange::ExchangeMode::Off);
  so.base.dispatch = sched::DispatchPolicy::JointAggregate;
  EXPECT_THROW(ShardedScheduler(ts, so), std::invalid_argument);
}

TEST(Sharded, RunToCompletionDispatchMatchesOracle) {
  gen::RandomDesignSpec spec;
  spec.seed = 731;
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_properties = 4;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult oracle = ref::explicit_check(ts);

  ShardedOptions so = sharded_opts(exchange::ExchangeMode::Units);
  so.base.dispatch = sched::DispatchPolicy::RunToCompletion;
  MultiResult r = ShardedScheduler(ts, so).run();
  expect_matches_local_oracle(ts, r, oracle, "sharded-rtc");
}

TEST(Sharded, ClauseDbSeedsAndCollectsAcrossShards) {
  // All-true design: proofs publish strengthenings into the shard dbs,
  // which merge back into the external database after the run.
  aig::Aig aig = gen::make_ring(6);
  ts::TransitionSystem ts(aig);
  ShardedOptions so = sharded_opts(exchange::ExchangeMode::Units);
  ClauseDb db;
  MultiResult r = ShardedScheduler(ts, so).run(db);
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    EXPECT_EQ(r.per_property[p].verdict, PropertyVerdict::HoldsLocally)
        << "P" << p;
  }
  EXPECT_GT(db.size(), 0u);
}

TEST(Sharded, RespectsTotalTimeLimit) {
  gen::SyntheticSpec spec;
  spec.seed = 94;
  spec.wrap_counter_bits = 16;
  spec.rings = 2;
  spec.ring_size = 8;
  spec.ring_props = 16;
  spec.pair_props = 8;
  spec.unreachable_props = 8;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);

  ShardedOptions so = sharded_opts(exchange::ExchangeMode::Units);
  so.base.engine.total_time_limit = 0.2;
  Timer timer;
  MultiResult r = ShardedScheduler(ts, so).run();
  EXPECT_LT(timer.seconds(), 5.0);
  EXPECT_EQ(r.per_property.size(), ts.num_properties());
}

// --- adaptive slice sizing --------------------------------------------------

TEST(AdaptiveSlice, ScaleAdaptsAndStaysBounded) {
  aig::Aig aig = gen::make_counter({.bits = 8, .buggy = false});
  ts::TransitionSystem ts(aig);
  sched::EngineOptions engine;
  sched::PropertyTask task(ts, 1, {}, engine, /*local_mode=*/false);
  sched::TaskBudget budget;
  budget.conflicts = 4;
  bool scale_moved = false;
  int guard = 0;
  while (task.open()) {
    task.run_slice(budget, nullptr);
    double scale = task.result().slice_scale;
    EXPECT_GE(scale, 0.25);
    EXPECT_LE(scale, 4.0);
    if (scale != 1.0) scale_moved = true;
    ASSERT_LT(++guard, 100000) << "sliced run failed to converge";
  }
  EXPECT_EQ(task.result().verdict, PropertyVerdict::HoldsGlobally);
  EXPECT_GT(task.result().slices, 1);
  EXPECT_TRUE(scale_moved) << "adaptive scale never left 1.0";
}

// Pin the pure slice-sizing decision (mp/sched/property_task.h): grow on
// frame progress, shrink only on a genuinely stalled slice, no adjustment
// for slices with no next slice to size.
TEST(AdaptiveSlice, NextSliceScaleTransitions) {
  auto slice_result = [](CheckStatus status, bool resumable, int frames,
                         std::uint64_t clauses, std::uint64_t obligations) {
    ic3::Ic3Result er;
    er.status = status;
    er.resumable = resumable;
    er.frames = frames;
    er.stats.clauses_added = clauses;
    er.stats.obligations = obligations;
    return er;
  };
  const auto suspended = [&](int frames, std::uint64_t clauses,
                             std::uint64_t obligations) {
    return slice_result(CheckStatus::Unknown, true, frames, clauses,
                        obligations);
  };

  // Frame progress doubles, saturating at the ceiling (4).
  EXPECT_EQ(sched::next_slice_scale(1.0, true, suspended(3, 10, 5), 2,
                                    10, 5),
            2.0);
  EXPECT_EQ(sched::next_slice_scale(4.0, true, suspended(3, 10, 5), 2,
                                    10, 5),
            4.0);
  // Stalled (no clause, no obligation) halves, saturating at the floor.
  EXPECT_EQ(sched::next_slice_scale(1.0, true, suspended(2, 10, 5), 2,
                                    10, 5),
            0.5);
  EXPECT_EQ(sched::next_slice_scale(0.25, true, suspended(2, 10, 5), 2,
                                    10, 5),
            0.25);
  // Suspended mid-generalization (obligations moved, clause counter did
  // not): progress, not a stall — the scale must hold.
  EXPECT_EQ(sched::next_slice_scale(1.0, true, suspended(2, 10, 9), 2,
                                    10, 5),
            1.0);
  // Clause progress without a new frame: steady state, no change.
  EXPECT_EQ(sched::next_slice_scale(1.0, true, suspended(2, 14, 9), 2,
                                    10, 5),
            1.0);
  // Terminal and non-resumable slices have no next slice to size; their
  // counters (often mid-flight) must not be classified.
  EXPECT_EQ(sched::next_slice_scale(1.0, true,
                                    slice_result(CheckStatus::Holds, false, 3,
                                                 10, 5),
                                    2, 10, 5),
            1.0);
  EXPECT_EQ(sched::next_slice_scale(1.0, true,
                                    slice_result(CheckStatus::Unknown, false,
                                                 2, 10, 5),
                                    2, 10, 5),
            1.0);
  // Unbudgeted slices never adjust.
  EXPECT_EQ(sched::next_slice_scale(2.0, false, suspended(3, 10, 5), 2,
                                    10, 5),
            2.0);
}

TEST(AdaptiveSlice, ScaleResetsWhenTaskCloses) {
  // Drive a budgeted task until it closes; whatever the scale did along
  // the way, a closed task must read 1.0 again so a recycled task cannot
  // inherit a shrunken (or inflated) slice.
  aig::Aig aig = gen::make_counter({.bits = 8, .buggy = false});
  ts::TransitionSystem ts(aig);
  sched::EngineOptions engine;
  sched::PropertyTask task(ts, 1, {}, engine, /*local_mode=*/false);
  sched::TaskBudget budget;
  budget.conflicts = 4;
  bool scale_moved = false;
  int guard = 0;
  while (task.open()) {
    task.run_slice(budget, nullptr);
    if (task.open() && task.slice_scale() != 1.0) scale_moved = true;
    ASSERT_LT(++guard, 100000) << "sliced run failed to converge";
  }
  EXPECT_TRUE(scale_moved) << "adaptive scale never left 1.0";
  EXPECT_EQ(task.slice_scale(), 1.0);

  // External closes reset too.
  sched::PropertyTask unknown_task(ts, 1, {}, engine, false);
  unknown_task.run_slice(budget, nullptr);
  unknown_task.close_unknown();
  EXPECT_EQ(unknown_task.slice_scale(), 1.0);
}

// The sharded scheduler with exchange Off must leave the bus untouched
// across however many hybrid rounds it runs: no publishes, no deliveries,
// and no import/rejection drift for table11's hit-rate metrics.
TEST(Sharded, ExchangeOffKeepsEveryBusCounterZero) {
  gen::SyntheticSpec spec;
  spec.seed = 77;
  spec.rings = 2;
  spec.ring_size = 5;
  spec.ring_props = 6;
  spec.pair_props = 4;
  spec.unreachable_props = 2;
  spec.det_fail_props = 1;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);

  ShardedOptions so = sharded_opts(exchange::ExchangeMode::Off);
  ShardedScheduler sched(ts, so);
  MultiResult r = sched.run();
  ASSERT_EQ(r.per_property.size(), ts.num_properties());
  for (const PropertyResult& pr : r.per_property) {
    EXPECT_EQ(pr.engine_stats.lemmas_imported, 0u);
    EXPECT_EQ(pr.engine_stats.lemmas_rejected, 0u);
    EXPECT_EQ(pr.engine_stats.lemmas_known, 0u);
  }
  exchange::ExchangeStats xs = sched.exchange_stats();
  EXPECT_EQ(xs.published, 0u);
  EXPECT_EQ(xs.duplicates, 0u);
  EXPECT_EQ(xs.delivered, 0u);
  EXPECT_EQ(xs.imported, 0u);
  EXPECT_EQ(xs.rejected, 0u);
  EXPECT_EQ(xs.redundant, 0u);
  EXPECT_EQ(xs.hit_rate(), 0.0);
}

// --- the shared start-up prelude --------------------------------------------

gen::SyntheticSpec prelude_spec() {
  gen::SyntheticSpec spec;
  spec.seed = 41;
  spec.rings = 2;
  spec.ring_size = 5;
  spec.ring_props = 6;
  spec.ring_prop_stride = 2;
  spec.pair_props = 4;
  spec.unreachable_props = 4;
  spec.unreachable_stride = 2;
  spec.det_fail_props = 0;
  return spec;
}

TEST(Prelude, ShardedRunGivesTheSameVerdictsAndPreludeCountersOnAnyThreadCount) {
  gen::SyntheticSpec spec = prelude_spec();
  spec.det_fail_props = 1;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);

  struct Run {
    MultiResult result;
    std::uint64_t builds = 0;
    std::uint64_t reused = 0;
  };
  auto run = [&](unsigned threads) {
    ShardedOptions so = sharded_opts(exchange::ExchangeMode::Units);
    so.clustering.max_cluster_size = 6;
    so.base.engine.lifting_respects_constraints = true;
    so.base.num_threads = threads;
    obs::MetricsRegistry metrics;
    so.base.engine.metrics = &metrics;
    Run out;
    out.result = ShardedScheduler(ts, so).run();
    out.builds = metrics.snapshot().counter("ic3.prelude_builds");
    out.reused = metrics.snapshot().counter("ic3.prelude_reused");
    return out;
  };
  const Run one = run(1);
  const Run four = run(4);
  ASSERT_EQ(one.result.per_property.size(), four.result.per_property.size());
  std::uint64_t engines = 0;
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    EXPECT_EQ(one.result.per_property[p].verdict,
              four.result.per_property[p].verdict)
        << "P" << p;
    if (one.result.per_property[p].slices > 0) engines++;
  }
  expect_certifiable(ts, four.result, "four threads");
  EXPECT_GT(one.reused, 0u);
  EXPECT_EQ(one.builds + one.reused, engines);
  EXPECT_EQ(four.builds, one.builds);
  EXPECT_EQ(four.reused, one.reused);
}

TEST(Prelude, PlantedNonInductiveCubeIsDroppedOnceAndNeverReachesFinf) {
  // One component: every property reads the `tie` latch, so every task
  // has one closure, which holds every property's cone.
  aig::Aig aig = gen::single_component(gen::make_synthetic(prelude_spec()));
  ts::TransitionSystem ts(aig);
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "javer_prelude_plant")
          .string();
  std::filesystem::remove_all(dir);

  ShardedOptions so;
  so.base.proof_mode = sched::ProofMode::Local;
  so.base.dispatch = sched::DispatchPolicy::RunToCompletion;
  so.base.engine.cache_dir = dir;
  so.base.engine.lifting_respects_constraints = true;
  so.clustering.max_cluster_size = 6;
  so.exchange = exchange::ExchangeMode::Off;
  const MultiResult cold = ShardedScheduler(ts, so).run();

  // A reachable state one step from reset, on a path that keeps every
  // constraint and property: a latch that left its reset value there
  // gives a cube {l} that excludes the initial states, yet its clause
  // holds in no F_inf of any task.
  aig::Simulator sim(ts.aig());
  const std::vector<bool> init = ts.initial_state();
  sim.eval(init, std::vector<bool>(ts.num_inputs(), false));
  for (aig::Lit c : ts.design_constraints()) ASSERT_TRUE(sim.value(c));
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    ASSERT_TRUE(sim.value(ts.property_lit(p))) << "P" << p;
  }
  const std::vector<bool> next = sim.next_state();
  // The latch is one some property reads, so it lies in the one closure
  // every task runs on.
  std::vector<aig::Lit> props;
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    props.push_back(ts.property_lit(p));
  }
  const std::vector<int> read = ts::cone_latches(ts.aig(), props);
  const ts::ClosureIndex closures(
      ts, std::vector<bool>(ts.num_properties(), true));
  const std::vector<int> closure = closures.closure(0);
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    ASSERT_EQ(closures.closure(p), closure) << "P" << p;
  }
  ASSERT_TRUE(
      std::includes(closure.begin(), closure.end(), read.begin(), read.end()));
  ts::Cube planted;
  for (int i : read) {
    if (ts.aig().latches()[i].reset != Ternary::X && next[i] != init[i]) {
      planted.push_back(ts::StateLit{i, next[i]});
      break;
    }
  }
  ASSERT_FALSE(planted.empty());

  // Plant it in every shard's stored database.
  const auto clusters = cluster_properties(ts, so.clustering);
  persist::PersistCache cache(dir);
  const std::uint64_t fp = aig::fingerprint(ts.aig());
  std::uint64_t expected_validations = 0;
  for (const std::vector<std::size_t>& cluster : clusters) {
    const std::uint64_t key = persist::index_set_signature(cluster);
    std::optional<std::vector<ts::Cube>> cubes =
        cache.load_clause_db(ts, fp, key);
    ASSERT_TRUE(cubes.has_value());
    ASSERT_TRUE(std::find(cubes->begin(), cubes->end(), planted) ==
                cubes->end());
    // One fixpoint round over every cube, one more over the survivors.
    expected_validations += 2 * cubes->size() + 1;
    cubes->push_back(planted);
    cache.store_clause_db(fp, key, *cubes);
  }

  obs::MetricsRegistry metrics;
  obs::PhaseProfiler profiler;
  so.base.engine.metrics = &metrics;
  so.base.engine.profiler = &profiler;
  const MultiResult warm = ShardedScheduler(ts, so).run();
  std::uint64_t engines = 0;
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const PropertyResult& pr = warm.per_property[p];
    EXPECT_EQ(pr.verdict, cold.per_property[p].verdict) << "P" << p;
    EXPECT_EQ(pr.verdict, PropertyVerdict::HoldsLocally) << "P" << p;
    EXPECT_TRUE(std::find(pr.invariant.begin(), pr.invariant.end(),
                          planted) == pr.invariant.end())
        << "P" << p;
    if (pr.slices > 0) engines++;
  }
  expect_certifiable(ts, warm, "warm");
  const obs::MetricsSnapshot ms = metrics.snapshot();
  // Every task was offered the planted cube and kept none of it, but only
  // each shard's prelude asked about it.
  EXPECT_EQ(ms.counter("ic3.seed_clauses_dropped"), engines);
  EXPECT_EQ(ms.counter("ic3.prelude_builds"), clusters.size());
  EXPECT_EQ(profiler.phase_count("ic3/seed_validate"), expected_validations);
}

}  // namespace
}  // namespace javer::mp::shard
