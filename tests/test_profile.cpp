// PhaseProfiler tests (src/obs/profile): the log2 histogram's bucketing
// and concurrent recording, slot identity and aggregation, the disabled
// sink's null-pointer contract, both export formats (JSON parsed back
// with the shared test reader, folded stacks line-checked), and the
// counting contract that makes the profile an audited decomposition of a
// run rather than a sampling estimate: per-phase SAT-query sample counts
// reconcile *exactly* with the summed Ic3Stats query counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "ic3/ic3.h"
#include "mp/joint_verifier.h"
#include "mp/sched/scheduler.h"
#include "mp/shard/sharded_scheduler.h"
#include "obs/profile.h"
#include "test_util_json.h"
#include "ts/transition_system.h"

namespace javer {
namespace {

using testjson::Json;
using testjson::parse_json_or_die;

// --- LatencyHisto -----------------------------------------------------------

TEST(LatencyHisto, BucketIndexIsBitWidthWithSaturation) {
  // Bucket i holds samples of bit_width i: 0 -> 0, 1 -> 1, 2..3 -> 2,
  // 4..7 -> 3, ...; the last bucket absorbs everything wider.
  EXPECT_EQ(obs::LatencyHisto::bucket_index(0), 0);
  EXPECT_EQ(obs::LatencyHisto::bucket_index(1), 1);
  EXPECT_EQ(obs::LatencyHisto::bucket_index(2), 2);
  EXPECT_EQ(obs::LatencyHisto::bucket_index(3), 2);
  EXPECT_EQ(obs::LatencyHisto::bucket_index(4), 3);
  EXPECT_EQ(obs::LatencyHisto::bucket_index(7), 3);
  EXPECT_EQ(obs::LatencyHisto::bucket_index(8), 4);
  EXPECT_EQ(obs::LatencyHisto::bucket_index(~std::uint64_t{0}),
            obs::LatencyHisto::kBuckets - 1);

  // Upper bounds are inclusive and consistent with the index: a value
  // lands in the first bucket whose upper bound admits it.
  EXPECT_EQ(obs::LatencyHisto::bucket_upper_us(0), 0u);
  EXPECT_EQ(obs::LatencyHisto::bucket_upper_us(1), 1u);
  EXPECT_EQ(obs::LatencyHisto::bucket_upper_us(2), 3u);
  EXPECT_EQ(obs::LatencyHisto::bucket_upper_us(3), 7u);
  for (std::uint64_t us : {0u, 1u, 2u, 3u, 5u, 100u, 4096u}) {
    int b = obs::LatencyHisto::bucket_index(us);
    EXPECT_LE(us, obs::LatencyHisto::bucket_upper_us(b)) << us;
    if (b > 0) {
      EXPECT_GT(us, obs::LatencyHisto::bucket_upper_us(b - 1)) << us;
    }
  }
}

TEST(LatencyHisto, RecordAccumulatesCountTotalMaxAndBuckets) {
  obs::LatencyHisto h;
  for (std::uint64_t us : {0u, 1u, 1u, 3u, 900u}) h.record(us);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.total_us(), 905u);
  EXPECT_EQ(h.max_us(), 900u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // the 0us sample
  EXPECT_EQ(h.bucket_count(1), 2u);  // the two 1us samples
  EXPECT_EQ(h.bucket_count(2), 1u);  // 3us
  EXPECT_EQ(h.bucket_count(obs::LatencyHisto::bucket_index(900)), 1u);
}

TEST(LatencyHisto, ConcurrentRecordersLoseNothing) {
  // The recording path is relaxed atomics + a CAS max; hammer it from
  // several threads and check the totals are exact.
  obs::LatencyHisto h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.max_us(), kThreads * kPerThread - 1);
  std::uint64_t bucket_sum = 0;
  for (int b = 0; b < obs::LatencyHisto::kBuckets; ++b) {
    bucket_sum += h.bucket_count(b);
  }
  EXPECT_EQ(bucket_sum, kThreads * kPerThread);
}

// --- PhaseProfiler / ProfileSink -------------------------------------------

TEST(PhaseProfiler, SlotsAreStableIdentitiesAndAggregateByPhase) {
  obs::PhaseProfiler profiler;
  obs::LatencyHisto* a = profiler.slot("ic3/mic", 0, 7);
  EXPECT_EQ(profiler.slot("ic3/mic", 0, 7), a);       // same key, same histo
  EXPECT_NE(profiler.slot("ic3/mic", 1, 7), a);       // different shard
  EXPECT_NE(profiler.slot("ic3/mic", 0, 8), a);       // different property
  EXPECT_NE(profiler.slot("ic3/push", 0, 7), a);      // different phase

  a->record(10);
  profiler.slot("ic3/mic", 1, 7)->record(20);
  profiler.slot("ic3/push", 0, 7)->record(5);
  EXPECT_EQ(profiler.phase_count("ic3/mic"), 2u);
  EXPECT_EQ(profiler.phase_total_us("ic3/mic"), 30u);
  EXPECT_EQ(profiler.phase_count("ic3/push"), 1u);
  EXPECT_EQ(profiler.phase_count("ic3/never"), 0u);
  EXPECT_EQ(profiler.slots().size(), 4u);
}

TEST(ProfileSink, DisabledSinkHandsOutNullAndTimerSkipsTheClock) {
  obs::ProfileSink off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.slot("ic3/mic"), nullptr);
  EXPECT_EQ(off.with_shard(3).with_property(9).slot("x/y"), nullptr);
  {
    obs::ProfileTimer timer(nullptr);  // must be a free no-op
  }

  obs::PhaseProfiler profiler;
  obs::ProfileSink on(&profiler, /*shard=*/2, /*property=*/5);
  ASSERT_TRUE(on.enabled());
  {
    obs::ProfileTimer timer(on.slot("test/op"));
  }
  EXPECT_EQ(profiler.phase_count("test/op"), 1u);
  std::vector<obs::PhaseProfiler::SlotView> views = profiler.slots();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].shard, 2);
  EXPECT_EQ(views[0].property, 5);
}

TEST(PhaseProfiler, JsonAndFoldedExportsCarryTheSlotTable) {
  obs::PhaseProfiler profiler;
  profiler.slot("test/alpha", 2, 7)->record(5);
  profiler.slot("test/alpha", 2, 7)->record(0);
  obs::LatencyHisto* untagged = profiler.slot("test/beta");
  untagged->record(100);
  profiler.slot("test/empty", 1, 1);  // never recorded: omitted

  std::ostringstream json;
  profiler.write_json(json);
  Json doc = parse_json_or_die(json.str());
  ASSERT_TRUE(doc.has("phases"));
  ASSERT_EQ(doc.at("phases").array.size(), 2u);  // empty slot dropped

  const Json& alpha = doc.at("phases").array[0];
  EXPECT_EQ(alpha.at("phase").string, "test/alpha");
  EXPECT_DOUBLE_EQ(alpha.at("shard").number, 2.0);
  EXPECT_DOUBLE_EQ(alpha.at("property").number, 7.0);
  EXPECT_DOUBLE_EQ(alpha.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(alpha.at("total_us").number, 5.0);
  EXPECT_DOUBLE_EQ(alpha.at("max_us").number, 5.0);
  ASSERT_EQ(alpha.at("buckets").array.size(), 2u);  // 0us and 5us buckets
  EXPECT_DOUBLE_EQ(alpha.at("buckets").array[0].at("le_us").number, 0.0);
  EXPECT_DOUBLE_EQ(alpha.at("buckets").array[1].at("le_us").number, 7.0);
  EXPECT_DOUBLE_EQ(alpha.at("buckets").array[1].at("count").number, 1.0);

  const Json& beta = doc.at("phases").array[1];
  EXPECT_EQ(beta.at("phase").string, "test/beta");
  EXPECT_FALSE(beta.has("shard"));     // untagged keys are omitted
  EXPECT_FALSE(beta.has("property"));

  std::ostringstream folded;
  profiler.write_folded(folded);
  EXPECT_EQ(folded.str(),
            "javer;test/beta 100\n"
            "javer;shard2;P7;test/alpha 5\n");
}

// --- end-to-end: the counting contract -------------------------------------

gen::SyntheticSpec small_multi_cone() {
  gen::SyntheticSpec spec;
  spec.seed = 181;
  spec.wrap_counter_bits = 8;
  spec.rings = 2;
  spec.ring_size = 4;
  spec.ring_props = 4;
  spec.pair_props = 2;
  spec.unreachable_props = 2;
  spec.det_fail_props = 1;
  spec.input_fail_props = 1;
  return spec;
}

template <typename Field>
std::uint64_t summed(const mp::MultiResult& r, Field field) {
  std::uint64_t total = 0;
  for (const mp::PropertyResult& pr : r.per_property) {
    total += pr.engine_stats.*field;
  }
  return total;
}

// Sample count of `phase` over every slot tagged with `property`
// (any shard).
std::uint64_t slot_count(const obs::PhaseProfiler& profiler,
                         std::string_view phase, long long property) {
  std::uint64_t total = 0;
  for (const obs::PhaseProfiler::SlotView& v : profiler.slots()) {
    if (v.phase == phase && v.property == property) {
      total += v.histo->count();
    }
  }
  return total;
}

// The acceptance contract: every profiled SAT-query phase reconciles
// exactly with the engines' own query counters. Requires zero spurious
// restarts — a discarded engine's samples stay in the profile but its
// stats are replaced — so callers run with strict lifting and we assert
// the precondition rather than assume it.
void expect_profile_reconciles(const obs::PhaseProfiler& profiler,
                               const mp::MultiResult& r) {
  std::uint64_t restarts = 0;
  for (const mp::PropertyResult& pr : r.per_property) {
    restarts += static_cast<std::uint64_t>(pr.spurious_restarts);
  }
  ASSERT_EQ(restarts, 0u) << "strict lifting should preclude restarts";

  // Consecution solves happen at the obligation sites and inside frame
  // push; both wrap the same counted call.
  EXPECT_EQ(profiler.phase_count("ic3/consecution") +
                profiler.phase_count("ic3/push"),
            summed(r, &ic3::Ic3Stats::consecution_queries));
  EXPECT_EQ(profiler.phase_count("ic3/mic"),
            summed(r, &ic3::Ic3Stats::mic_queries));
  EXPECT_EQ(profiler.phase_count("ic3/bad_query"),
            summed(r, &ic3::Ic3Stats::bad_queries));
  EXPECT_EQ(profiler.phase_count("ic3/lift"),
            summed(r, &ic3::Ic3Stats::lift_queries));
}

TEST(ProfileEndToEnd, HybridRunReconcilesPhaseCountsWithEngineStats) {
  aig::Aig aig = gen::make_synthetic(small_multi_cone());
  ts::TransitionSystem ts(aig);

  obs::PhaseProfiler profiler;
  mp::sched::SchedulerOptions so;
  so.proof_mode = mp::sched::ProofMode::Local;
  so.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  so.ic3_slice_seconds = 0.05;
  so.bmc_depth_per_sweep = 4;
  so.bmc_max_depth = 32;
  so.engine.lifting_respects_constraints = true;  // no spurious restarts
  so.engine.profiler = &profiler;
  mp::MultiResult r = mp::sched::Scheduler(ts, so).run();

  expect_profile_reconciles(profiler, r);

  // The same contract holds per property: each proved property's mic /
  // bad / lift counts match its own engine stats slot-for-slot.
  for (std::size_t p = 0; p < r.per_property.size(); ++p) {
    const ic3::Ic3Stats& st = r.per_property[p].engine_stats;
    long long prop = static_cast<long long>(p);
    EXPECT_EQ(slot_count(profiler, "ic3/mic", prop), st.mic_queries) << p;
    EXPECT_EQ(slot_count(profiler, "ic3/bad_query", prop), st.bad_queries)
        << p;
    EXPECT_EQ(slot_count(profiler, "ic3/lift", prop), st.lift_queries) << p;
    EXPECT_EQ(slot_count(profiler, "ic3/consecution", prop) +
                  slot_count(profiler, "ic3/push", prop),
              st.consecution_queries)
        << p;
  }

  // The hybrid dispatch ran BMC sweeps over the shared unrolling, and
  // the template path replayed rather than re-encoded.
  EXPECT_GT(profiler.phase_count("bmc/solve"), 0u);
  EXPECT_GT(profiler.phase_count("cnf/replay"), 0u);

  // A profiled run exports a parseable profile whose per-slot counts sum
  // to the phase totals.
  std::ostringstream json;
  profiler.write_json(json);
  Json doc = parse_json_or_die(json.str());
  std::uint64_t exported_mic = 0;
  for (const Json& slot : doc.at("phases").array) {
    if (slot.at("phase").string == "ic3/mic") {
      exported_mic += static_cast<std::uint64_t>(slot.at("count").number);
    }
  }
  EXPECT_EQ(exported_mic, profiler.phase_count("ic3/mic"));
}

TEST(ProfileEndToEnd, ShardedRunTagsSlotsPerShardAndReconciles) {
  aig::Aig aig = gen::make_synthetic(small_multi_cone());
  ts::TransitionSystem ts(aig);

  obs::PhaseProfiler profiler;
  mp::shard::ShardedOptions so;
  so.base.proof_mode = mp::sched::ProofMode::Local;
  so.base.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  so.base.ic3_slice_seconds = 0.05;
  so.base.bmc_depth_per_sweep = 4;
  so.base.bmc_max_depth = 32;
  so.base.engine.lifting_respects_constraints = true;
  so.base.engine.profiler = &profiler;
  so.clustering.min_similarity = 0.3;
  so.clustering.max_cluster_size = 2;
  ASSERT_EQ(so.exchange, mp::exchange::ExchangeMode::Units);
  mp::shard::ShardedScheduler sched(ts, so);
  mp::MultiResult r = sched.run();
  ASSERT_GE(sched.num_shards(), 2u);

  // Delivered units settled without a query are rejections that never
  // reach the profiler, so the consecution samples still equal the
  // counted queries.
  expect_profile_reconciles(profiler, r);
  const std::uint64_t settled = summed(r, &ic3::Ic3Stats::lemmas_settled);
  EXPECT_GT(settled, 0u);
  EXPECT_LE(settled, summed(r, &ic3::Ic3Stats::lemmas_rejected));

  // Every IC3 slot carries a valid shard tag.
  bool saw_ic3_slot = false;
  for (const obs::PhaseProfiler::SlotView& v : profiler.slots()) {
    if (v.phase.rfind("ic3/", 0) == 0 && v.histo->count() > 0) {
      saw_ic3_slot = true;
      EXPECT_GE(v.shard, 0) << v.phase;
      EXPECT_LT(v.shard, static_cast<int>(sched.num_shards())) << v.phase;
      EXPECT_GE(v.property, 0) << v.phase;
    }
  }
  EXPECT_TRUE(saw_ic3_slot);
}

TEST(ProfileEndToEnd, JointRunRecordsAggregateEngineQueries) {
  // The aggregate (Jnt-ver) engines take the same profiler hook as the
  // task engines: their queries land in run-level (untagged) slots and
  // reconcile with the iterations' engine stats.
  aig::Aig aig = gen::make_synthetic(small_multi_cone());
  ts::TransitionSystem ts(aig);

  obs::PhaseProfiler profiler;
  mp::JointOptions jo;
  jo.profiler = &profiler;
  mp::MultiResult r = mp::JointVerifier(ts, jo).run();

  EXPECT_GT(profiler.phase_count("ic3/consecution"), 0u);
  expect_profile_reconciles(profiler, r);
  for (const obs::PhaseProfiler::SlotView& v : profiler.slots()) {
    EXPECT_EQ(v.shard, -1) << v.phase;
    EXPECT_EQ(v.property, -1) << v.phase;
  }
}

TEST(ProfileEndToEnd, UnprofiledRunLeavesABystanderProfilerEmpty) {
  aig::Aig aig = gen::make_synthetic(small_multi_cone());
  ts::TransitionSystem ts(aig);

  obs::PhaseProfiler bystander;
  mp::sched::SchedulerOptions so;
  so.proof_mode = mp::sched::ProofMode::Local;
  so.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  so.ic3_slice_seconds = 0.05;
  so.bmc_depth_per_sweep = 4;
  so.bmc_max_depth = 32;
  mp::MultiResult r = mp::sched::Scheduler(ts, so).run();
  EXPECT_GT(r.per_property.size(), 0u);
  EXPECT_TRUE(bystander.slots().empty());

  std::ostringstream json;
  bystander.write_json(json);
  Json doc = parse_json_or_die(json.str());
  EXPECT_TRUE(doc.at("phases").array.empty());
  std::ostringstream folded;
  bystander.write_folded(folded);
  EXPECT_TRUE(folded.str().empty());
}

}  // namespace
}  // namespace javer
