// Fault-injection and resilience tests (src/fault + the schedulers'
// quarantine/retry machinery): plan grammar and determinism, the degrade
// ladder's pinned rung order, per-task isolation in the WorkerPool, the
// every-site injection matrix (a run under any single fault completes
// with at most the targeted property Unknown and byte-identical verdicts
// elsewhere), post-retry oracle equivalence, persist store retry/crash
// recovery, and the fault.*/retry.* metrics reconciling with the
// per-property failure chains.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "gen/random_design.h"
#include "ic3/ic3.h"
#include "mp/sched/property_task.h"
#include "mp/sched/scheduler.h"
#include "mp/sched/worker_pool.h"
#include "mp/shard/sharded_scheduler.h"
#include "obs/metrics.h"
#include "persist/persist.h"
#include "test_util.h"

namespace javer {
namespace {

namespace fs = std::filesystem;

aig::Aig small_design(std::uint64_t seed, std::size_t props = 4) {
  gen::RandomDesignSpec spec;
  spec.seed = seed;
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_ands = 18;
  spec.num_properties = props;
  return gen::make_random_design(spec);
}

mp::sched::SchedulerOptions local_opts(const std::string& fault_plan = "") {
  mp::sched::SchedulerOptions so;
  so.proof_mode = mp::sched::ProofMode::Local;
  so.dispatch = mp::sched::DispatchPolicy::RunToCompletion;
  so.num_threads = 1;
  so.engine.fault_plan = fault_plan;
  return so;
}

mp::sched::SchedulerOptions hybrid_opts(const std::string& fault_plan = "") {
  mp::sched::SchedulerOptions so = local_opts(fault_plan);
  so.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  so.ic3_slice_seconds = 0.05;
  so.bmc_depth_per_sweep = 4;
  so.bmc_max_depth = 32;
  return so;
}

void expect_same_verdicts(const mp::MultiResult& a, const mp::MultiResult& b,
                          const std::string& tag, long long except = -1) {
  ASSERT_EQ(a.per_property.size(), b.per_property.size()) << tag;
  for (std::size_t p = 0; p < a.per_property.size(); ++p) {
    if (static_cast<long long>(p) == except) continue;
    EXPECT_EQ(a.per_property[p].verdict, b.per_property[p].verdict)
        << tag << " P" << p;
  }
}

void expect_holds_certify(const ts::TransitionSystem& ts,
                          const mp::MultiResult& r) {
  for (std::size_t p = 0; p < r.per_property.size(); ++p) {
    const mp::PropertyResult& pr = r.per_property[p];
    if (pr.verdict == mp::PropertyVerdict::HoldsLocally) {
      testutil::expect_valid_invariant(
          ts, p, mp::sched::local_assumptions(ts, p), pr.invariant);
    } else if (pr.verdict == mp::PropertyVerdict::HoldsGlobally) {
      testutil::expect_valid_invariant(ts, p, {}, pr.invariant);
    }
  }
}

// The first property the fault-free run proves: a good injection target,
// because proving it needs real IC3 work (consecution queries, solver
// clause allocations) that a BMC sweep cannot short-circuit.
long long first_holding_property(const mp::MultiResult& r) {
  for (std::size_t p = 0; p < r.per_property.size(); ++p) {
    if (r.per_property[p].verdict == mp::PropertyVerdict::HoldsLocally ||
        r.per_property[p].verdict == mp::PropertyVerdict::HoldsGlobally) {
      return static_cast<long long>(p);
    }
  }
  return -1;
}

// A holding property that makes a consecution query on every rung: its
// engine in the fault-free run `r` made one; so does an engine that starts
// from a shard prelude another engine built (whose mining already asked
// every singleton query), as the task's engines on the lower rungs may;
// and so does a standalone engine under the degrade ladder's last
// ("isolated") rung. A persistent ic3.consecution fault on it then fires
// on every rung, so the task must run out of rungs. (Some holding
// properties close with no consecution query at all: the mining sweep
// settles or the prelude answers every candidate and the first frame is
// already a fixpoint.)
long long holding_property_needing_consecution(
    const ts::TransitionSystem& ts, const mp::MultiResult& r,
    const mp::sched::EngineOptions& engine) {
  const mp::sched::EngineOptions isolated =
      mp::sched::degrade_for_rung(engine, mp::sched::num_ladder_rungs());
  for (std::size_t p = 0; p < r.per_property.size(); ++p) {
    const mp::PropertyVerdict v = r.per_property[p].verdict;
    if ((v != mp::PropertyVerdict::HoldsLocally &&
         v != mp::PropertyVerdict::HoldsGlobally) ||
        r.per_property[p].engine_stats.consecution_queries == 0) {
      continue;
    }
    ic3::Ic3Options opts;
    if (v == mp::PropertyVerdict::HoldsLocally) {
      opts.assumed = mp::sched::local_assumptions(ts, p);
    }
    opts.lifting_respects_constraints = isolated.lifting_respects_constraints;
    opts.simplify = isolated.simplify;
    ic3::Ic3PreludeMemo memo(std::make_shared<const std::vector<ts::Cube>>());
    ic3::Ic3Options shared = opts;
    shared.prelude_memo = &memo;
    ic3::Ic3(ts, p, shared).run();  // builds the memo
    if (ic3::Ic3(ts, p, shared).run().stats.consecution_queries == 0) {
      continue;
    }
    ic3::Ic3 engine_run(ts, p, opts);
    if (engine_run.run().stats.consecution_queries > 0) {
      return static_cast<long long>(p);
    }
  }
  return -1;
}

// --- plan grammar ------------------------------------------------------------

TEST(FaultPlan, ParsesFullGrammar) {
  fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=7; ic3.mic@3+:prop=2 ; sat.alloc ; task.stall:stall=0.25 ;"
      " bmc.solve:p=0.5");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.entries.size(), 4u);

  EXPECT_EQ(plan.entries[0].site, "ic3.mic");
  EXPECT_EQ(plan.entries[0].at, 3u);
  EXPECT_TRUE(plan.entries[0].persistent);
  EXPECT_EQ(plan.entries[0].prop, 2);

  EXPECT_EQ(plan.entries[1].site, "sat.alloc");
  EXPECT_EQ(plan.entries[1].at, 1u);  // bare site = first hit
  EXPECT_FALSE(plan.entries[1].persistent);
  EXPECT_EQ(plan.entries[1].prop, -1);

  EXPECT_EQ(plan.entries[2].site, "task.stall");
  EXPECT_DOUBLE_EQ(plan.entries[2].stall_seconds, 0.25);

  EXPECT_EQ(plan.entries[3].site, "bmc.solve");
  EXPECT_DOUBLE_EQ(plan.entries[3].probability, 0.5);
}

TEST(FaultPlan, ToStringRoundTrips) {
  const std::string spec =
      "seed=9;persist.store@2+;ic3.consecution@1:prop=0;"
      "task.stall@4:stall=0.125";
  fault::FaultPlan plan = fault::FaultPlan::parse(spec);
  fault::FaultPlan again = fault::FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.seed, plan.seed);
  ASSERT_EQ(again.entries.size(), plan.entries.size());
  for (std::size_t i = 0; i < plan.entries.size(); ++i) {
    EXPECT_EQ(again.entries[i].site, plan.entries[i].site) << i;
    EXPECT_EQ(again.entries[i].at, plan.entries[i].at) << i;
    EXPECT_EQ(again.entries[i].persistent, plan.entries[i].persistent) << i;
    EXPECT_EQ(again.entries[i].prop, plan.entries[i].prop) << i;
    EXPECT_DOUBLE_EQ(again.entries[i].stall_seconds,
                     plan.entries[i].stall_seconds)
        << i;
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultPlan::parse(""), std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("seed=5"), std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("bogus.site"), std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("sat.alloc@0"), std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("sat.alloc@x"), std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("bmc.solve:p=1.5"),
               std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("task.stall:stall=-1"),
               std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("ic3.mic:frob=1"), std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("seed=zz;sat.alloc"),
               std::runtime_error);
}

TEST(FaultPlan, KindIsAPropertyOfTheSite) {
  using fault::FaultKind;
  EXPECT_EQ(fault::kind_for_site("sat.alloc"), FaultKind::BadAlloc);
  EXPECT_EQ(fault::kind_for_site("ic3.consecution"), FaultKind::Error);
  EXPECT_EQ(fault::kind_for_site("ic3.mic"), FaultKind::Error);
  EXPECT_EQ(fault::kind_for_site("bmc.solve"), FaultKind::Error);
  EXPECT_EQ(fault::kind_for_site("persist.store"), FaultKind::IoError);
  EXPECT_EQ(fault::kind_for_site("persist.load"), FaultKind::IoError);
  EXPECT_EQ(fault::kind_for_site("persist.store.crash"), FaultKind::IoCrash);
  EXPECT_EQ(fault::kind_for_site("task.stall"), FaultKind::Stall);
  EXPECT_FALSE(fault::kind_for_site("nope").has_value());
}

// --- injector determinism ----------------------------------------------------

TEST(FaultInjector, OneShotFiresAtExactlyTheNthMatchingHit) {
  fault::FaultInjector inj(fault::FaultPlan::parse("ic3.mic@2:prop=1"));
  // Wrong property: counted nowhere (the prop filter gates the ordinal).
  EXPECT_FALSE(inj.evaluate("ic3.mic", 0).has_value());
  EXPECT_EQ(inj.hits(0), 0u);
  // Matching hits: 1st no, 2nd yes, 3rd no (one-shot).
  EXPECT_FALSE(inj.evaluate("ic3.mic", 1).has_value());
  auto hit = inj.evaluate("ic3.mic", 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, fault::FaultKind::Error);
  EXPECT_EQ(hit->entry, 0u);
  EXPECT_FALSE(inj.evaluate("ic3.mic", 1).has_value());
  EXPECT_EQ(inj.hits(0), 3u);
  EXPECT_EQ(inj.fired(0), 1u);
  EXPECT_EQ(inj.total_fired(), 1u);
}

TEST(FaultInjector, PersistentFiresFromTheNthHitOn) {
  fault::FaultInjector inj(fault::FaultPlan::parse("bmc.solve@2+"));
  EXPECT_FALSE(inj.evaluate("bmc.solve", -1).has_value());
  EXPECT_TRUE(inj.evaluate("bmc.solve", -1).has_value());
  EXPECT_TRUE(inj.evaluate("bmc.solve", -1).has_value());
  EXPECT_EQ(inj.fired(0), 2u);
}

TEST(FaultInjector, ProbabilisticCoinIsSeedDeterministic) {
  const std::string spec = "seed=42;sat.alloc:p=0.35";
  fault::FaultInjector a(fault::FaultPlan::parse(spec));
  fault::FaultInjector b(fault::FaultPlan::parse(spec));
  std::uint64_t fired = 0;
  for (int i = 0; i < 256; ++i) {
    bool fa = a.evaluate("sat.alloc", -1).has_value();
    bool fb = b.evaluate("sat.alloc", -1).has_value();
    EXPECT_EQ(fa, fb) << "draw " << i;
    fired += fa ? 1 : 0;
  }
  // The seeded coin actually mixes: not all-or-nothing over 256 draws.
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 256u);
}

TEST(FaultInjector, CountsFiredEntriesInMetrics) {
  obs::MetricsRegistry metrics;
  fault::FaultInjector inj(fault::FaultPlan::parse("ic3.consecution@1+"));
  inj.set_observability(nullptr, &metrics);
  inj.evaluate("ic3.consecution", -1);
  inj.evaluate("ic3.consecution", -1);
  EXPECT_EQ(metrics.snapshot().counter("fault.injected"), 2u);
}

TEST(ScopedInjection, FirstInstallWinsAndUninstallsOnExit) {
  fault::FaultInjector outer(fault::FaultPlan::parse("sat.alloc@1"));
  fault::FaultInjector inner(fault::FaultPlan::parse("sat.alloc@1"));
  {
    fault::ScopedInjection first(&outer);
    EXPECT_TRUE(first.installed());
    fault::ScopedInjection second(&inner);  // nested scheduler: no-op
    EXPECT_FALSE(second.installed());
    EXPECT_THROW(fault::inject_point("sat.alloc"), std::bad_alloc);
    EXPECT_EQ(outer.total_fired(), 1u);
    EXPECT_EQ(inner.total_fired(), 0u);
  }
  // Slot released: sites are free again.
  fault::inject_point("sat.alloc");
  EXPECT_EQ(outer.total_fired(), 1u);
}

// --- the degrade ladder (pinned) ---------------------------------------------

TEST(DegradeLadder, RungOrderIsPinned) {
  using mp::sched::degrade_for_rung;
  ASSERT_EQ(mp::sched::num_ladder_rungs(), 2);
  EXPECT_STREQ(mp::sched::rung_name(0), "default");
  EXPECT_STREQ(mp::sched::rung_name(1), "simplify-off");
  EXPECT_STREQ(mp::sched::rung_name(2), "isolated");

  mp::sched::EngineOptions base;
  base.simplify = true;
  base.clause_reuse = true;
  base.sim_filter.mode = mp::simfilter::SimFilterMode::Full;

  mp::sched::EngineOptions r1 = degrade_for_rung(base, 1);
  EXPECT_FALSE(r1.simplify);
  EXPECT_TRUE(r1.clause_reuse);
  EXPECT_EQ(r1.sim_filter.mode, mp::simfilter::SimFilterMode::Full);

  mp::sched::EngineOptions r2 = degrade_for_rung(base, 2);
  EXPECT_FALSE(r2.simplify);  // cumulative
  EXPECT_FALSE(r2.clause_reuse);
  EXPECT_EQ(r2.sim_filter.mode, mp::simfilter::SimFilterMode::Off);

  // Degrading an already-degraded config is idempotent.
  mp::sched::EngineOptions twice = degrade_for_rung(r2, 2);
  EXPECT_EQ(twice.simplify, r2.simplify);
  EXPECT_EQ(twice.clause_reuse, r2.clause_reuse);
}

// --- worker-pool isolation ---------------------------------------------------

TEST(WorkerPool, IsolatesAThrowingItemByDefault) {
  mp::sched::WorkerPool pool(1);  // single-threaded: deterministic order
  std::vector<int> ran(6, 0);
  auto fn = [&](std::size_t i) {
    ran[i] = 1;
    if (i == 2) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.run(ran.size(), fn), std::runtime_error);
  // Every sibling of the bad item still ran.
  for (std::size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i], 1) << i;
}

TEST(WorkerPool, FailFastSkipsTheRemainingQueue) {
  mp::sched::WorkerPool pool(1);
  pool.set_fail_fast(true);
  std::vector<int> ran(6, 0);
  auto fn = [&](std::size_t i) {
    ran[i] = 1;
    if (i == 2) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.run(ran.size(), fn), std::runtime_error);
  EXPECT_EQ(ran[0], 1);
  EXPECT_EQ(ran[1], 1);
  EXPECT_EQ(ran[2], 1);  // the throwing item itself started
  EXPECT_EQ(ran[3], 0);
  EXPECT_EQ(ran[4], 0);
  EXPECT_EQ(ran[5], 0);
}

// --- scheduler: recovery, exhaustion, site matrix ----------------------------

TEST(FaultRecovery, OneShotFaultRetriesOnceAndMatchesFaultFree) {
  aig::Aig aig = small_design(31);
  ts::TransitionSystem ts(aig);
  mp::MultiResult clean = mp::sched::Scheduler(ts, local_opts()).run();
  long long target = first_holding_property(clean);
  ASSERT_GE(target, 0) << "need a holding property to inject under";

  obs::MetricsRegistry metrics;
  mp::sched::SchedulerOptions so = local_opts(
      "ic3.consecution@1:prop=" + std::to_string(target));
  so.engine.metrics = &metrics;
  mp::MultiResult faulty = mp::sched::Scheduler(ts, so).run();

  // The retry recovered: identical verdicts everywhere, one rung climbed.
  expect_same_verdicts(clean, faulty, "one-shot");
  const mp::PropertyResult& pr = faulty.per_property[target];
  EXPECT_EQ(pr.retries, 1);
  EXPECT_EQ(pr.final_rung, 1);
  ASSERT_EQ(pr.failure_chain.size(), 1u);
  EXPECT_EQ(pr.failure_chain[0].rfind("default: ", 0), 0u)
      << pr.failure_chain[0];
  // The recovered verdict survived the post-retry oracle.
  expect_holds_certify(ts, faulty);

  obs::MetricsSnapshot ms = metrics.snapshot();
  EXPECT_EQ(ms.counter("fault.injected"), 1u);
  EXPECT_EQ(ms.counter("fault.caught"), 1u);
  EXPECT_EQ(ms.counter("retry.attempts"), 1u);
  EXPECT_EQ(ms.counter("retry.recovered"), 1u);
  EXPECT_EQ(ms.counter("retry.exhausted"), 0u);
}

TEST(FaultRecovery, PersistentFaultClimbsEveryRungThenClosesUnknown) {
  aig::Aig aig = small_design(31);
  ts::TransitionSystem ts(aig);
  mp::MultiResult clean = mp::sched::Scheduler(ts, local_opts()).run();
  long long target = first_holding_property(clean);
  ASSERT_GE(target, 0);

  obs::MetricsRegistry metrics;
  mp::sched::SchedulerOptions so = local_opts(
      "ic3.consecution@1+:prop=" + std::to_string(target));
  so.engine.metrics = &metrics;
  mp::MultiResult faulty = mp::sched::Scheduler(ts, so).run();

  // Siblings are untouched; only the target degrades to Unknown.
  expect_same_verdicts(clean, faulty, "persistent", target);
  const mp::PropertyResult& pr = faulty.per_property[target];
  EXPECT_EQ(pr.verdict, mp::PropertyVerdict::Unknown);
  EXPECT_EQ(pr.retries, 4);
  EXPECT_EQ(pr.final_rung, 2);
  // One failure per attempt: every rung in the pinned ladder order, then
  // the last rung again until the retries run out.
  ASSERT_EQ(pr.failure_chain.size(), 5u);
  const char* rungs[] = {"default: ", "simplify-off: ", "isolated: ",
                         "isolated: ", "isolated: "};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(pr.failure_chain[i].rfind(rungs[i], 0), 0u)
        << i << ": " << pr.failure_chain[i];
  }
  expect_holds_certify(ts, faulty);

  // Run-level counters reconcile with the per-property chains.
  obs::MetricsSnapshot ms = metrics.snapshot();
  std::uint64_t chain_total = 0, retries_total = 0;
  for (const mp::PropertyResult& r : faulty.per_property) {
    chain_total += r.failure_chain.size();
    retries_total += static_cast<std::uint64_t>(r.retries);
  }
  EXPECT_EQ(ms.counter("fault.caught"), chain_total);
  EXPECT_EQ(ms.counter("retry.attempts"), retries_total);
  EXPECT_EQ(ms.counter("retry.exhausted"), 1u);
  EXPECT_EQ(ms.counter("retry.recovered"), 0u);
}

TEST(FaultMatrix, EveryThrowingSiteLeavesSiblingsByteIdentical) {
  // The first design, from seed 47 on, with a holding property that needs
  // a consecution query on every rung.
  for (std::uint64_t seed = 47; seed < 47 + 32; ++seed) {
    aig::Aig aig = small_design(seed, 5);
    ts::TransitionSystem ts(aig);
    mp::MultiResult clean = mp::sched::Scheduler(ts, hybrid_opts()).run();
    long long target =
        holding_property_needing_consecution(ts, clean, hybrid_opts().engine);
    if (target < 0) continue;

    // Sites that are guaranteed to be exercised while proving this
    // holding property; persistent faults there must quarantine exactly
    // the target.
    for (const char* site : {"sat.alloc", "ic3.consecution"}) {
      mp::sched::SchedulerOptions so = hybrid_opts(
          std::string(site) + "@1+:prop=" + std::to_string(target));
      mp::MultiResult faulty = mp::sched::Scheduler(ts, so).run();
      expect_same_verdicts(clean, faulty, site, target);
      EXPECT_EQ(faulty.per_property[target].verdict,
                mp::PropertyVerdict::Unknown)
          << site << " seed " << seed << " P" << target;
      EXPECT_GT(faulty.per_property[target].retries, 0) << site;
      expect_holds_certify(ts, faulty);
    }

    // ic3.mic only fires when generalization runs; either the target
    // closed identically (fault never hit) or it was quarantined — never
    // a flip.
    mp::sched::SchedulerOptions so =
        hybrid_opts("ic3.mic@1+:prop=" + std::to_string(target));
    mp::MultiResult faulty = mp::sched::Scheduler(ts, so).run();
    expect_same_verdicts(clean, faulty, "ic3.mic", target);
    const mp::PropertyVerdict v = faulty.per_property[target].verdict;
    EXPECT_TRUE(v == clean.per_property[target].verdict ||
                v == mp::PropertyVerdict::Unknown)
        << "ic3.mic flipped the target verdict";
    expect_holds_certify(ts, faulty);
    return;
  }
  FAIL() << "no design with a holding property that needs a consecution query";
}

TEST(FaultMatrix, BmcSweepFaultQuarantinesTheSweepNotTheRun) {
  aig::Aig aig = small_design(47, 5);
  ts::TransitionSystem ts(aig);
  mp::MultiResult clean = mp::sched::Scheduler(ts, hybrid_opts()).run();

  obs::MetricsRegistry metrics;
  mp::sched::SchedulerOptions so = hybrid_opts("bmc.solve@1+");
  so.engine.metrics = &metrics;
  mp::MultiResult faulty = mp::sched::Scheduler(ts, so).run();

  // The sweep is disabled after the first failure; IC3 still closes every
  // property with the same verdicts.
  expect_same_verdicts(clean, faulty, "bmc-sweep");
  EXPECT_GE(metrics.snapshot().counter("fault.caught"), 1u);
  expect_holds_certify(ts, faulty);
}

TEST(FaultMatrix, ShardedRunSurvivesATargetedFault) {
  mp::shard::ShardedOptions base;
  base.base = hybrid_opts();
  base.clustering.min_similarity = 0.3;
  base.clustering.max_cluster_size = 2;
  // The first design, from seed 53 on, with a holding property that needs
  // a consecution query on every rung.
  for (std::uint64_t seed = 53; seed < 53 + 8; ++seed) {
    aig::Aig aig = small_design(seed, 6);
    ts::TransitionSystem ts(aig);
    mp::MultiResult clean = mp::shard::ShardedScheduler(ts, base).run();
    long long target =
        holding_property_needing_consecution(ts, clean, base.base.engine);
    if (target < 0) continue;

    mp::shard::ShardedOptions so = base;
    so.base.engine.fault_plan =
        "ic3.consecution@1+:prop=" + std::to_string(target);
    mp::MultiResult faulty = mp::shard::ShardedScheduler(ts, so).run();
    expect_same_verdicts(clean, faulty, "sharded", target);
    EXPECT_EQ(faulty.per_property[target].verdict,
              mp::PropertyVerdict::Unknown)
        << "seed " << seed << " P" << target;
    expect_holds_certify(ts, faulty);
    return;
  }
  FAIL() << "no design with a holding property that needs a consecution query";
}

TEST(FaultMatrix, TaskStallDelaysButDoesNotChangeVerdicts) {
  aig::Aig aig = small_design(31);
  ts::TransitionSystem ts(aig);
  mp::MultiResult clean = mp::sched::Scheduler(ts, local_opts()).run();

  obs::MetricsRegistry metrics;
  mp::sched::SchedulerOptions so =
      local_opts("task.stall@1:stall=0.05,prop=0");
  so.engine.metrics = &metrics;
  mp::MultiResult faulty = mp::sched::Scheduler(ts, so).run();
  expect_same_verdicts(clean, faulty, "stall");
  EXPECT_EQ(faulty.per_property[0].retries, 0);
  EXPECT_EQ(metrics.snapshot().counter("fault.injected"), 1u);
}

// --- persist: transient-store retry, crash recovery --------------------------

std::string fresh_dir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("javer_fault_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::size_t count_tmp_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().find(".jvpc.tmp.") != std::string::npos) {
      n++;
    }
  }
  return n;
}

TEST(PersistFault, TransientStoreErrorRetriesAndLands) {
  aig::Aig aig = small_design(12, 3);
  ts::TransitionSystem ts(aig);
  const std::string dir = fresh_dir("retry");
  persist::PersistCache cache(dir);
  const std::uint64_t fp = aig::fingerprint(aig);
  const std::uint64_t sig = persist::index_set_signature({0, 1});
  std::vector<ts::Cube> cubes{{ts::StateLit{0, true}},
                              {ts::StateLit{1, false}, ts::StateLit{3, true}}};

  fault::FaultInjector inj(fault::FaultPlan::parse("persist.store@1"));
  fault::ScopedInjection scope(&inj);
  ASSERT_TRUE(scope.installed());
  cache.store_clause_db(fp, sig, cubes);

  // One transient failure, absorbed by the retry loop: the entry landed.
  persist::PersistStats st = cache.stats();
  EXPECT_GE(st.store_retries, 1u);
  EXPECT_EQ(st.store_errors, 0u);
  EXPECT_EQ(st.dbs_stored, 1u);
  auto loaded = cache.load_clause_db(ts, fp, sig);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, cubes);
}

TEST(PersistFault, PersistentStoreErrorExhaustsAttempts) {
  aig::Aig aig = small_design(12, 3);
  ts::TransitionSystem ts(aig);
  const std::string dir = fresh_dir("exhaust");
  persist::PersistCache cache(dir);
  const std::uint64_t fp = aig::fingerprint(aig);
  const std::uint64_t sig = persist::index_set_signature({0, 1});

  fault::FaultInjector inj(fault::FaultPlan::parse("persist.store@1+"));
  fault::ScopedInjection scope(&inj);
  ASSERT_TRUE(scope.installed());
  cache.store_clause_db(fp, sig, {{ts::StateLit{0, true}}});

  persist::PersistStats st = cache.stats();
  EXPECT_EQ(st.store_errors, 1u);
  EXPECT_EQ(st.store_retries, 2u);  // attempts 2 and 3
  EXPECT_EQ(st.dbs_stored, 0u);
  // Nothing half-written is left for a reader to trip over.
  EXPECT_EQ(count_tmp_files(dir), 0u);
}

TEST(PersistFault, MidWriteCrashLeavesOrphanThatGcSweeps) {
  aig::Aig aig = small_design(12, 3);
  ts::TransitionSystem ts(aig);
  const std::string dir = fresh_dir("crash");
  persist::PersistCache cache(dir);
  const std::uint64_t fp = aig::fingerprint(aig);
  const std::uint64_t sig = persist::index_set_signature({0, 1});

  {
    fault::FaultInjector inj(
        fault::FaultPlan::parse("persist.store.crash@1"));
    fault::ScopedInjection scope(&inj);
    ASSERT_TRUE(scope.installed());
    cache.store_clause_db(fp, sig, {{ts::StateLit{0, true}}});
  }
  // The simulated crash abandoned a partial staging file...
  EXPECT_EQ(cache.stats().store_errors, 1u);
  EXPECT_EQ(count_tmp_files(dir), 1u);
  // ...which never shadows the real entry (different name)...
  EXPECT_FALSE(cache.load_clause_db(ts, fp, sig).has_value());
  // ...and the next GC pass sweeps it.
  persist::GcStats gc = persist::collect_garbage(dir);
  EXPECT_GE(gc.removed_stale_tmp, 1u);
  EXPECT_EQ(count_tmp_files(dir), 0u);
}

TEST(PersistFault, InjectedLoadErrorDegradesToAMiss) {
  aig::Aig aig = small_design(12, 3);
  ts::TransitionSystem ts(aig);
  const std::string dir = fresh_dir("load");
  persist::PersistCache cache(dir);
  const std::uint64_t fp = aig::fingerprint(aig);
  const std::uint64_t sig = persist::index_set_signature({0, 1});
  std::vector<ts::Cube> cubes{{ts::StateLit{2, true}}};
  cache.store_clause_db(fp, sig, cubes);

  fault::FaultInjector inj(fault::FaultPlan::parse("persist.load@1"));
  fault::ScopedInjection scope(&inj);
  ASSERT_TRUE(scope.installed());
  // First load hits the injected I/O error: a counted miss, not a crash.
  EXPECT_FALSE(cache.load_clause_db(ts, fp, sig).has_value());
  EXPECT_EQ(cache.stats().load_errors, 1u);
  // The entry itself is intact; the next load serves it.
  auto loaded = cache.load_clause_db(ts, fp, sig);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, cubes);
}

}  // namespace
}  // namespace javer
