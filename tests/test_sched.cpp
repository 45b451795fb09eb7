// Scheduler tests: verdict equivalence between every dispatch policy and
// the explicit-state oracle (and hence the legacy verifiers, which are now
// thin presets over the scheduler), plus IC3 suspend/resume — a
// budget-sliced run must reach the same verdict and a certifiable
// strengthening as a one-shot run — and PropertyTask's engine lifetime:
// every close path frees the engine and keeps the result row intact.
#include <gtest/gtest.h>

#include <algorithm>

#include "fault/fault.h"
#include "gen/counter.h"
#include "gen/random_design.h"
#include "gen/synthetic.h"
#include "ic3/ic3.h"
#include "mp/sched/bmc_sweep.h"
#include "mp/sched/property_task.h"
#include "mp/sched/scheduler.h"
#include "mp/shard/sharded_scheduler.h"
#include "obs/metrics.h"
#include "ref/explicit_checker.h"
#include "test_util.h"
#include "ts/cone_view.h"
#include "ts/trace.h"

namespace javer::mp::sched {
namespace {

SchedulerOptions hybrid_opts() {
  SchedulerOptions so;
  so.proof_mode = ProofMode::Local;
  so.dispatch = DispatchPolicy::HybridBmcIc3;
  // Small slices and windows so suspensions and multiple rounds actually
  // happen on the tiny test designs.
  so.ic3_slice_seconds = 0.05;
  so.bmc_depth_per_sweep = 4;
  so.bmc_max_depth = 32;
  return so;
}

void expect_verdicts_match_oracle(const ts::TransitionSystem& ts,
                                  const MultiResult& result,
                                  const ref::ExplicitResult& oracle,
                                  bool local, const std::string& tag) {
  ASSERT_EQ(result.per_property.size(), ts.num_properties()) << tag;
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const PropertyResult& pr = result.per_property[p];
    bool fails = local ? oracle.fails_locally(p) : oracle.fails_globally(p);
    if (fails) {
      EXPECT_EQ(pr.verdict, local ? PropertyVerdict::FailsLocally
                                  : PropertyVerdict::FailsGlobally)
          << tag << " P" << p;
    } else {
      EXPECT_EQ(pr.verdict, local ? PropertyVerdict::HoldsLocally
                                  : PropertyVerdict::HoldsGlobally)
          << tag << " P" << p;
    }
  }
}

class SchedPolicyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedPolicyTest, AllPoliciesMatchOracle) {
  gen::RandomDesignSpec spec;
  spec.seed = GetParam();
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_ands = 18;
  spec.num_properties = 4;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult oracle = ref::explicit_check(ts);

  // Local proofs, run-to-completion (the JA preset).
  {
    SchedulerOptions so;
    so.proof_mode = ProofMode::Local;
    MultiResult r = Scheduler(ts, so).run();
    expect_verdicts_match_oracle(ts, r, oracle, /*local=*/true, "ja");
  }
  // Global proofs, run-to-completion (the Sep-glob preset).
  {
    SchedulerOptions so;
    so.proof_mode = ProofMode::Global;
    so.engine.clause_reuse = false;
    MultiResult r = Scheduler(ts, so).run();
    expect_verdicts_match_oracle(ts, r, oracle, /*local=*/false, "sep-glob");
  }
  // Local proofs on the worker pool (the parallel JA preset).
  {
    SchedulerOptions so;
    so.proof_mode = ProofMode::Local;
    so.num_threads = 2;
    MultiResult r = Scheduler(ts, so).run();
    expect_verdicts_match_oracle(ts, r, oracle, /*local=*/true, "parallel");
  }
  // The hybrid BMC/IC3 interleaving policy.
  {
    MultiResult r = Scheduler(ts, hybrid_opts()).run();
    expect_verdicts_match_oracle(ts, r, oracle, /*local=*/true, "hybrid");
    // Hybrid proofs still export certifiable strengthenings.
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const PropertyResult& pr = r.per_property[p];
      if (pr.verdict == PropertyVerdict::HoldsLocally) {
        std::vector<std::size_t> assumed;
        for (std::size_t j = 0; j < ts.num_properties(); ++j) {
          if (j != p) assumed.push_back(j);
        }
        testutil::expect_valid_invariant(ts, p, assumed, pr.invariant);
      } else if (pr.verdict == PropertyVerdict::FailsLocally) {
        std::vector<std::size_t> assumed;
        for (std::size_t j = 0; j < ts.num_properties(); ++j) {
          if (j != p) assumed.push_back(j);
        }
        EXPECT_TRUE(ts::is_local_cex(ts, pr.cex, p, assumed))
            << "hybrid P" << p;
      }
    }
  }
  // Joint aggregation: every FailsGlobally verdict it produces must be a
  // genuine global failure, and a fully-Holds outcome must match the
  // oracle exactly (a failing aggregate CEX refutes *some* failing subset,
  // so partial fail sets are a subset of the oracle's).
  {
    SchedulerOptions so;
    so.dispatch = DispatchPolicy::JointAggregate;
    MultiResult r = Scheduler(ts, so).run();
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const PropertyResult& pr = r.per_property[p];
      if (pr.verdict == PropertyVerdict::FailsGlobally) {
        EXPECT_TRUE(oracle.fails_globally(p)) << "joint P" << p;
      } else {
        EXPECT_EQ(pr.verdict, PropertyVerdict::HoldsGlobally)
            << "joint P" << p;
        EXPECT_FALSE(oracle.fails_globally(p)) << "joint P" << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedPolicyTest,
                         ::testing::Range<std::uint64_t>(300, 320));

TEST(Scheduler, HybridOnSyntheticFailingDesign) {
  // A Table III-class substrate: shallow failures for the BMC sweeps, a
  // masked deep failure that must be proven *locally true*, and true
  // filler properties for the IC3 slices.
  gen::SyntheticSpec spec;
  spec.seed = 91;
  spec.wrap_counter_bits = 10;
  spec.rings = 1;
  spec.ring_size = 5;
  spec.ring_props = 5;
  spec.pair_props = 2;
  spec.unreachable_props = 2;
  spec.det_fail_props = 1;
  spec.input_fail_props = 1;
  spec.masked_fail_props = 1;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);

  MultiResult hybrid = Scheduler(ts, hybrid_opts()).run();
  SchedulerOptions ja;
  ja.proof_mode = ProofMode::Local;
  MultiResult reference = Scheduler(ts, ja).run();

  ASSERT_EQ(hybrid.per_property.size(), reference.per_property.size());
  for (std::size_t p = 0; p < hybrid.per_property.size(); ++p) {
    EXPECT_EQ(hybrid.per_property[p].verdict,
              reference.per_property[p].verdict)
        << "P" << p;
  }
  EXPECT_EQ(hybrid.debugging_set(), reference.debugging_set());
}

TEST(BmcSweepStats, SatWorkOfEveryContextReconcilesWithTheRegistry) {
  gen::SyntheticSpec spec;
  spec.seed = 91;
  spec.wrap_counter_bits = 6;
  spec.rings = 1;
  spec.ring_size = 5;
  spec.ring_props = 5;
  spec.pair_props = 2;
  spec.det_fail_props = 1;
  spec.input_fail_props = 2;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);
  obs::MetricsRegistry metrics;
  SchedulerOptions so = hybrid_opts();
  so.engine.metrics = &metrics;
  so.engine.sim_filter.seed_window = 4;

  // Two sweeps over halves of the properties, one of them also running a
  // near-miss seed window from the initial state for every property.
  std::vector<std::unique_ptr<PropertyTask>> tasks;
  std::vector<PropertyTask*> halves[2];
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    tasks.push_back(std::make_unique<PropertyTask>(
        ts, p, local_assumptions(ts, p), so.engine, /*local_mode=*/true));
    halves[p % 2].push_back(tasks.back().get());
  }
  BmcSweep a(ts, so, 0), b(ts, so, 1);
  std::vector<simfilter::NearMissSeed> seeds;
  for (std::size_t p = 0; p < ts.num_properties(); p += 2) {
    simfilter::NearMissSeed seed;
    seed.prop = p;
    seed.prefix.steps.push_back(
        ts::Step{ts.initial_state(), std::vector<bool>(ts.num_inputs())});
    seeds.push_back(std::move(seed));
  }
  a.add_near_miss_seeds(std::move(seeds));
  for (int round = 0; round < 8 && !(a.exhausted() && b.exhausted());
       ++round) {
    a.sweep(halves[0], 0.0);
    b.sweep(halves[1], 0.0);
  }

  const obs::MetricsSnapshot ms = metrics.snapshot();
  const sat::SolverStats& sa = a.sat_stats();
  const sat::SolverStats& sb = b.sat_stats();
  EXPECT_GT(sa.propagations, 0u);
  EXPECT_GT(sb.propagations, 0u);
  EXPECT_GT(sa.decisions + sb.decisions, 0u);
  EXPECT_EQ(ms.counter("bmc.sat_propagations"),
            sa.propagations + sb.propagations);
  EXPECT_EQ(ms.counter("bmc.sat_conflicts"), sa.conflicts + sb.conflicts);
  EXPECT_EQ(ms.counter("bmc.sat_decisions"), sa.decisions + sb.decisions);
  // BMC work stays out of the IC3 engines' sat.* counters.
  EXPECT_EQ(ms.counter("sat.propagations"), 0u);
  for (auto& t : tasks) t->close_unknown();
}

TEST(Scheduler, RespectsTotalTimeLimit) {
  gen::SyntheticSpec spec;
  spec.seed = 92;
  spec.wrap_counter_bits = 16;
  spec.rings = 2;
  spec.ring_size = 8;
  spec.ring_props = 16;
  spec.pair_props = 8;
  spec.unreachable_props = 8;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);

  SchedulerOptions so = hybrid_opts();
  so.engine.total_time_limit = 0.2;
  Timer timer;
  MultiResult r = Scheduler(ts, so).run();
  EXPECT_LT(timer.seconds(), 5.0);
  // Every property still gets a (possibly Unknown) verdict slot.
  EXPECT_EQ(r.per_property.size(), ts.num_properties());
}

TEST(Scheduler, TasksTheBudgetNeverStartsStillClose) {
  // RunToCompletion whose total budget is gone before the first task
  // starts: every task must still close exactly once, as Unknown, both in
  // the trivial partition and in the clustered one.
  gen::SyntheticSpec spec;
  spec.seed = 92;
  spec.wrap_counter_bits = 16;
  spec.rings = 2;
  spec.ring_size = 8;
  spec.ring_props = 16;
  spec.pair_props = 8;
  spec.unreachable_props = 8;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);
  ASSERT_EQ(ts.num_properties(), 32u);

  for (bool sharded : {false, true}) {
    obs::MetricsRegistry metrics;
    SchedulerOptions so;
    so.proof_mode = ProofMode::Local;
    so.dispatch = DispatchPolicy::RunToCompletion;
    so.engine.total_time_limit = 1e-6;
    so.engine.metrics = &metrics;
    MultiResult r;
    if (sharded) {
      shard::ShardedOptions sh;
      sh.base = so;
      r = shard::ShardedScheduler(ts, sh).run();
    } else {
      r = Scheduler(ts, so).run();
    }
    EXPECT_EQ(metrics.counter("task.closed"), ts.num_properties())
        << (sharded ? "sharded" : "unsharded");
    ASSERT_EQ(r.per_property.size(), ts.num_properties());
    for (std::size_t p = 0; p < r.per_property.size(); ++p) {
      EXPECT_EQ(r.per_property[p].verdict, PropertyVerdict::Unknown)
          << (sharded ? "sharded P" : "unsharded P") << p;
    }
  }
}

// --- IC3 suspend/resume ----------------------------------------------------

class SuspendResumeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SuspendResumeTest, SlicedRunMatchesOneShot) {
  gen::RandomDesignSpec spec;
  spec.seed = GetParam();
  spec.num_latches = 5;
  spec.num_inputs = 2;
  spec.num_ands = 24;
  spec.num_properties = 3;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);

  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    ic3::Ic3 one_shot(ts, p);
    ic3::Ic3Result reference = one_shot.run();
    ASSERT_NE(reference.status, CheckStatus::Unknown);

    // Conflict-sliced: resume until terminal. The tiny slice forces many
    // suspensions on any non-trivial property.
    ic3::Ic3 sliced(ts, p);
    ic3::Ic3Budget budget;
    budget.conflict_slice = 8;
    ic3::Ic3Result r;
    int slices = 0;
    do {
      r = sliced.run(budget);
      ASSERT_LT(++slices, 100000) << "sliced run failed to converge";
    } while (r.status == CheckStatus::Unknown && r.resumable);

    EXPECT_EQ(r.status, reference.status) << "P" << p;
    if (r.status == CheckStatus::Holds) {
      // The strengthening found through suspensions must be independently
      // certifiable, like the one-shot one.
      testutil::expect_valid_invariant(ts, p, {}, r.invariant);
      testutil::expect_valid_invariant(ts, p, {}, reference.invariant);
    } else if (r.status == CheckStatus::Fails) {
      EXPECT_TRUE(ts::is_global_cex(ts, r.cex, p)) << "P" << p;
      EXPECT_EQ(r.cex.length(), reference.cex.length())
          << "sliced CEX must stay shortest (P" << p << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuspendResumeTest,
                         ::testing::Range<std::uint64_t>(500, 515));

TEST(SuspendResume, TimeSlicedCounterProof) {
  // An 8-bit counter with a true property needs real frame work; drive it
  // with wall-clock micro-slices and check the invariant survives.
  aig::Aig aig = gen::make_counter({.bits = 8, .buggy = false});
  ts::TransitionSystem ts(aig);
  ic3::Ic3 sliced(ts, 1);
  ic3::Ic3Budget budget;
  budget.time_slice_seconds = 0.002;
  ic3::Ic3Result r;
  do {
    r = sliced.run(budget);
  } while (r.status == CheckStatus::Unknown && r.resumable);
  ASSERT_EQ(r.status, CheckStatus::Holds);
  testutil::expect_valid_invariant(ts, 1, {}, r.invariant);
}

TEST(SuspendResume, CumulativeStatsAndFramesSurviveSuspension) {
  aig::Aig aig = gen::make_counter({.bits = 6, .buggy = false});
  ts::TransitionSystem ts(aig);
  ic3::Ic3 sliced(ts, 1);
  ic3::Ic3Budget budget;
  budget.conflict_slice = 4;
  std::uint64_t last_queries = 0;
  int last_frames = 0;
  ic3::Ic3Result r;
  do {
    r = sliced.run(budget);
    // Stats are cumulative over the engine lifetime, frames never shrink.
    EXPECT_GE(r.stats.consecution_queries, last_queries);
    EXPECT_GE(r.frames, last_frames);
    last_queries = r.stats.consecution_queries;
    last_frames = r.frames;
  } while (r.status == CheckStatus::Unknown && r.resumable);
  EXPECT_EQ(r.status, CheckStatus::Holds);
}

TEST(SuspendResume, HardLimitIsNotResumable) {
  gen::CounterSpec cs;
  cs.bits = 12;
  aig::Aig aig = gen::make_counter(cs);
  ts::TransitionSystem ts(aig);
  ic3::Ic3Options opts;
  opts.max_frames = 2;  // hard stop long before the proof converges
  ic3::Ic3 engine(ts, 1, opts);
  ic3::Ic3Result r = engine.run(ic3::Ic3Budget{});
  EXPECT_EQ(r.status, CheckStatus::Unknown);
  EXPECT_FALSE(r.resumable);
}

// --- PropertyTask engine lifetime --------------------------------------------

// The registry is folded once at close from the result row, after the
// engine is gone: it must carry exactly the final engine's stats.
void expect_folded_once(obs::MetricsRegistry& metrics,
                        const PropertyResult& pr) {
  const obs::MetricsSnapshot m = metrics.snapshot();
  EXPECT_EQ(m.counter("task.closed"), 1u);
  EXPECT_EQ(m.counter("ic3.consecution_queries"),
            pr.engine_stats.consecution_queries);
  EXPECT_EQ(m.counter("ic3.bad_queries"), pr.engine_stats.bad_queries);
  EXPECT_EQ(m.counter("ic3.clauses_added"), pr.engine_stats.clauses_added);
  EXPECT_EQ(m.counter("sat.propagations"), pr.engine_stats.sat_propagations);
}

// A bare engine with the options a default-configured task builds; the
// task's unbudgeted slice must report exactly its stats.
void expect_same_stats_as_bare_engine(const ts::TransitionSystem& ts,
                                      std::size_t prop,
                                      const PropertyResult& pr) {
  ic3::Ic3Result bare = ic3::Ic3(ts, prop).run();
  EXPECT_EQ(pr.engine_stats.consecution_queries,
            bare.stats.consecution_queries);
  EXPECT_EQ(pr.engine_stats.bad_queries, bare.stats.bad_queries);
  EXPECT_EQ(pr.engine_stats.lift_queries, bare.stats.lift_queries);
  EXPECT_EQ(pr.engine_stats.clauses_added, bare.stats.clauses_added);
  EXPECT_EQ(pr.engine_stats.sat_propagations, bare.stats.sat_propagations);
  EXPECT_EQ(pr.engine_stats.sat_conflicts, bare.stats.sat_conflicts);
  EXPECT_EQ(pr.frames, bare.frames);
}

TEST(TaskLifetime, HoldsFromASliceFreesTheEngine) {
  aig::Aig aig = gen::make_counter({.bits = 6, .buggy = false});
  ts::TransitionSystem ts(aig);
  obs::MetricsRegistry metrics;
  EngineOptions engine;
  engine.metrics = &metrics;
  PropertyTask task(ts, 1, {}, engine, /*local_mode=*/false);
  EXPECT_FALSE(task.has_engine());
  task.run_slice(TaskBudget{}, nullptr);
  ASSERT_EQ(task.state(), TaskState::Holds);
  EXPECT_FALSE(task.has_engine());
  const PropertyResult& pr = task.result();
  EXPECT_EQ(pr.verdict, PropertyVerdict::HoldsGlobally);
  EXPECT_FALSE(pr.invariant.empty());
  testutil::expect_valid_invariant(ts, 1, {}, pr.invariant);
  expect_same_stats_as_bare_engine(ts, 1, pr);
  expect_folded_once(metrics, pr);
}

TEST(TaskLifetime, FailsFromASliceFreesTheEngine) {
  aig::Aig aig = gen::make_counter({.bits = 4, .buggy = true});
  ts::TransitionSystem ts(aig);
  obs::MetricsRegistry metrics;
  EngineOptions engine;
  engine.metrics = &metrics;
  PropertyTask task(ts, 1, {}, engine, /*local_mode=*/false);
  task.run_slice(TaskBudget{}, nullptr);
  ASSERT_EQ(task.state(), TaskState::Fails);
  EXPECT_FALSE(task.has_engine());
  const PropertyResult& pr = task.result();
  EXPECT_EQ(pr.verdict, PropertyVerdict::FailsGlobally);
  EXPECT_TRUE(ts::is_global_cex(ts, pr.cex, 1));
  expect_same_stats_as_bare_engine(ts, 1, pr);
  expect_folded_once(metrics, pr);
}

// Closes from outside a slice: the task is mid-proof (engine live) when
// the BMC sweep or the scheduler's budget closes it.
TEST(TaskLifetime, ExternalClosesFreeTheEngine) {
  aig::Aig aig = gen::make_counter({.bits = 8, .buggy = false});
  ts::TransitionSystem ts(aig);
  TaskBudget budget;
  budget.conflicts = 4;
  for (bool by_bmc : {true, false}) {
    obs::MetricsRegistry metrics;
    EngineOptions engine;
    engine.metrics = &metrics;
    PropertyTask task(ts, 1, {}, engine, /*local_mode=*/false);
    task.run_slice(budget, nullptr);
    ASSERT_TRUE(task.open());
    EXPECT_TRUE(task.has_engine());
    const ic3::Ic3Stats open_stats = task.result().engine_stats;
    if (by_bmc) {
      task.resolve_fails(ts::Trace{}, 3);
      EXPECT_EQ(task.result().verdict, PropertyVerdict::FailsGlobally);
      EXPECT_EQ(task.result().frames, 3);
    } else {
      task.close_unknown();
      EXPECT_EQ(task.result().verdict, PropertyVerdict::Unknown);
    }
    EXPECT_FALSE(task.has_engine()) << (by_bmc ? "resolve_fails" : "unknown");
    // The row keeps the last slice's stats.
    EXPECT_EQ(task.result().engine_stats.bad_queries, open_stats.bad_queries);
    EXPECT_EQ(task.result().engine_stats.sat_propagations,
              open_stats.sat_propagations);
    EXPECT_GT(open_stats.bad_queries, 0u);
    expect_folded_once(metrics, task.result());
  }
}

TEST(TaskLifetime, ExhaustedRetryLadderFreesTheEngine) {
  aig::Aig aig = gen::make_counter({.bits = 6, .buggy = false});
  ts::TransitionSystem ts(aig);
  fault::FaultInjector injector(
      fault::FaultPlan::parse("ic3.consecution@1+"));
  fault::ScopedInjection scope(&injector);
  ASSERT_TRUE(scope.installed());
  obs::MetricsRegistry metrics;
  EngineOptions engine;
  engine.metrics = &metrics;
  PropertyTask task(ts, 1, {}, engine, /*local_mode=*/false);
  int guard = 0;
  while (task.open()) {
    task.run_slice(TaskBudget{}, nullptr);
    ASSERT_LT(++guard, 100) << "the retry ladder never ran out";
  }
  EXPECT_EQ(task.state(), TaskState::Unknown);
  EXPECT_EQ(task.result().retries, engine.max_task_retries);
  EXPECT_FALSE(task.has_engine());
  EXPECT_EQ(metrics.snapshot().counter("retry.exhausted"), 1u);
  expect_folded_once(metrics, task.result());
}

// --- the shared start-up prelude --------------------------------------------

aig::Aig prelude_design(std::uint64_t seed) {
  gen::RandomDesignSpec spec;
  spec.seed = seed;
  spec.num_latches = 5;
  spec.num_inputs = 2;
  spec.num_ands = 24;
  spec.num_properties = 5;
  return gen::make_random_design(spec);
}

SchedulerOptions prelude_opts(ProofMode mode) {
  SchedulerOptions so;
  so.proof_mode = mode;
  so.dispatch = DispatchPolicy::RunToCompletion;
  // Strict lifting: no spurious-CEX restart discards a prelude builder.
  so.engine.lifting_respects_constraints = true;
  return so;
}

TEST(Prelude, GlobalAndEtfTasksBuildPrivatePreludes) {
  for (std::uint64_t seed = 900; seed < 910; ++seed) {
    // One component: every property reads the `tie` latch, so the three
    // ETH targets have one closure and share one conjunction.
    aig::Aig aig = gen::single_component(prelude_design(seed));
    aig.properties()[0].expected_to_fail = true;
    aig.properties()[3].expected_to_fail = true;
    ts::TransitionSystem ts(aig);
    const std::string tag = "seed " + std::to_string(seed);
    std::vector<bool> assumable(ts.num_properties());
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      assumable[p] = !ts.expected_to_fail(p);
    }
    const ts::ClosureIndex closures(ts, assumable);
    const int tie = static_cast<int>(ts.num_latches()) - 1;
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const std::vector<int> cone =
          ts::cone_latches(ts.aig(), {ts.property_lit(p)});
      ASSERT_TRUE(std::binary_search(cone.begin(), cone.end(), tie))
          << tag << " P" << p;
      if (assumable[p]) {
        ASSERT_EQ(closures.closure(p), closures.closure(1))
            << tag << " P" << p;
      }
    }

    // Local proofs: the ETF targets' conjunctions are their own; the
    // three ETH targets share one prelude, built once.
    MultiResult local = Scheduler(ts, prelude_opts(ProofMode::Local)).run();
    std::uint64_t builds = 0, reused = 0;
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const ic3::Ic3Stats& st = local.per_property[p].engine_stats;
      if (ts.expected_to_fail(p)) {
        EXPECT_EQ(st.prelude_builds, 1u) << tag << " P" << p;
        EXPECT_EQ(st.prelude_reused, 0u) << tag << " P" << p;
      } else {
        EXPECT_EQ(st.prelude_builds + st.prelude_reused, 1u)
            << tag << " P" << p;
        builds += st.prelude_builds;
        reused += st.prelude_reused;
      }
    }
    EXPECT_EQ(builds, 1u) << tag;
    EXPECT_EQ(reused, 2u) << tag;

    // Global proofs: every conjunction is the target alone.
    MultiResult global = Scheduler(ts, prelude_opts(ProofMode::Global)).run();
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const ic3::Ic3Stats& st = global.per_property[p].engine_stats;
      EXPECT_EQ(st.prelude_builds, 1u) << tag << " P" << p;
      EXPECT_EQ(st.prelude_reused, 0u) << tag << " P" << p;
    }
  }
}

TEST(Prelude, FaultDuringTheBuildRecoversThroughTheRetryLadder) {
  // Find a design whose first task builds the shared prelude and asks
  // consecution queries only there: an engine that starts from the
  // prelude asks none. A one-shot ic3.consecution fault pinned to that
  // task then fires inside the build.
  for (std::uint64_t seed = 900; seed < 940; ++seed) {
    aig::Aig aig = prelude_design(seed);
    ts::TransitionSystem ts(aig);
    const SchedulerOptions so = prelude_opts(ProofMode::Local);
    const MultiResult clean = Scheduler(ts, so).run();
    const std::size_t first = 0;
    const ic3::Ic3Stats& st = clean.per_property[first].engine_stats;
    if (st.prelude_builds != 1 || st.consecution_queries == 0) continue;
    ic3::Ic3Options fed_opts;
    fed_opts.assumed = local_assumptions(ts, first);
    fed_opts.lifting_respects_constraints = true;
    ic3::Ic3PreludeMemo memo(std::make_shared<const std::vector<ts::Cube>>());
    fed_opts.prelude_memo = &memo;
    ic3::Ic3(ts, first, fed_opts).run();  // builds the memo
    if (ic3::Ic3(ts, first, fed_opts).run().stats.consecution_queries != 0) {
      continue;
    }

    obs::MetricsRegistry metrics;
    SchedulerOptions faulty_opts = so;
    faulty_opts.engine.metrics = &metrics;
    faulty_opts.engine.fault_plan =
        "ic3.consecution@1:prop=" + std::to_string(first);
    const MultiResult faulty = Scheduler(ts, faulty_opts).run();
    const std::string tag = "seed " + std::to_string(seed);
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      EXPECT_EQ(faulty.per_property[p].verdict, clean.per_property[p].verdict)
          << tag << " P" << p;
    }
    const PropertyResult& pr = faulty.per_property[first];
    EXPECT_EQ(pr.retries, 1) << tag;
    ASSERT_EQ(pr.failure_chain.size(), 1u) << tag;
    // The fault left the memo empty, so the retried engine built it.
    EXPECT_EQ(pr.engine_stats.prelude_builds, 1u) << tag;
    const obs::MetricsSnapshot ms = metrics.snapshot();
    EXPECT_EQ(ms.counter("retry.recovered"), 1u) << tag;
    EXPECT_EQ(ms.counter("ic3.prelude_builds"),
              clean.per_property.size() -
                  ms.counter("ic3.prelude_reused"))
        << tag;
    return;
  }
  FAIL() << "no design whose first task asks consecution queries only in "
            "the prelude build";
}

}  // namespace
}  // namespace javer::mp::sched
