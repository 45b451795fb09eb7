// Cone-restricted task engines (ts/cone_view.h): closures, the view's
// cube and trace mappings, and a differential check of the JA and
// sharded schedulers on multi-component designs against the explicit-state
// reference. Every Holds must certify on the full design, every Fails
// must replay there, and a restricted counterexample the full design
// rejects must send its task back to the full design.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "aig/builder.h"
#include "aig/sim.h"
#include "base/rng.h"
#include "gen/random_design.h"
#include "gen/synthetic.h"
#include "ic3/certify.h"
#include "mp/sched/scheduler.h"
#include "mp/shard/sharded_scheduler.h"
#include "obs/metrics.h"
#include "ref/explicit_checker.h"
#include "ts/cone_view.h"
#include "ts/trace.h"

namespace javer::ts {
namespace {

// Copies `src` into `dst` as a disjoint component; property names get
// `prefix`.
void append_component(aig::Aig& dst, const aig::Aig& src,
                             const std::string& prefix) {
  std::vector<aig::Lit> node(src.num_nodes(), aig::Lit::false_lit());
  auto map = [&](aig::Lit l) { return node[l.var()] ^ l.complemented(); };
  for (aig::Var v = 1; v < src.num_nodes(); ++v) {
    if (src.is_input(v)) {
      node[v] = dst.add_input();
    } else if (src.is_latch(v)) {
      node[v] = dst.add_latch(src.latches()[src.latch_index(v)].reset);
    } else {
      node[v] = dst.add_and(map(src.node(v).fanin0), map(src.node(v).fanin1));
    }
  }
  for (const aig::Latch& l : src.latches()) {
    dst.set_latch_next(node[l.var], map(l.next));
  }
  for (const aig::Property& p : src.properties()) {
    dst.add_property(map(p.lit), prefix + p.name, p.expected_to_fail);
  }
  for (aig::Lit c : src.constraints()) dst.add_constraint(map(c));
}

// A free-running counter of `bits` bits; returns "counter == value".
aig::Lit counter_hits(aig::Aig& aig, std::size_t bits, std::uint64_t value) {
  aig::Builder b(aig);
  const aig::Word cnt = b.latch_word(bits);
  b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
  return b.eq_const(cnt, value);
}

struct Shape {
  // A non-ETF property of its own counter failing at depth 3: every
  // restricted trace of another component deeper than that violates it.
  bool det_fail = false;
  // A design constraint of its own counter, false from depth 4 on.
  bool dying_constraint = false;
};

// Two random components (one with a constraint, one ETF property), two
// properties failing at depth 0 (an input, and an ETF latch reset to 0), a
// deterministic failure at depth 6 of a counter of its own, and the
// shape's disjoint failure sources.
aig::Aig multi_component(std::uint64_t seed, Shape shape) {
  aig::Aig aig;
  Rng rng(seed);
  for (int c = 0; c < 2; ++c) {
    gen::RandomDesignSpec spec;
    spec.seed = seed * 7 + static_cast<std::uint64_t>(c);
    spec.num_latches = c == 0 ? 5 : 4;
    spec.num_inputs = 2;
    spec.num_ands = 18;
    spec.num_properties = 3;
    aig::Aig part = gen::make_random_design(spec);
    if (c == 0) {
      part.properties()[rng.below(3)].expected_to_fail = true;
      // A weak constraint over the component's first latch and input.
      aig::Builder b(part);
      part.add_constraint(
          b.lor(aig::Lit::make(part.latches()[0].var),
                aig::Lit::make(part.inputs()[0], true)));
    }
    append_component(aig, part, c == 0 ? "c0_" : "c1_");
  }
  aig.add_property(aig.add_input("x"), "depth0_input");
  // Expected to fail: as an assumption it would end every path at once.
  const aig::Lit low = aig.add_latch(Ternary::False, "low");
  aig.set_latch_next(low, aig::Lit::true_lit());
  aig.add_property(low, "depth0_latch", /*expected_to_fail=*/true);
  aig.add_property(~counter_hits(aig, 3, 6), "deep6");
  if (shape.det_fail) aig.add_property(~counter_hits(aig, 2, 3), "det3");
  if (shape.dying_constraint) aig.add_constraint(~counter_hits(aig, 3, 4));
  return aig;
}

// --- closures and views -------------------------------------------------------

TEST(ConeRestriction, ClosuresFollowSharedLatchesOnly) {
  const aig::Aig aig = multi_component(3, Shape{true, true});
  const TransitionSystem ts(aig);
  std::vector<bool> assumable(ts.num_properties());
  for (std::size_t p = 0; p < assumable.size(); ++p) {
    assumable[p] = !ts.expected_to_fail(p);
  }
  const ClosureIndex index(ts, assumable);
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const std::vector<int> closure = index.closure(p);
    ASSERT_TRUE(std::is_sorted(closure.begin(), closure.end()));
    // The target's cone is inside, and the closure is closed under
    // next-state fanin.
    for (int l : index.property_latches(p)) {
      EXPECT_TRUE(std::binary_search(closure.begin(), closure.end(), l));
    }
    for (int l : closure) {
      for (int m : cone_latches(aig, {aig.latches()[l].next})) {
        EXPECT_TRUE(std::binary_search(closure.begin(), closure.end(), m))
            << "P" << p << " latch " << l << " reads " << m;
      }
    }
    // No design is one component: every closure is proper.
    EXPECT_LT(closure.size(), ts.num_latches()) << "P" << p;
  }
  // The input-only property has an empty cone, so an empty closure; the
  // counters' properties share nothing with each other.
  const std::size_t n = ts.num_properties();
  EXPECT_TRUE(index.closure(n - 4).empty());
  const std::vector<int> deep = index.closure(n - 2);
  const std::vector<int> det = index.closure(n - 1);
  EXPECT_EQ(deep.size(), 3u);
  EXPECT_EQ(det.size(), 2u);
  std::vector<int> shared;
  std::set_intersection(deep.begin(), deep.end(), det.begin(), det.end(),
                        std::back_inserter(shared));
  EXPECT_TRUE(shared.empty());
}

TEST(ConeRestriction, ProjectionAndCubeLiftRoundTrip) {
  const aig::Aig aig = multi_component(5, Shape{true, false});
  const TransitionSystem ts(aig);
  const ClosureIndex index(ts,
                           std::vector<bool>(ts.num_properties(), true));
  const std::size_t deep6 = ts.num_properties() - 2;
  ASSERT_EQ(ts.property_name(deep6), "deep6");
  const ConeView view(ts, index, index.closure(deep6));
  ASSERT_GT(view.num_latches(), 0u);
  ASSERT_LT(view.num_latches(), ts.num_latches());
  EXPECT_EQ(view.ts().num_latches(), view.num_latches());
  EXPECT_EQ(view.property_map()[view.view_property(deep6)], deep6);

  Rng rng(11);
  int outside = -1;
  for (std::size_t l = 0; l < ts.num_latches() && outside < 0; ++l) {
    if (!std::binary_search(view.latch_map().begin(), view.latch_map().end(),
                            static_cast<int>(l))) {
      outside = static_cast<int>(l);
    }
  }
  ASSERT_GE(outside, 0);
  for (int round = 0; round < 50; ++round) {
    Cube cube;
    for (std::size_t i = 0; i < view.num_latches(); ++i) {
      if (rng.chance(1, 2)) {
        cube.push_back(StateLit{static_cast<int>(i), rng.chance(1, 2)});
      }
    }
    const Cube lifted = view.lift(cube);
    ASSERT_TRUE(std::is_sorted(lifted.begin(), lifted.end()));
    const std::optional<Cube> back = view.project(lifted);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, cube);
    // A cube naming a latch outside the closure does not project.
    Cube wide = lifted;
    wide.push_back(StateLit{outside, true});
    sort_cube(wide);
    EXPECT_FALSE(view.project(wide).has_value());
    const std::vector<Cube> kept = view.project(std::vector<Cube>{wide, lifted});
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0], cube);
  }
}

TEST(ConeRestriction, TraceLiftReplaysTheViewTraceOnTheFullDesign) {
  const aig::Aig aig = multi_component(9, Shape{true, true});
  const TransitionSystem ts(aig);
  const ClosureIndex index(ts,
                           std::vector<bool>(ts.num_properties(), true));
  Rng rng(4);
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const ConeView view(ts, index, index.closure(p));
    // A random view trace from a random initial state.
    const TransitionSystem& vts = view.ts();
    Trace trace;
    std::vector<bool> state = vts.initial_state();
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (vts.aig().latches()[i].reset == Ternary::X) state[i] = rng.chance(1, 2);
    }
    aig::Simulator sim(vts.aig());
    for (int t = 0; t < 8; ++t) {
      Step step;
      step.state = state;
      for (std::size_t i = 0; i < vts.num_inputs(); ++i) {
        step.inputs.push_back(rng.chance(1, 2));
      }
      sim.eval(step.state, step.inputs);
      state = sim.next_state();
      trace.steps.push_back(std::move(step));
    }
    const Trace full = view.lift(trace);
    ASSERT_EQ(full.steps.size(), trace.steps.size());
    const TraceAnalysis a = analyze_trace(ts, full);
    EXPECT_TRUE(a.starts_initial) << "P" << p;
    EXPECT_TRUE(a.transitions_valid) << "P" << p;
    const TraceAnalysis va = analyze_trace(vts, trace);
    for (std::size_t t = 0; t < trace.steps.size(); ++t) {
      for (std::size_t i = 0; i < view.num_latches(); ++i) {
        EXPECT_EQ(full.steps[t].state[view.latch_map()[i]],
                  trace.steps[t].state[i]);
      }
      for (std::size_t i = 0; i < vts.num_inputs(); ++i) {
        EXPECT_EQ(full.steps[t].inputs[view.input_map()[i]],
                  trace.steps[t].inputs[i]);
      }
    }
    // The view's properties fail first at the same steps on both.
    for (std::size_t vp = 0; vp < vts.num_properties(); ++vp) {
      EXPECT_EQ(a.first_failure[view.property_map()[vp]],
                va.first_failure[vp]);
    }
  }
}

TEST(ConeRestriction, EveryClosureBuildsOnePreludeItsTasksShare) {
  // Two disjoint components, each made one closure by its own `tie`
  // latch: a random design with two ETF properties (five properties on
  // latches [0, 6)) and an all-true one-hot ring (four properties on
  // latches [6, 6 + ring latches)).
  const aig::Aig ring_part = gen::single_component(gen::make_ring(4));
  for (std::uint64_t seed = 900; seed < 906; ++seed) {
    gen::RandomDesignSpec spec;
    spec.seed = seed;
    spec.num_latches = 5;
    spec.num_inputs = 2;
    spec.num_ands = 24;
    spec.num_properties = 5;
    aig::Aig random_part =
        gen::single_component(gen::make_random_design(spec));
    random_part.properties()[0].expected_to_fail = true;
    random_part.properties()[3].expected_to_fail = true;
    aig::Aig aig;
    append_component(aig, random_part, "a_");
    append_component(aig, ring_part, "b_");
    const TransitionSystem ts(aig);
    ASSERT_EQ(ts.num_properties(), 9u);
    const std::string tag = "seed " + std::to_string(seed);

    std::vector<bool> assumable(ts.num_properties());
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      assumable[p] = !ts.expected_to_fail(p);
    }
    const ClosureIndex index(ts, assumable);
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const std::vector<int> closure = index.closure(p);
      ASSERT_FALSE(closure.empty()) << tag << " P" << p;
      if (p < 5) {
        EXPECT_LT(closure.back(), 6) << tag << " P" << p;
      } else {
        EXPECT_GE(closure.front(), 6) << tag << " P" << p;
      }
    }

    obs::MetricsRegistry metrics;
    mp::sched::SchedulerOptions so;
    so.proof_mode = mp::sched::ProofMode::Local;
    so.dispatch = mp::sched::DispatchPolicy::RunToCompletion;
    // Strict lifting: no spurious-CEX restart discards a prelude builder.
    so.engine.lifting_respects_constraints = true;
    so.engine.metrics = &metrics;
    const mp::MultiResult result = mp::sched::Scheduler(ts, so).run();
    const obs::MetricsSnapshot ms = metrics.snapshot();
    // The ring's properties hold on every path, so no counterexample of
    // the random component is rejected on the full design.
    ASSERT_EQ(ms.counter("task.cone_fallbacks"), 0u) << tag;
    EXPECT_EQ(ms.counter("task.restricted"), 9u) << tag;

    // The ETF targets' conjunctions are their own; the three ETH targets
    // of the random component share one prelude, and the ring's four
    // targets share another.
    std::uint64_t builds[2] = {0, 0}, reused[2] = {0, 0};
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const ic3::Ic3Stats& st = result.per_property[p].engine_stats;
      if (ts.expected_to_fail(p)) {
        EXPECT_EQ(st.prelude_builds, 1u) << tag << " P" << p;
        EXPECT_EQ(st.prelude_reused, 0u) << tag << " P" << p;
        continue;
      }
      EXPECT_EQ(st.prelude_builds + st.prelude_reused, 1u)
          << tag << " P" << p;
      builds[p < 5 ? 0 : 1] += st.prelude_builds;
      reused[p < 5 ? 0 : 1] += st.prelude_reused;
    }
    EXPECT_EQ(builds[0], 1u) << tag;
    EXPECT_EQ(reused[0], 2u) << tag;
    EXPECT_EQ(builds[1], 1u) << tag;
    EXPECT_EQ(reused[1], 3u) << tag;
    EXPECT_EQ(ms.counter("ic3.prelude_builds"), 4u) << tag;
    for (std::size_t p = 5; p < ts.num_properties(); ++p) {
      EXPECT_EQ(result.per_property[p].verdict,
                mp::PropertyVerdict::HoldsLocally)
          << tag << " P" << p;
    }
  }
}

// --- differential runs against the explicit-state reference -------------------

// How many targets fail on their own closure's view but hold on the full
// design: each such task must fall back to the full design.
std::size_t forced_fallbacks(const TransitionSystem& ts,
                             const ref::ExplicitResult& expected, bool local) {
  std::vector<bool> assumable(ts.num_properties());
  for (std::size_t p = 0; p < assumable.size(); ++p) {
    assumable[p] = local && !ts.expected_to_fail(p);
  }
  const ClosureIndex index(ts, assumable);
  std::size_t forced = 0;
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const std::vector<int> closure = index.closure(p);
    if (closure.size() == ts.num_latches()) continue;
    const ConeView view(ts, index, closure);
    const ref::ExplicitResult on_view = ref::explicit_check(view.ts());
    const std::size_t vp = static_cast<std::size_t>(view.view_property(p));
    const bool view_fails =
        local ? on_view.fails_locally(vp) : on_view.fails_globally(vp);
    const bool full_fails =
        local ? expected.fails_locally(p) : expected.fails_globally(p);
    if (view_fails && !full_fails) forced++;
  }
  return forced;
}

void check_against_reference(const TransitionSystem& ts,
                             const ref::ExplicitResult& expected, bool local,
                             const mp::MultiResult& result,
                             const std::string& tag) {
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const mp::PropertyResult& pr = result.per_property[p];
    const std::string at = tag + " P" + std::to_string(p);
    const bool fails =
        local ? expected.fails_locally(p) : expected.fails_globally(p);
    std::vector<std::size_t> assumed;
    if (local) assumed = mp::sched::local_assumptions(ts, p);
    if (fails) {
      ASSERT_EQ(pr.verdict, local ? mp::PropertyVerdict::FailsLocally
                                  : mp::PropertyVerdict::FailsGlobally)
          << at;
      EXPECT_TRUE(local ? is_local_cex(ts, pr.cex, p, assumed)
                        : is_global_cex(ts, pr.cex, p))
          << at;
    } else {
      ASSERT_EQ(pr.verdict, local ? mp::PropertyVerdict::HoldsLocally
                                  : mp::PropertyVerdict::HoldsGlobally)
          << at;
      const ic3::CertificateCheck check =
          ic3::certify_strengthening(ts, p, assumed, pr.invariant);
      EXPECT_TRUE(check.ok()) << at << ": " << check.failure;
    }
  }
}

mp::sched::SchedulerOptions options(mp::sched::ProofMode mode,
                                    mp::sched::DispatchPolicy dispatch,
                                    unsigned threads,
                                    obs::MetricsRegistry* metrics) {
  mp::sched::SchedulerOptions so;
  so.proof_mode = mode;
  so.dispatch = dispatch;
  so.num_threads = threads;
  so.bmc_depth_per_sweep = 2;
  so.engine.time_limit_per_property = 60.0;
  so.engine.metrics = metrics;
  return so;
}

TEST(ConeRestriction, JaAndShardedMatchTheReferenceOnMultiComponentDesigns) {
  std::size_t forced_local = 0, forced_global = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    // Seeds cycle through the shapes: a disjoint deterministic failure, a
    // dying constraint, both.
    const Shape shape{seed % 3 != 1, seed % 3 != 0};
    const aig::Aig aig = multi_component(seed, shape);
    const TransitionSystem ts(aig);
    const ref::ExplicitResult expected = ref::explicit_check(ts);
    const std::size_t local_forced = forced_fallbacks(ts, expected, true);
    const std::size_t global_forced = forced_fallbacks(ts, expected, false);
    forced_local += local_forced;
    forced_global += global_forced;
    for (unsigned threads : {1u, 4u}) {
      const std::string tag = "seed " + std::to_string(seed) + " threads " +
                              std::to_string(threads);

      // JA: every task runs to completion on its closure.
      obs::MetricsRegistry ja_metrics;
      const mp::MultiResult ja =
          mp::sched::Scheduler(
              ts, options(mp::sched::ProofMode::Local,
                          mp::sched::DispatchPolicy::RunToCompletion, threads,
                          &ja_metrics))
              .run();
      check_against_reference(ts, expected, /*local=*/true, ja, tag + " ja");
      const obs::MetricsSnapshot js = ja_metrics.snapshot();
      EXPECT_EQ(js.counter("task.restricted"), ts.num_properties()) << tag;
      EXPECT_LT(js.counter("task.cone_latches"),
                ts.num_properties() * ts.num_latches())
          << tag;
      EXPECT_GE(js.counter("task.cone_fallbacks"), local_forced) << tag;

      // Sharded: clustered shards, BMC sweeps and sliced IC3.
      obs::MetricsRegistry sh_metrics;
      mp::shard::ShardedOptions so;
      so.base = options(mp::sched::ProofMode::Local,
                        mp::sched::DispatchPolicy::HybridBmcIc3, threads,
                        &sh_metrics);
      so.clustering.max_cluster_size = 4;
      const mp::MultiResult sharded =
          mp::shard::ShardedScheduler(ts, so).run();
      check_against_reference(ts, expected, /*local=*/true, sharded,
                              tag + " sharded");
      EXPECT_GT(sh_metrics.snapshot().counter("task.restricted"), 0u) << tag;
      EXPECT_GE(sh_metrics.snapshot().counter("task.cone_fallbacks"),
                local_forced)
          << tag;
    }

    // Global proofs: closures grow through the design constraints only.
    obs::MetricsRegistry global_metrics;
    const mp::MultiResult global =
        mp::sched::Scheduler(
            ts, options(mp::sched::ProofMode::Global,
                        mp::sched::DispatchPolicy::RunToCompletion, 1,
                        &global_metrics))
            .run();
    check_against_reference(ts, expected, /*local=*/false, global,
                            "seed " + std::to_string(seed) + " global");
    EXPECT_GE(global_metrics.snapshot().counter("task.cone_fallbacks"),
              global_forced)
        << "seed " << seed;
  }
  // deep6's restricted counterexample (depth 6) outlives det3's failure
  // and the dying constraint, so most designs force a fallback in both
  // proof modes.
  EXPECT_GE(forced_local, 16u);
  EXPECT_GE(forced_global, 8u);
}

}  // namespace
}  // namespace javer::ts
