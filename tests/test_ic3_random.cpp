// Property-based cross-check of IC3 against the explicit-state reference
// on random small designs: global status, local status (both lifting
// modes), CEX validity, invariant validity, and the soundness of the
// singleton-mining simulation sweep.
#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.h"
#include "gen/random_design.h"
#include "ic3/frames.h"
#include "ic3/ic3.h"
#include "ref/explicit_checker.h"
#include "test_util.h"
#include "ts/trace.h"

namespace javer::ic3 {
namespace {

struct Fixture {
  explicit Fixture(std::uint64_t seed) {
    gen::RandomDesignSpec spec;
    spec.seed = seed;
    spec.num_latches = 4;
    spec.num_inputs = 2;
    spec.num_ands = 20;
    spec.num_properties = 3;
    aig = gen::make_random_design(spec);
    ts = std::make_unique<ts::TransitionSystem>(aig);
    expected = ref::explicit_check(*ts);
  }
  aig::Aig aig;
  std::unique_ptr<ts::TransitionSystem> ts;
  ref::ExplicitResult expected;
};

class Ic3RandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Ic3RandomTest, GlobalStatusMatchesReference) {
  Fixture fx(GetParam());
  for (std::size_t p = 0; p < fx.ts->num_properties(); ++p) {
    Ic3Options opts;
    opts.time_limit_seconds = 30.0;
    Ic3 engine(*fx.ts, p, opts);
    Ic3Result r = engine.run();
    if (fx.expected.fails_globally(p)) {
      ASSERT_EQ(r.status, CheckStatus::Fails)
          << "seed " << GetParam() << " prop " << p;
      EXPECT_TRUE(ts::is_global_cex(*fx.ts, r.cex, p))
          << "seed " << GetParam() << " prop " << p << " len "
          << r.cex.length();
    } else {
      ASSERT_EQ(r.status, CheckStatus::Holds)
          << "seed " << GetParam() << " prop " << p;
      // The exported strengthening must be independently valid.
      testutil::expect_valid_invariant(*fx.ts, p, {}, r.invariant);
    }
  }
}

TEST_P(Ic3RandomTest, IgnoringLiftingWithRetryMatchesReference) {
  // §7-A protocol: run with relaxed lifting; a returned CEX may be
  // spurious as a *local* CEX (some assumed property fails earlier, or the
  // trace passes through states violating the target). On a spurious CEX,
  // re-run with strict lifting; the combined answer must match the oracle.
  Fixture fx(GetParam() + 10000);
  for (std::size_t p = 0; p < fx.ts->num_properties(); ++p) {
    std::vector<std::size_t> assumed;
    for (std::size_t j = 0; j < fx.ts->num_properties(); ++j) {
      if (j != p) assumed.push_back(j);
    }
    Ic3Options opts;
    opts.assumed = assumed;
    opts.lifting_respects_constraints = false;
    opts.time_limit_seconds = 30.0;
    Ic3 engine(*fx.ts, p, opts);
    Ic3Result r = engine.run();

    if (r.status == CheckStatus::Fails &&
        !ts::is_local_cex(*fx.ts, r.cex, p, assumed)) {
      // Spurious local CEX. It must still be a genuine trace whose final
      // state... at minimum, a prefix of it is a global CEX: the target
      // fails somewhere along the trace.
      ts::TraceAnalysis a = ts::analyze_trace(*fx.ts, r.cex);
      EXPECT_TRUE(a.starts_initial && a.transitions_valid)
          << "spurious CEX is not even a trace, seed " << GetParam() + 10000;
      EXPECT_GE(a.first_failure[p], 0)
          << "spurious CEX never fails the target";
      // Retry with strict lifting, as the paper's Ic3-db does.
      opts.lifting_respects_constraints = true;
      Ic3 strict(*fx.ts, p, opts);
      r = strict.run();
    }

    if (fx.expected.fails_locally(p)) {
      ASSERT_EQ(r.status, CheckStatus::Fails)
          << "seed " << GetParam() + 10000 << " prop " << p;
      EXPECT_TRUE(ts::is_local_cex(*fx.ts, r.cex, p, assumed))
          << "seed " << GetParam() + 10000 << " prop " << p;
    } else {
      ASSERT_EQ(r.status, CheckStatus::Holds)
          << "seed " << GetParam() + 10000 << " prop " << p;
    }
  }
}

TEST_P(Ic3RandomTest, LocalStatusMatchesReferenceRespectingLifting) {
  Fixture fx(GetParam() + 20000);
  for (std::size_t p = 0; p < fx.ts->num_properties(); ++p) {
    std::vector<std::size_t> assumed;
    for (std::size_t j = 0; j < fx.ts->num_properties(); ++j) {
      if (j != p) assumed.push_back(j);
    }
    Ic3Options opts;
    opts.assumed = assumed;
    opts.lifting_respects_constraints = true;
    opts.time_limit_seconds = 30.0;
    Ic3 engine(*fx.ts, p, opts);
    Ic3Result r = engine.run();
    if (fx.expected.fails_locally(p)) {
      ASSERT_EQ(r.status, CheckStatus::Fails)
          << "seed " << GetParam() + 20000 << " prop " << p;
      // Respecting lifting guarantees genuinely local counterexamples.
      // (IC3 does not promise shortest traces, so only validity and the
      // lower bound are checked.)
      EXPECT_TRUE(ts::is_local_cex(*fx.ts, r.cex, p, assumed))
          << "seed " << GetParam() + 20000 << " prop " << p;
      EXPECT_GE(static_cast<int>(r.cex.length()),
                fx.expected.local_fail_depth[p]);
    } else {
      ASSERT_EQ(r.status, CheckStatus::Holds)
          << "seed " << GetParam() + 20000 << " prop " << p;
    }
  }
}

// A random design with X resets plus one design constraint forbidding a
// random pair of latch/input values, so the sweep's kill rule meets both.
aig::Aig constrained_design(std::uint64_t seed) {
  gen::RandomDesignSpec spec;
  spec.seed = seed;
  spec.num_latches = 5;
  spec.num_inputs = 2;
  spec.num_ands = 24;
  spec.num_properties = 3;
  spec.allow_x_reset = true;
  aig::Aig aig = gen::make_random_design(spec);
  std::vector<aig::Var> leaves;
  for (const aig::Latch& l : aig.latches()) leaves.push_back(l.var);
  for (aig::Var v : aig.inputs()) leaves.push_back(v);
  Rng rng(seed * 31 + 7);
  auto random_leaf = [&] {
    const aig::Var v = leaves[rng.below(leaves.size())];
    return aig::Lit::make(v, rng.chance(1, 2));
  };
  const aig::Lit a = random_leaf();
  const aig::Lit b = random_leaf();
  aig.add_constraint(~aig.add_and(a, b));
  return aig;
}

TEST_P(Ic3RandomTest, MiningSweepSettlesOnlyNonInductiveLiterals) {
  const std::uint64_t seed = GetParam() + 30000;
  aig::Aig aig = constrained_design(seed);
  ts::TransitionSystem ts(aig);
  const ref::ExplicitResult expected = ref::explicit_check(ts);

  std::vector<ts::StateLit> candidates;
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    for (bool value : {false, true}) {
      ts::StateLit lit{static_cast<int>(i), value};
      if (ts.cube_disjoint_from_init({lit})) candidates.push_back(lit);
    }
  }

  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    std::vector<std::size_t> local;
    for (std::size_t j = 0; j < ts.num_properties(); ++j) {
      if (j != p) local.push_back(j);
    }
    for (const std::vector<std::size_t>& assumed : {std::vector<std::size_t>{},
                                                     local}) {
      const std::string tag = "seed " + std::to_string(seed) + " prop " +
                              std::to_string(p) + " assumed " +
                              std::to_string(assumed.size());
      Ic3Options opts;
      opts.assumed = assumed;
      opts.lifting_respects_constraints = true;  // no spurious local CEXs
      opts.time_limit_seconds = 30.0;
      Ic3 engine(ts, p, opts);
      Ic3Result r = engine.run();
      const bool fails = assumed.empty() ? expected.fails_globally(p)
                                         : expected.fails_locally(p);
      ASSERT_EQ(r.status, fails ? CheckStatus::Fails : CheckStatus::Holds)
          << tag;
      if (fails) {
        EXPECT_TRUE(ts::is_local_cex(ts, r.cex, p, assumed)) << tag;
      } else {
        testutil::expect_valid_invariant(ts, p, assumed, r.invariant);
      }

      // A fresh engine mines over the same candidates (no seeds), so its
      // settled count is this sweep's.
      const std::vector<char> settled =
          settle_by_simulation(ts, p, assumed, candidates);
      EXPECT_EQ(r.stats.mining_sim_settled,
                static_cast<std::uint64_t>(
                    std::count(settled.begin(), settled.end(), 1)))
          << tag;

      // Every settled literal's F_inf consecution query answers Sat, with
      // F_inf empty and, for a proof, with F_inf = the whole invariant.
      FrameSolver::Config config;
      config.target_prop = p;
      config.assumed = assumed;
      for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
        if (!settled[ci]) continue;
        const ts::Cube c{candidates[ci]};
        FrameSolver fresh(ts, config);
        EXPECT_EQ(fresh.query_consecution(c, /*add_negation=*/true, nullptr),
                  sat::SolveResult::Sat)
            << tag << " literal " << ts::cube_to_string(c);
        if (r.status != CheckStatus::Holds) continue;
        FrameSolver strengthened(ts, config);
        for (const ts::Cube& inv : r.invariant) {
          strengthened.add_blocking_clause(inv);
        }
        EXPECT_EQ(
            strengthened.query_consecution(c, /*add_negation=*/true, nullptr),
            sat::SolveResult::Sat)
            << tag << " literal " << ts::cube_to_string(c);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ic3RandomTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace javer::ic3
