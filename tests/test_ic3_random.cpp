// Property-based cross-check of IC3 against the explicit-state reference
// on random small designs: global status, local status (both lifting
// modes), CEX validity, invariant validity, the soundness of the
// singleton-mining simulation sweep, and the exactness of settling
// delivered lemma units without a query.
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
aig::Aig constrained_design(std::uint64_t seed, std::size_t latches = 5,
                            std::size_t ands = 24) {
  gen::RandomDesignSpec spec;
  spec.seed = seed;
  spec.num_latches = latches;
  spec.num_inputs = 2;
  spec.num_ands = ands;
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

// Ic3::absorb_lemma_candidates replayed query by query on fresh F_inf
// contexts: the imported/rejected/known split a batch must get when F_inf
// is `inf` at its start. Imported cubes are appended to `inf` in order.
struct AbsorbSplit {
  std::uint64_t imported = 0;
  std::uint64_t rejected = 0;
  std::uint64_t known = 0;
};

AbsorbSplit replay_absorb(const ts::TransitionSystem& ts,
                          const FrameSolver::Config& config,
                          const std::vector<ts::Cube>& batch,
                          std::vector<ts::Cube>& inf) {
  AbsorbSplit split;
  for (const ts::Cube& c : batch) {
    if (!ts.cube_disjoint_from_init(c)) {
      split.rejected++;
      continue;
    }
    if (std::any_of(inf.begin(), inf.end(), [&](const ts::Cube& have) {
          return ts::cube_subsumes(have, c);
        })) {
      split.known++;
      continue;
    }
    FrameSolver fresh(ts, config);
    for (const ts::Cube& have : inf) fresh.add_blocking_clause(have);
    if (fresh.query_consecution(c, /*add_negation=*/true, nullptr) ==
        sat::SolveResult::Unsat) {
      inf.push_back(c);
      split.imported++;
    } else {
      split.rejected++;
    }
  }
  return split;
}

std::uint64_t lemma_total(const Ic3Stats& s) {
  return s.lemmas_imported + s.lemmas_rejected + s.lemmas_known;
}

// Delivers every init-disjoint unit before the first slice and again after
// each slice that grew F_inf, and checks each batch's split against a fresh
// replay over F_inf rebuilt from each slice's additions (the suffix of
// Ic3::inf_lemmas past the previous slice's size). The conflict slice
// starts at one and grows by one per slice: tiny slices maximise the number
// of batches, and the growth guarantees the run converges.
void check_delivered_units(std::uint64_t seed, std::size_t latches,
                           std::size_t ands) {
  aig::Aig aig = constrained_design(seed, latches, ands);
  ts::TransitionSystem ts(aig);

  std::vector<ts::Cube> units;
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    for (bool value : {false, true}) {
      ts::Cube c{ts::StateLit{static_cast<int>(i), value}};
      if (ts.cube_disjoint_from_init(c)) units.push_back(c);
    }
  }
  if (units.empty()) return;  // every latch resets to X
  const ref::ExplicitResult expected = ref::explicit_check(ts);

  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    std::vector<std::size_t> local;
    for (std::size_t j = 0; j < ts.num_properties(); ++j) {
      if (j != p) local.push_back(j);
    }
    for (const std::vector<std::size_t>& assumed : {std::vector<std::size_t>{},
                                                     local}) {
      const std::string tag = "seed " + std::to_string(seed) + " latches " +
                              std::to_string(latches) + " prop " +
                              std::to_string(p) + " assumed " +
                              std::to_string(assumed.size());
      Ic3Options opts;
      opts.assumed = assumed;
      opts.lifting_respects_constraints = true;
      Ic3 engine(ts, p, opts);
      FrameSolver::Config config;
      config.target_prop = p;
      config.assumed = assumed;

      // Conflict slices never suspend inside the absorb loop, so each
      // batch is absorbed whole at the start of one slice, right after
      // whatever mining that slice finishes.
      Ic3Budget budget;
      budget.conflict_slice = 1;
      std::vector<ts::Cube> inf;  // F_inf, rebuilt from the slice deltas
      Ic3Stats prev;
      bool pending = true;
      int batches = 0;
      engine.add_lemma_candidates(units);
      Ic3Result r;
      int slices = 0;
      do {
        r = engine.run(budget);
        ASSERT_LT(++slices, 100000) << tag;
        budget.conflict_slice++;
        // No seeds, so F_inf only grows: the slice's cubes are the suffix
        // past what the previous slices added.
        const std::vector<ts::Cube>& now = engine.inf_lemmas();
        ASSERT_LE(inf.size(), now.size()) << tag;
        const std::vector<ts::Cube> fresh(
            now.begin() + static_cast<long>(inf.size()), now.end());
        if (pending && lemma_total(r.stats) != lemma_total(prev)) {
          // The slice's additions: its mined cubes, the batch's imports,
          // then the main loop's cubes.
          const std::size_t mined =
              r.stats.mined_invariants - prev.mined_invariants;
          ASSERT_LE(mined, fresh.size()) << tag;
          std::vector<ts::Cube> at_absorb = inf;
          at_absorb.insert(at_absorb.end(), fresh.begin(),
                           fresh.begin() + static_cast<long>(mined));
          const std::size_t start = at_absorb.size();
          const AbsorbSplit want = replay_absorb(ts, config, units, at_absorb);
          const std::string btag = tag + " batch " + std::to_string(batches);
          EXPECT_EQ(r.stats.lemmas_imported - prev.lemmas_imported,
                    want.imported)
              << btag;
          EXPECT_EQ(r.stats.lemmas_rejected - prev.lemmas_rejected,
                    want.rejected)
              << btag;
          EXPECT_EQ(r.stats.lemmas_known - prev.lemmas_known, want.known)
              << btag;
          ASSERT_LE(at_absorb.size() - start, fresh.size() - mined) << btag;
          EXPECT_TRUE(std::equal(at_absorb.begin() + static_cast<long>(start),
                                 at_absorb.end(),
                                 fresh.begin() + static_cast<long>(mined)))
              << btag << ": imports differ from the replay's";
          pending = false;
          batches++;
        }
        EXPECT_LE(r.stats.lemmas_settled, r.stats.lemmas_rejected) << tag;
        inf.insert(inf.end(), fresh.begin(), fresh.end());
        prev = r.stats;
        if (!pending && !fresh.empty() && batches < 20 &&
            r.status == CheckStatus::Unknown && r.resumable) {
          engine.add_lemma_candidates(units);
          pending = true;
        }
      } while (r.status == CheckStatus::Unknown && r.resumable);

      const bool fails = assumed.empty() ? expected.fails_globally(p)
                                         : expected.fails_locally(p);
      EXPECT_EQ(r.status, fails ? CheckStatus::Fails : CheckStatus::Holds)
          << tag;
      EXPECT_FALSE(pending) << tag << ": a delivered batch was never absorbed";
    }
  }
}

// Delivered units are settled without a query when their answer is
// already known (Ic3::unit_stamps_). That must never change a batch's
// outcome, on random designs with constraints and X resets, under a
// global and a JA-local assumed set.
TEST_P(Ic3RandomTest, DeliveredUnitsSplitLikeAFreshReplay) {
  check_delivered_units(GetParam() + 40000, 5, 24);
  check_delivered_units(GetParam() + 40000, 10, 60);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ic3RandomTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace javer::ic3
