// Property-based cross-check of IC3 against the explicit-state reference
// on random small designs: global status, local status (both lifting
// modes), CEX validity, invariant validity, the soundness of the
// singleton-mining simulation sweep, and the exactness of settling
// delivered lemma units without a query.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "base/rng.h"
#include "cnf/template.h"
#include "gen/random_design.h"
#include "ic3/frames.h"
#include "ic3/ic3.h"
#include "ref/explicit_checker.h"
#include "test_util.h"
#include "ts/trace.h"

namespace javer::ic3 {
namespace {

// The template a stand-alone context for `target` under `assumed` replays.
cnf::CnfTemplate step_template(const ts::TransitionSystem& ts,
                               std::size_t target,
                               std::vector<std::size_t> assumed) {
  assumed.push_back(target);
  return cnf::CnfTemplate(ts, {std::move(assumed), false});
}

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
      const cnf::CnfTemplate tmpl = step_template(ts, p, assumed);
      FrameSolver::Config config;
      config.target_prop = p;
      config.assumed = assumed;
      config.tmpl = &tmpl;
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
      const cnf::CnfTemplate tmpl = step_template(ts, p, assumed);
      FrameSolver::Config config;
      config.target_prop = p;
      config.assumed = assumed;
      config.tmpl = &tmpl;

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

// --- the shared start-up prelude --------------------------------------------

// A constrained random design (constrained_design) whose second property
// is expected to fail, plus a property that asserts a latch against its
// reset value, so it fails in the initial state unless no initial state
// satisfies the constraints.
aig::Aig prelude_design(std::uint64_t seed, std::size_t latches,
                        std::size_t ands) {
  aig::Aig aig = constrained_design(seed, latches, ands);
  aig.properties()[1].expected_to_fail = true;
  const aig::Latch& l = aig.latches()[0];
  const aig::Lit lit = aig::Lit::make(l.var);
  aig.add_property(l.reset == Ternary::True ? ~lit : lit, "off_reset");
  return aig;
}

std::vector<std::size_t> without(std::vector<std::size_t> set,
                                 std::size_t p) {
  std::erase(set, p);
  return set;
}

// Engines that start from a prelude a sibling built — same path
// conjunction, another target — start from exactly the F_inf and unit
// stamps a standalone engine computes, and so run identically; an engine
// whose seeds grew past the prelude's snapshot keeps exactly the seeds a
// standalone engine keeps. Verdicts match the explicit-state reference on
// designs with constraints, an ETF property and a depth-0 failure.
void check_prelude_fed_engines(std::uint64_t seed, std::size_t latches,
                               std::size_t ands) {
  aig::Aig aig = prelude_design(seed, latches, ands);
  ts::TransitionSystem ts(aig);
  const ref::ExplicitResult expected = ref::explicit_check(ts);
  std::vector<std::size_t> eth;  // every property not expected to fail
  for (std::size_t j = 0; j < ts.num_properties(); ++j) {
    if (!ts.expected_to_fail(j)) eth.push_back(j);
  }

  Ic3Options base;
  base.lifting_respects_constraints = true;  // no spurious local CEXs
  base.time_limit_seconds = 30.0;
  // The engine for target `t` under path conjunction `path`.
  auto options = [&](const std::vector<std::size_t>& path, std::size_t t,
                     const std::vector<ts::Cube>& seeds,
                     Ic3PreludeMemo* memo) {
    Ic3Options opts = base;
    opts.assumed = without(path, t);
    opts.seed_clauses = seeds;
    opts.prelude_memo = memo;
    return opts;
  };

  // Seeds, shaped like a ClauseDb snapshot (sorted, no duplicates): the
  // JA proofs' invariants plus random one- and two-literal cubes, most of
  // them not inductive. `grown` adds cubes the snapshot lacks.
  Rng rng(seed);
  auto random_cubes = [&](std::set<ts::Cube>& into, int n) {
    for (int i = 0; i < n; ++i) {
      ts::Cube c;
      const std::size_t len = 1 + rng.below(2);
      for (std::size_t k = 0; k < len; ++k) {
        c.push_back(ts::StateLit{static_cast<int>(rng.below(ts.num_latches())),
                                 rng.chance(1, 2)});
      }
      ts::sort_cube(c);
      c.erase(std::unique(c.begin(), c.end(),
                          [](const ts::StateLit& a, const ts::StateLit& b) {
                            return a.latch == b.latch;
                          }),
              c.end());
      into.insert(c);
    }
  };
  std::set<ts::Cube> pool;
  for (std::size_t p : eth) {
    Ic3Result r = Ic3(ts, p, options(eth, p, {}, nullptr)).run();
    pool.insert(r.invariant.begin(), r.invariant.end());
  }
  random_cubes(pool, 6);
  const std::vector<ts::Cube> snapshot(pool.begin(), pool.end());
  random_cubes(pool, 4);
  const std::vector<ts::Cube> grown(pool.begin(), pool.end());

  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    std::vector<std::size_t> path = without(eth, p);
    path.push_back(p);
    std::sort(path.begin(), path.end());
    const std::size_t sibling = path[0] != p ? path[0] : path[1];
    const std::string tag =
        "seed " + std::to_string(seed) + " prop " + std::to_string(p);
    const bool fails = expected.fails_locally(p);
    auto check_verdict = [&](const Ic3Result& r, const std::string& what) {
      ASSERT_EQ(r.status, fails ? CheckStatus::Fails : CheckStatus::Holds)
          << tag << " " << what;
      if (fails) {
        EXPECT_TRUE(ts::is_local_cex(ts, r.cex, p, without(path, p)))
            << tag << " " << what;
      } else {
        testutil::expect_valid_invariant(ts, p, without(path, p),
                                         r.invariant);
      }
    };

    Ic3 alone(ts, p, options(path, p, snapshot, nullptr));
    const Ic3Result ra = alone.run();
    check_verdict(ra, "standalone");
    EXPECT_EQ(ra.stats.prelude_builds, 1u) << tag;
    EXPECT_EQ(ra.stats.prelude_reused, 0u) << tag;

    Ic3PreludeMemo memo(
        std::make_shared<const std::vector<ts::Cube>>(snapshot));
    Ic3(ts, sibling, options(path, sibling, snapshot, &memo)).run();
    const std::shared_ptr<const Ic3Prelude> prelude = memo.prelude();
    ASSERT_NE(prelude, nullptr) << tag;
    Ic3 fed(ts, p, options(path, p, snapshot, &memo));
    const Ic3Result rf = fed.run();
    check_verdict(rf, "prelude-fed");
    EXPECT_EQ(rf.stats.prelude_builds, 0u) << tag;
    EXPECT_EQ(rf.stats.prelude_reused, 1u) << tag;
    EXPECT_EQ(rf.frames, ra.frames) << tag;
    EXPECT_EQ(fed.inf_lemmas(), alone.inf_lemmas()) << tag;
    EXPECT_EQ(fed.unit_stamps(), alone.unit_stamps()) << tag;
    EXPECT_EQ(rf.stats.seed_clauses_kept, ra.stats.seed_clauses_kept) << tag;
    EXPECT_EQ(rf.stats.seed_clauses_dropped, ra.stats.seed_clauses_dropped)
        << tag;
    EXPECT_EQ(rf.stats.mined_invariants, ra.stats.mined_invariants) << tag;
    EXPECT_EQ(rf.stats.mining_sim_settled, ra.stats.mining_sim_settled)
        << tag;
    EXPECT_LE(rf.stats.consecution_queries, ra.stats.consecution_queries)
        << tag;

    // The sibling's prelude is the one this target would have built, and
    // it is the standalone engine's start-up F_inf.
    Ic3PreludeMemo own(
        std::make_shared<const std::vector<ts::Cube>>(snapshot));
    Ic3(ts, p, options(path, p, snapshot, &own)).run();
    ASSERT_NE(own.prelude(), nullptr) << tag;
    EXPECT_EQ(own.prelude()->inf_cubes, prelude->inf_cubes) << tag;
    EXPECT_EQ(own.prelude()->unit_stamps, prelude->unit_stamps) << tag;
    EXPECT_EQ(own.prelude()->seeds_dropped, prelude->seeds_dropped) << tag;
    ASSERT_LE(prelude->inf_cubes.size(), alone.inf_lemmas().size()) << tag;
    EXPECT_TRUE(std::equal(prelude->inf_cubes.begin(),
                           prelude->inf_cubes.end(),
                           alone.inf_lemmas().begin()))
        << tag;

    // Seeds grown past the snapshot: the engine keeps exactly the seeds a
    // standalone engine keeps (after the prelude's F_inf, in seed order).
    Ic3 alone_grown(ts, p, options(path, p, grown, nullptr));
    const Ic3Result rag = alone_grown.run();
    Ic3 fed_grown(ts, p, options(path, p, grown, &memo));
    const Ic3Result rfg = fed_grown.run();
    check_verdict(rag, "standalone, grown seeds");
    check_verdict(rfg, "prelude-fed, grown seeds");
    EXPECT_EQ(rfg.stats.prelude_reused, 1u) << tag;
    const std::size_t kept = rag.stats.seed_clauses_kept;
    ASSERT_EQ(rfg.stats.seed_clauses_kept, kept) << tag;
    const std::set<ts::Cube> fed_inf(fed_grown.inf_lemmas().begin(),
                                     fed_grown.inf_lemmas().end());
    EXPECT_TRUE(std::all_of(alone_grown.inf_lemmas().begin(),
                            alone_grown.inf_lemmas().begin() +
                                static_cast<std::ptrdiff_t>(kept),
                            [&](const ts::Cube& c) {
                              return fed_inf.count(c) > 0;
                            }))
        << tag;
  }
}

// Two sizes: on the larger one the sweep does not see every reachable
// literal, so which member seeds it matters.
TEST_P(Ic3RandomTest, PreludeFedEnginesStartLikeStandaloneOnes) {
  check_prelude_fed_engines(GetParam() + 50000, 6, 30);
  check_prelude_fed_engines(GetParam() + 50000, 10, 60);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ic3RandomTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace javer::ic3
