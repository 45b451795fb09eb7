// Encode-reuse subsystem tests: cnf::CnfTemplate instantiation
// equisatisfiability against a direct Tseitin run (fuzzed via ref_dpll),
// TemplateCache sharing, IC3 verdicts against the explicit-state reference
// checker with certified invariants on the random-design families, and the
// frame context's activation-literal hygiene (retired activations and
// frame tags never leak across frames).
#include <gtest/gtest.h>

#include <memory>

#include "aig/builder.h"
#include "base/rng.h"
#include "cnf/template.h"
#include "cnf/tseitin.h"
#include "gen/random_design.h"
#include "ic3/frames.h"
#include "ic3/ic3.h"
#include "ref/explicit_checker.h"
#include "sat/cnf.h"
#include "sat/ref_dpll.h"
#include "sat/solver.h"
#include "test_util.h"

namespace javer {
namespace {

// Encoder sink writing into a plain Cnf (the direct-Tseitin reference for
// the equisat fuzz below).
class CnfSink : public sat::ClauseSink {
 public:
  explicit CnfSink(sat::Cnf& cnf) : cnf_(cnf) {}
  sat::Var new_var() override { return cnf_.new_var(); }
  bool add_clause(std::span<const sat::Lit> lits) override {
    cnf_.add_clause(lits);
    return true;
  }

 private:
  sat::Cnf& cnf_;
};

// A probe fixes a handful of interface points (latch values, input
// values, next-state values, property verdicts) as unit clauses; the
// template encoding and the direct encoding must agree on satisfiability
// under every probe.
struct Probe {
  std::vector<std::pair<std::size_t, bool>> latches;
  std::vector<std::pair<std::size_t, bool>> nexts;
  std::vector<std::pair<std::size_t, bool>> props;
};

bool probe_sat(const std::vector<std::vector<sat::Lit>>& clauses,
               int num_vars, const std::vector<sat::Lit>& latch_lits,
               const std::vector<sat::Lit>& next_lits,
               const std::vector<sat::Lit>& prop_lits, const Probe& probe) {
  std::vector<std::vector<sat::Lit>> all = clauses;
  for (auto [i, v] : probe.latches) all.push_back({latch_lits[i] ^ !v});
  for (auto [i, v] : probe.nexts) all.push_back({next_lits[i] ^ !v});
  for (auto [i, v] : probe.props) all.push_back({prop_lits[i] ^ !v});
  return sat::ref_dpll_solve(num_vars, all).has_value();
}

TEST(CnfTemplate, EquisatVsDirectTseitinFuzz) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    gen::RandomDesignSpec spec;
    spec.seed = seed;
    spec.num_latches = 3;
    spec.num_inputs = 2;
    spec.num_ands = 12;
    spec.num_properties = 2;
    aig::Aig aig = gen::make_random_design(spec);
    ts::TransitionSystem ts(aig);

    // Direct reference encoding: the full one-step cone into a Cnf.
    sat::Cnf direct;
    CnfSink sink(direct);
    cnf::Encoder enc(aig, sink);
    cnf::Encoder::Frame frame = enc.make_frame();
    std::vector<sat::Lit> d_latch, d_next, d_prop;
    for (const aig::Latch& l : aig.latches()) {
      d_latch.push_back(enc.lit(frame, aig::Lit::make(l.var)));
    }
    for (aig::Var v : aig.inputs()) enc.lit(frame, aig::Lit::make(v));
    for (const aig::Latch& l : aig.latches()) {
      d_next.push_back(enc.lit(frame, l.next));
    }
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      d_prop.push_back(enc.lit(frame, ts.property_lit(p)));
    }

    for (bool simplify : {false, true}) {
      cnf::CnfTemplate::Spec tspec;
      tspec.props = {0, 1};
      tspec.simplify = simplify;
      cnf::CnfTemplate tmpl(ts, tspec);

      Rng rng(seed * 77 + (simplify ? 1 : 0));
      for (int trial = 0; trial < 8; ++trial) {
        Probe probe;
        for (std::size_t i = 0; i < aig.num_latches(); ++i) {
          if (rng.chance(1, 2)) probe.latches.push_back({i, rng.chance(1, 2)});
        }
        for (std::size_t i = 0; i < aig.num_latches(); ++i) {
          if (rng.chance(1, 3)) probe.nexts.push_back({i, rng.chance(1, 2)});
        }
        for (std::size_t p = 0; p < ts.num_properties(); ++p) {
          if (rng.chance(1, 2)) probe.props.push_back({p, rng.chance(1, 2)});
        }

        bool want = probe_sat(direct.clauses, direct.num_vars, d_latch,
                              d_next, d_prop, probe);
        std::vector<sat::Lit> t_prop{tmpl.property_lit(0),
                                     tmpl.property_lit(1)};
        bool got = probe_sat(tmpl.clauses(), tmpl.num_vars(),
                             tmpl.latch_lits(), tmpl.next_lits(), t_prop,
                             probe);
        ASSERT_EQ(got, want) << "seed " << seed << " simplify " << simplify
                             << " trial " << trial;

        // And the solver instantiation agrees too (assumption form).
        sat::Solver solver;
        tmpl.instantiate(solver);
        std::vector<sat::Lit> assumptions;
        for (auto [i, v] : probe.latches) {
          assumptions.push_back(tmpl.latch_lits()[i] ^ !v);
        }
        for (auto [i, v] : probe.nexts) {
          assumptions.push_back(tmpl.next_lits()[i] ^ !v);
        }
        for (auto [i, v] : probe.props) {
          assumptions.push_back(tmpl.property_lit(i) ^ !v);
        }
        ASSERT_EQ(solver.solve(assumptions),
                  want ? sat::SolveResult::Sat : sat::SolveResult::Unsat)
            << "seed " << seed << " simplify " << simplify << " trial "
            << trial;
      }
    }
  }
}

TEST(CnfTemplate, CacheSharesOneBuildPerSpec) {
  gen::RandomDesignSpec spec;
  spec.seed = 3;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);
  cnf::TemplateCache cache(ts);

  bool built = false;
  auto a = cache.get_or_build({{0, 1}, false}, &built);
  EXPECT_TRUE(built);
  // Same property set in any order, deduplicated: a hit.
  auto b = cache.get_or_build({{1, 0, 1}, false}, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(a.get(), b.get());
  // Different simplify flag: a distinct template.
  auto c = cache.get_or_build({{0, 1}, true}, &built);
  EXPECT_TRUE(built);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CnfTemplate, DistinctDesignsSharingOneCacheGetDistinctTemplates) {
  // Regression (cache-keying soundness): the cache key folds the design
  // fingerprint, so a cache handed to a run that checks a *different*
  // transition system (JointAggregate builds a fresh aggregate TS per
  // iteration) can never replay the first design's template for it.
  gen::RandomDesignSpec spec_a;
  spec_a.seed = 61;
  gen::RandomDesignSpec spec_b;
  spec_b.seed = 62;
  aig::Aig a = gen::make_random_design(spec_a);
  aig::Aig b = gen::make_random_design(spec_b);
  ts::TransitionSystem ts_a(a);
  ts::TransitionSystem ts_b(b);
  ASSERT_NE(aig::fingerprint(a), aig::fingerprint(b));

  cnf::TemplateCache cache(ts_a);
  bool built = false;
  auto ta = cache.get_or_build({{0, 1}, false}, &built);
  EXPECT_TRUE(built);
  auto tb = cache.get_or_build(ts_b, {{0, 1}, false}, &built);
  EXPECT_TRUE(built);  // a fresh build, not a (wrong) hit
  EXPECT_NE(ta.get(), tb.get());
  // The foreign design's entry is exactly what a direct build produces.
  cnf::CnfTemplate direct(ts_b, {{0, 1}, false});
  EXPECT_EQ(tb->clauses(), direct.clauses());
  EXPECT_EQ(tb->num_vars(), direct.num_vars());
  // Both designs' entries keep hitting independently.
  auto ta2 = cache.get_or_build(ts_a, {{0, 1}, false}, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(ta.get(), ta2.get());
  auto tb2 = cache.get_or_build(ts_b, {{0, 1}, false}, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(tb.get(), tb2.get());
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(CnfTemplate, EngineWithForeignCacheMatchesPrivateEncoding) {
  // An Ic3 engine handed a cache built over another design must produce
  // the same verdicts and certificates as one with no shared cache.
  for (std::uint64_t seed = 71; seed <= 76; ++seed) {
    gen::RandomDesignSpec spec;
    spec.seed = seed;
    spec.num_latches = 4;
    spec.num_inputs = 2;
    spec.num_ands = 18;
    spec.num_properties = 2;
    aig::Aig a = gen::make_random_design(spec);
    spec.seed = seed + 100;
    aig::Aig b = gen::make_random_design(spec);
    ts::TransitionSystem ts_a(a);
    ts::TransitionSystem ts_b(b);
    cnf::TemplateCache cache(ts_a);

    for (std::size_t p = 0; p < ts_b.num_properties(); ++p) {
      ic3::Ic3Options with_cache;
      with_cache.time_limit_seconds = 30.0;
      with_cache.template_cache = &cache;
      ic3::Ic3Result shared = ic3::Ic3(ts_b, p, with_cache).run();

      ic3::Ic3Options without;
      without.time_limit_seconds = 30.0;
      ic3::Ic3Result private_run = ic3::Ic3(ts_b, p, without).run();

      ASSERT_EQ(shared.status, private_run.status)
          << "seed " << seed << " P" << p;
      if (shared.status == CheckStatus::Holds) {
        testutil::expect_valid_invariant(ts_b, p, {}, shared.invariant);
      }
    }
  }
}

TEST(CnfTemplate, InstantiateRequiresFreshSolver) {
  gen::RandomDesignSpec spec;
  spec.seed = 4;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);
  cnf::CnfTemplate tmpl(ts, {{0}, false});
  sat::Solver dirty;
  dirty.new_var();
  EXPECT_THROW(tmpl.instantiate(dirty), std::logic_error);
}

// --- IC3 against the reference checker -------------------------------------

class SolverModeRandomTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SolverModeRandomTest, GlobalVerdictsAndCertificatesAgree) {
  gen::RandomDesignSpec spec;
  spec.seed = GetParam();
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_ands = 20;
  spec.num_properties = 3;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult expected = ref::explicit_check(ts);

  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    ic3::Ic3Options opts;
    opts.time_limit_seconds = 30.0;
    const ic3::Ic3Result mono = ic3::Ic3(ts, p, opts).run();
    ASSERT_EQ(mono.status, expected.fails_globally(p) ? CheckStatus::Fails
                                                      : CheckStatus::Holds)
        << "seed " << GetParam() << " prop " << p;
    if (mono.status == CheckStatus::Holds) {
      testutil::expect_valid_invariant(ts, p, {}, mono.invariant);
    } else {
      EXPECT_TRUE(ts::is_global_cex(ts, mono.cex, p))
          << "seed " << GetParam() << " prop " << p;
    }
  }
}

TEST_P(SolverModeRandomTest, LocalStrictLiftingVerdictsAgree) {
  // Strict lifting keeps local-proof runs exact in outcome (no spurious
  // local CEX), so every verdict must match the reference checker's local
  // one and every certificate must validate.
  gen::RandomDesignSpec spec;
  spec.seed = GetParam() + 500;
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_ands = 20;
  spec.num_properties = 3;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);
  ref::ExplicitResult expected = ref::explicit_check(ts);

  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    std::vector<std::size_t> assumed;
    for (std::size_t j = 0; j < ts.num_properties(); ++j) {
      if (j != p) assumed.push_back(j);
    }
    ic3::Ic3Options opts;
    opts.assumed = assumed;
    opts.lifting_respects_constraints = true;
    opts.time_limit_seconds = 30.0;
    const ic3::Ic3Result mono = ic3::Ic3(ts, p, opts).run();
    ASSERT_EQ(mono.status, expected.fails_locally(p) ? CheckStatus::Fails
                                                     : CheckStatus::Holds)
        << "seed " << GetParam() + 500 << " prop " << p;
    if (mono.status == CheckStatus::Holds) {
      testutil::expect_valid_invariant(ts, p, assumed, mono.invariant);
    } else if (mono.status == CheckStatus::Fails) {
      EXPECT_TRUE(ts::is_local_cex(ts, mono.cex, p, assumed))
          << "seed " << GetParam() + 500 << " prop " << p;
    }
  }
}

TEST_P(SolverModeRandomTest, ResumedMonolithicMatchesOneShot) {
  // The sliced engine keeps its monolithic context across suspends; the
  // final verdict and certificate must match a one-shot run.
  gen::RandomDesignSpec spec;
  spec.seed = GetParam() + 900;
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_ands = 24;
  spec.num_properties = 2;
  aig::Aig aig = gen::make_random_design(spec);
  ts::TransitionSystem ts(aig);

  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    ic3::Ic3Options opts;
    opts.time_limit_seconds = 30.0;
    ic3::Ic3Result one_shot = ic3::Ic3(ts, p, opts).run();

    ic3::Ic3 sliced(ts, p, opts);
    ic3::Ic3Budget slice;
    slice.conflict_slice = 5;  // tiny: force many suspend/resume cycles
    ic3::Ic3Result r;
    for (int rounds = 0; rounds < 10000; ++rounds) {
      r = sliced.run(slice);
      if (r.status != CheckStatus::Unknown || !r.resumable) break;
    }
    ASSERT_EQ(r.status, one_shot.status) << "seed " << GetParam() + 900
                                         << " prop " << p;
    if (r.status == CheckStatus::Holds) {
      testutil::expect_valid_invariant(ts, p, {}, r.invariant);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverModeRandomTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- monolithic frame solver hygiene ----------------------------------------

// Fixture: 3-bit counter, P0: cnt != 5 (target), P1: cnt != 2 (assumable).
struct CounterFixture {
  CounterFixture() {
    aig::Builder b(aig);
    cnt = b.latch_word(3, Ternary::False, "cnt");
    b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
    aig.add_property(~b.eq_const(cnt, 5), "ne5");
    aig.add_property(~b.eq_const(cnt, 2), "ne2");
    ts = std::make_unique<ts::TransitionSystem>(aig);
    tmpl = std::make_unique<cnf::CnfTemplate>(
        *ts, cnf::CnfTemplate::Spec{{0, 1}, false});
  }
  static ts::Cube state_cube(int value) {
    ts::Cube c;
    for (int b = 0; b < 3; ++b) {
      c.push_back(ts::StateLit{b, ((value >> b) & 1) != 0});
    }
    return c;
  }
  aig::Aig aig;
  aig::Word cnt;
  std::unique_ptr<ts::TransitionSystem> ts;
  std::unique_ptr<cnf::CnfTemplate> tmpl;
};

TEST(MonolithicFrameSolver, FrameTagsDoNotLeakAcrossFrames) {
  CounterFixture fx;
  ic3::MonolithicFrameSolver::Config config;
  config.target_prop = 0;
  config.tmpl = fx.tmpl.get();
  ic3::MonolithicFrameSolver ms(*fx.ts, config);
  ms.ensure_frame(3);

  // Block "cnt==4" at delta level 2: active for frames <= 2 (F_k holds
  // levels >= k), invisible at frame 3.
  ts::Cube four = CounterFixture::state_cube(4);
  ms.add_blocking_clause(four, 2);
  // Consecution of cnt==5 asks for a predecessor of 5, i.e. cnt==4, in
  // the frame. Blocked at frames 1 and 2, still reachable at frame 3.
  ts::Cube five = CounterFixture::state_cube(5);
  EXPECT_EQ(ms.query_consecution(1, five, true, nullptr),
            sat::SolveResult::Unsat);
  EXPECT_EQ(ms.query_consecution(2, five, true, nullptr),
            sat::SolveResult::Unsat);
  EXPECT_EQ(ms.query_consecution(3, five, true, nullptr),
            sat::SolveResult::Sat);
  // F_inf-relative consecution must not see frame-tagged clauses at all.
  EXPECT_EQ(ms.query_consecution(ic3::MonolithicFrameSolver::kFrameInf,
                                 five, true, nullptr),
            sat::SolveResult::Sat);
}

TEST(MonolithicFrameSolver, RetiredActivationsNeverReappear) {
  CounterFixture fx;
  ic3::MonolithicFrameSolver::Config config;
  config.target_prop = 0;
  config.tmpl = fx.tmpl.get();
  ic3::MonolithicFrameSolver ms(*fx.ts, config);
  ms.ensure_frame(1);

  ts::Cube five = CounterFixture::state_cube(5);
  ts::Cube two = CounterFixture::state_cube(2);
  // Baseline answers from a fresh context.
  sat::SolveResult five_at_1 = ms.query_consecution(1, five, true, nullptr);
  sat::SolveResult two_at_1 = ms.query_consecution(1, two, true, nullptr);

  // Churn: hundreds of temporary activation literals retired via
  // negation clauses and lift refutation clauses.
  for (int i = 0; i < 300; ++i) {
    ts::Cube c = CounterFixture::state_cube(i % 8);
    ms.query_consecution(1, c, /*add_negation=*/true, nullptr);
    ms.lift_bad(std::vector<bool>{true, false, true},
                std::vector<bool>{});
  }
  EXPECT_GE(ms.retired_activations(), 600);

  // The retired clauses (¬cube under a dead activation) must not bleed
  // into later queries: answers are unchanged, and UNSAT cores still map
  // exclusively to cube literals (indices into the queried cube).
  EXPECT_EQ(ms.query_consecution(1, five, true, nullptr), five_at_1);
  EXPECT_EQ(ms.query_consecution(1, two, true, nullptr), two_at_1);
  std::vector<std::size_t> core;
  sat::SolveResult r = ms.query_consecution(1, five, true, &core);
  ASSERT_EQ(r, five_at_1);
  if (r == sat::SolveResult::Unsat) {
    for (std::size_t idx : core) EXPECT_LT(idx, five.size());
    // The core is sufficient: re-querying the shrunk cube stays UNSAT.
    if (!core.empty()) {
      ts::Cube shrunk;
      for (std::size_t idx : core) shrunk.push_back(five[idx]);
      ts::sort_cube(shrunk);
      EXPECT_EQ(ms.query_consecution(1, shrunk, true, nullptr),
                sat::SolveResult::Unsat);
    }
  }
}

TEST(MonolithicFrameSolver, InitUnitsOnlyAtFrameZero) {
  CounterFixture fx;
  ic3::MonolithicFrameSolver::Config config;
  config.target_prop = 0;
  config.tmpl = fx.tmpl.get();
  ic3::MonolithicFrameSolver ms(*fx.ts, config);
  ms.ensure_frame(1);
  // Frame 0 is exactly I (cnt==0): the initial state satisfies P0.
  EXPECT_EQ(ms.query_bad(0), sat::SolveResult::Unsat);
  // Frame 1 is unconstrained so far: some state violates P0.
  EXPECT_EQ(ms.query_bad(1), sat::SolveResult::Sat);
  auto state = ms.model_state();
  int v = state[0] + 2 * state[1] + 4 * state[2];
  EXPECT_EQ(v, 5);
}

}  // namespace
}  // namespace javer
