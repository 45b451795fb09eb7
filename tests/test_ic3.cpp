// IC3 engine tests on designs with known semantics: proofs, CEX traces,
// invariant validity (checked by independent SAT queries), local proofs,
// clause seeding, lifting modes, and the frames metric.
#include <gtest/gtest.h>

#include <stdexcept>

#include "aig/builder.h"
#include "cnf/template.h"
#include "cnf/tseitin.h"
#include "gen/counter.h"
#include "ic3/ic3.h"
#include "ref/explicit_checker.h"
#include "ts/trace.h"
#include "test_util.h"

namespace javer::ic3 {
namespace {

TEST(Ic3, TrivialHoldingProperty) {
  aig::Aig aig;
  aig::Lit l = aig.add_latch(Ternary::False);
  aig.set_latch_next(l, l);
  aig.add_property(~l, "stays_zero");
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Holds);
  testutil::expect_valid_invariant(ts, 0, {}, r.invariant);
}

TEST(Ic3, ToggleCexAtDepthOne) {
  aig::Aig aig;
  aig::Lit l = aig.add_latch(Ternary::False);
  aig.set_latch_next(l, ~l);
  aig.add_property(~l, "never_one");
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Fails);
  EXPECT_EQ(r.cex.length(), 1u);
  EXPECT_TRUE(ts::is_global_cex(ts, r.cex, 0));
}

TEST(Ic3, DepthZeroCexOnInput) {
  aig::Aig aig;
  aig::Lit in = aig.add_input();
  aig::Lit l = aig.add_latch();
  aig.set_latch_next(l, l);
  aig.add_property(in, "input_stuck_high");
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Fails);
  EXPECT_EQ(r.cex.length(), 0u);
  EXPECT_EQ(r.frames, 0);
  EXPECT_TRUE(ts::is_global_cex(ts, r.cex, 0));
}

TEST(Ic3, SaturatingCounterHolds) {
  // scnt freezes once the top bit sets; values above 2^(n-1) unreachable.
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word scnt = b.latch_word(5);
  b.set_next(scnt,
             b.mux_word(scnt.back(), scnt,
                        b.inc_word(scnt, aig::Lit::true_lit())));
  aig.add_property(~b.eq_const(scnt, 21), "unreachable_value");
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Holds);
  EXPECT_FALSE(r.invariant.empty());
  testutil::expect_valid_invariant(ts, 0, {}, r.invariant);
}

TEST(Ic3, BuggyCounterGlobalCexIsDeep) {
  aig::Aig aig = gen::make_counter({.bits = 4, .buggy = true});
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 1);  // P1: val <= rval
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Fails);
  EXPECT_EQ(r.cex.length(), 9u);  // 2^3 + 1 steps
  EXPECT_TRUE(ts::is_global_cex(ts, r.cex, 1));
}

TEST(Ic3, BuggyCounterLocalProofIsImmediate) {
  // Under the assumption P0 (req==1) the counter always resets at rval,
  // so P1 holds locally — the paper's Example 1 punchline.
  aig::Aig aig = gen::make_counter({.bits = 8, .buggy = true});
  ts::TransitionSystem ts(aig);
  Ic3Options opts;
  opts.assumed = {0};
  Ic3 engine(ts, 1, opts);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Holds);
  EXPECT_LE(r.frames, 3);
  testutil::expect_valid_invariant(ts, 1, {0}, r.invariant);
}

TEST(Ic3, LocalCexForP0IsShallow) {
  aig::Aig aig = gen::make_counter({.bits = 6, .buggy = true});
  ts::TransitionSystem ts(aig);
  Ic3Options opts;
  opts.assumed = {1};
  Ic3 engine(ts, 0, opts);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Fails);
  EXPECT_EQ(r.cex.length(), 0u);
  EXPECT_TRUE(ts::is_local_cex(ts, r.cex, 0, {1}));
}

TEST(Ic3, MaskedPropertyHoldsLocallyFailsGlobally) {
  // cnt: 0,1,2,...; P0: cnt!=1 (fails at 1), P1: cnt!=3 (fails at 3 but
  // masked by P0 under T_P).
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word cnt = b.latch_word(3);
  b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
  aig.add_property(~b.eq_const(cnt, 1), "p0");
  aig.add_property(~b.eq_const(cnt, 3), "p1");
  ts::TransitionSystem ts(aig);
  {
    Ic3Options opts;
    opts.assumed = {0};
    Ic3 engine(ts, 1, opts);
    Ic3Result r = engine.run();
    EXPECT_EQ(r.status, CheckStatus::Holds) << "masked property holds locally";
    testutil::expect_valid_invariant(ts, 1, {0}, r.invariant);
  }
  {
    Ic3 engine(ts, 1);
    Ic3Result r = engine.run();
    ASSERT_EQ(r.status, CheckStatus::Fails) << "but fails globally";
    EXPECT_EQ(r.cex.length(), 3u);
    EXPECT_TRUE(ts::is_global_cex(ts, r.cex, 1));
  }
}

TEST(Ic3, SeedClausesAcceptedAndInvalidOnesDropped) {
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word scnt = b.latch_word(4);
  b.set_next(scnt,
             b.mux_word(scnt.back(), scnt,
                        b.inc_word(scnt, aig::Lit::true_lit())));
  aig.add_property(~b.eq_const(scnt, 11), "p");
  ts::TransitionSystem ts(aig);

  Ic3Options opts;
  // Valid invariant clause of this system: ¬(scnt[3] ∧ scnt[0]).
  ts::Cube good{{0, true}, {3, true}};
  // Invalid: ¬scnt[1] is not inductive (bit 1 does get set).
  ts::Cube bad{{1, true}};
  // Intersects init: ¬(¬scnt[0] ∧ ¬scnt[1]) excludes the reset state.
  ts::Cube init_violating{{0, false}, {1, false}};
  opts.seed_clauses = {good, bad, init_violating};
  Ic3 engine(ts, 0, opts);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Holds);
  EXPECT_EQ(r.stats.seed_clauses_kept, 1u);
  EXPECT_EQ(r.stats.seed_clauses_dropped, 2u);
  testutil::expect_valid_invariant(ts, 0, {}, r.invariant);
}

TEST(Ic3, BothLiftingModesAgreeOnCounter) {
  for (bool respect : {false, true}) {
    aig::Aig aig = gen::make_counter({.bits = 4, .buggy = true});
    ts::TransitionSystem ts(aig);
    Ic3Options opts;
    opts.assumed = {0};
    opts.lifting_respects_constraints = respect;
    Ic3 engine(ts, 1, opts);
    EXPECT_EQ(engine.run().status, CheckStatus::Holds)
        << "respect=" << respect;
  }
}

TEST(Ic3, TimeLimitReturnsUnknown) {
  // Very wide buggy counter, global proof: the CEX is ~2^19 steps deep and
  // cannot be produced within the budget.
  aig::Aig aig = gen::make_counter({.bits = 20, .buggy = true});
  ts::TransitionSystem ts(aig);
  Ic3Options opts;
  opts.time_limit_seconds = 0.05;
  Ic3 engine(ts, 1, opts);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Unknown);
}

TEST(Ic3, MaxFramesReturnsUnknown) {
  aig::Aig aig = gen::make_counter({.bits = 8, .buggy = true});
  ts::TransitionSystem ts(aig);
  Ic3Options opts;
  opts.max_frames = 2;
  Ic3 engine(ts, 1, opts);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Unknown);
  EXPECT_LE(r.frames, 2);
}

TEST(Ic3, RejectsBadArguments) {
  aig::Aig aig;
  aig::Lit l = aig.add_latch();
  aig.set_latch_next(l, l);
  aig.add_property(~l, "p");
  ts::TransitionSystem ts(aig);
  EXPECT_THROW(Ic3(ts, 5), std::invalid_argument);
  Ic3Options self_assumed;
  self_assumed.assumed = {0};
  EXPECT_THROW(Ic3(ts, 0, self_assumed), std::invalid_argument);
}

TEST(Ic3, DesignConstraintBlocksCex) {
  aig::Aig aig;
  aig::Lit in = aig.add_input();
  aig::Lit l = aig.add_latch();
  aig.set_latch_next(l, in);
  aig.add_property(~l, "never");
  aig.add_constraint(~in);
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Holds);
  testutil::expect_valid_invariant(ts, 0, {}, r.invariant);
}

TEST(Ic3, LiftedBadCubeKeepsTheConstraintLiterals) {
  // The constraint c ∨ d is false in the only initial state, so no trace
  // exists and the property holds. Neither c nor d alone is inductive, so
  // mining cannot hide the constraint: a bad cube lifted with it as a unit
  // drops c and d, meets I, and yields a counterexample that violates it.
  aig::Aig aig;
  aig::Lit x = aig.add_input();
  aig::Lit p = aig.add_latch(Ternary::True);
  aig::Lit c = aig.add_latch(Ternary::False);
  aig::Lit d = aig.add_latch(Ternary::False);
  aig.set_latch_next(p, p);
  aig.set_latch_next(c, d);
  aig.set_latch_next(d, c);
  aig.add_property(~aig.add_and(p, ~x), "p_implies_x");
  aig.add_constraint(~aig.add_and(~c, ~d));
  ts::TransitionSystem ts(aig);
  ASSERT_FALSE(ref::explicit_check(ts).fails_globally(0));
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  EXPECT_EQ(r.status, CheckStatus::Holds);
  testutil::expect_valid_invariant(ts, 0, {}, r.invariant);

  // A context that asserts the constraints as units refuses to lift.
  const cnf::CnfTemplate tmpl(ts, {{0}, false});
  FrameSolver::Config config;
  config.tmpl = &tmpl;
  FrameSolver with_units(ts, config);
  EXPECT_THROW(with_units.lift_bad({true, true, false}, {false}),
               std::logic_error);
}

TEST(Ic3, DeliveredUnitIsRequeriedOnceFinfGrows) {
  // b' = i and c' = ¬i, so ¬(b ∧ c) is inductive; a' = a ∨ (b ∧ c), so
  // ¬a is inductive relative to ¬(b ∧ c) but not alone. Mining queries
  // {a} while F_inf is empty (Sat) and the simulation sweep sees b and c.
  // The first delivery of {a} is therefore settled without a query; once
  // the two-literal lemma {b, c} lands, the same unit must be queried
  // again and imported.
  aig::Aig aig;
  aig::Lit i = aig.add_input();
  aig::Lit a = aig.add_latch(Ternary::False);
  aig::Lit b = aig.add_latch(Ternary::False);
  aig::Lit c = aig.add_latch(Ternary::False);
  aig.set_latch_next(a, ~aig.add_and(~a, ~aig.add_and(b, c)));
  aig.set_latch_next(b, i);
  aig.set_latch_next(c, ~i);
  aig.add_property(~a, "a_stays_low");
  ts::TransitionSystem ts(aig);
  const ts::Cube unit_a{ts::StateLit{0, true}};
  const ts::Cube pair_bc{ts::StateLit{1, true}, ts::StateLit{2, true}};
  Ic3 engine(ts, 0);
  engine.add_lemma_candidates({unit_a, pair_bc, unit_a});
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Holds);
  testutil::expect_valid_invariant(ts, 0, {}, r.invariant);
  EXPECT_EQ(r.stats.mined_invariants, 0u);
  EXPECT_EQ(r.stats.lemmas_imported, 2u);
  EXPECT_EQ(r.stats.lemmas_rejected, 1u);
  EXPECT_EQ(r.stats.lemmas_settled, 1u);
  // One mining query on {a}, then one each for {b, c} and the second {a}.
  EXPECT_EQ(r.stats.consecution_queries, 3u);
  EXPECT_EQ(engine.inf_lemmas(), (std::vector<ts::Cube>{pair_bc, unit_a}));
}

TEST(Ic3, XResetLatchFreeInitialValue) {
  aig::Aig aig;
  aig::Lit l = aig.add_latch(Ternary::X);
  aig.set_latch_next(l, l);
  aig.add_property(~l, "zero");
  ts::TransitionSystem ts(aig);
  Ic3 engine(ts, 0);
  Ic3Result r = engine.run();
  ASSERT_EQ(r.status, CheckStatus::Fails);
  EXPECT_EQ(r.cex.length(), 0u);
  EXPECT_TRUE(ts::is_global_cex(ts, r.cex, 0));
}

}  // namespace
}  // namespace javer::ic3
