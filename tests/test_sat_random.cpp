// Property-based cross-check of the CDCL solver against the reference
// DPLL on random 3-SAT-ish formulas, including solving under random
// assumptions and validating UNSAT cores.
#include <gtest/gtest.h>

#include <vector>

#include "base/rng.h"
#include "sat/ref_dpll.h"
#include "sat/solver.h"

namespace javer::sat {
namespace {

struct RandomCnf {
  int num_vars;
  std::vector<std::vector<Lit>> clauses;
};

RandomCnf random_cnf(Rng& rng, int num_vars, int num_clauses,
                     int max_clause_len) {
  RandomCnf cnf;
  cnf.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    int len = 1 + static_cast<int>(rng.below(max_clause_len));
    std::vector<Lit> clause;
    for (int i = 0; i < len; ++i) {
      Var v = static_cast<Var>(rng.below(num_vars));
      clause.push_back(Lit::make(v, rng.chance(1, 2)));
    }
    cnf.clauses.push_back(clause);
  }
  return cnf;
}

class RandomCnfTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCnfTest, AgreesWithReferenceDpll) {
  Rng rng(GetParam());
  // Around the 3-SAT phase transition so both answers appear.
  int num_vars = 8 + static_cast<int>(rng.below(10));
  int num_clauses = static_cast<int>(num_vars * 4.3);
  RandomCnf cnf = random_cnf(rng, num_vars, num_clauses, 3);

  Solver solver;
  for (int v = 0; v < cnf.num_vars; ++v) solver.new_var();
  bool trivially_unsat = false;
  for (const auto& clause : cnf.clauses) {
    if (!solver.add_clause(clause)) trivially_unsat = true;
  }
  SolveResult res =
      trivially_unsat ? SolveResult::Unsat : solver.solve();

  auto ref = ref_dpll_solve(cnf.num_vars, cnf.clauses);
  if (ref.has_value()) {
    ASSERT_EQ(res, SolveResult::Sat) << "seed " << GetParam();
    // The CDCL model must satisfy the original clauses.
    std::vector<bool> model(cnf.num_vars);
    for (int v = 0; v < cnf.num_vars; ++v) {
      model[v] = solver.model_value(v) == kTrue;
    }
    EXPECT_TRUE(ref_check_model(cnf.clauses, model)) << "seed " << GetParam();
  } else {
    EXPECT_EQ(res, SolveResult::Unsat) << "seed " << GetParam();
  }
}

TEST_P(RandomCnfTest, AssumptionCoresAreSound) {
  Rng rng(GetParam() * 77 + 5);
  int num_vars = 8 + static_cast<int>(rng.below(8));
  int num_clauses = num_vars * 3;
  RandomCnf cnf = random_cnf(rng, num_vars, num_clauses, 3);

  Solver solver;
  for (int v = 0; v < cnf.num_vars; ++v) solver.new_var();
  bool trivially_unsat = false;
  for (const auto& clause : cnf.clauses) {
    if (!solver.add_clause(clause)) trivially_unsat = true;
  }
  if (trivially_unsat) return;

  // Random assumptions over distinct variables.
  std::vector<Lit> assumptions;
  for (int v = 0; v < num_vars; ++v) {
    if (rng.chance(1, 3)) assumptions.push_back(Lit::make(v, rng.chance(1, 2)));
  }
  SolveResult res = solver.solve(assumptions);
  if (res == SolveResult::Sat) {
    for (Lit a : assumptions) {
      EXPECT_EQ(solver.model_value(a), kTrue) << "assumption violated";
    }
    return;
  }
  ASSERT_EQ(res, SolveResult::Unsat);
  // The core must be a subset of the assumptions...
  const auto core = solver.conflict_core();
  for (Lit c : core) {
    bool found = false;
    for (Lit a : assumptions) found |= (a == c);
    EXPECT_TRUE(found) << "core literal not among assumptions";
  }
  // ...and adding the core as units must make the formula UNSAT (checked
  // with the reference solver for independence).
  auto clauses = cnf.clauses;
  for (Lit c : core) clauses.push_back({c});
  EXPECT_FALSE(ref_dpll_solve(cnf.num_vars, clauses).has_value())
      << "core is not actually contradictory, seed " << GetParam();
}

// The IC3 usage pattern: one incremental solver, clause groups guarded by
// activation literals, each group queried under its literal and then
// retired through the unit ¬act. The level-0 sweep that deletes retired
// groups is deferred, so this checks both that the answers never depend
// on when it runs and that it still runs.
TEST_P(RandomCnfTest, RetiredActivationsAreSweptAndAnswersStayExact) {
  Rng rng(GetParam() * 131 + 17);
  const int num_vars = 8 + static_cast<int>(rng.below(5));
  auto random_lit = [&] {
    const Var v = static_cast<Var>(rng.below(num_vars));
    return Lit::make(v, rng.chance(1, 2));
  };
  Solver solver;
  for (int v = 0; v < num_vars; ++v) solver.new_var();
  std::vector<std::vector<Lit>> all;  // everything added, for ref_dpll
  // An under-constrained 3-SAT base (ratio 2), so most queries are Sat
  // and the assumptions decide the Unsat ones.
  for (int c = 0; c < num_vars * 2; ++c) {
    all.push_back({random_lit(), random_lit(), random_lit()});
    solver.add_clause(all.back());
  }

  bool swept = false;
  for (int round = 0; round < 60; ++round) {
    const Lit act = Lit::make(solver.new_var());
    for (int c = 0; c < 4; ++c) {
      std::vector<Lit> clause{~act};
      const int len = 2 + static_cast<int>(rng.below(2));
      for (int i = 0; i < len; ++i) clause.push_back(random_lit());
      solver.add_clause(clause);
      all.push_back(clause);
    }
    std::vector<Lit> assumptions{act};
    for (int v = 0; v < num_vars; ++v) {
      if (rng.chance(1, 6)) {
        assumptions.push_back(Lit::make(v, rng.chance(1, 2)));
      }
    }

    const std::size_t before = solver.num_problem_clauses();
    const SolveResult res = solver.solve(assumptions);
    swept |= solver.num_problem_clauses() < before;

    std::vector<std::vector<Lit>> query = all;
    for (Lit a : assumptions) query.push_back({a});
    const auto ref = ref_dpll_solve(solver.num_vars(), query);
    if (ref.has_value()) {
      ASSERT_EQ(res, SolveResult::Sat) << "seed " << GetParam() << " round "
                                       << round;
      std::vector<bool> model(solver.num_vars());
      for (int v = 0; v < solver.num_vars(); ++v) {
        model[v] = solver.model_value(v) == kTrue;
      }
      EXPECT_TRUE(ref_check_model(query, model)) << "round " << round;
    } else {
      ASSERT_EQ(res, SolveResult::Unsat) << "seed " << GetParam()
                                         << " round " << round;
      std::vector<std::vector<Lit>> core_query = all;
      for (Lit c : solver.conflict_core()) {
        bool found = false;
        for (Lit a : assumptions) found |= (a == c);
        EXPECT_TRUE(found) << "core literal not among assumptions";
        core_query.push_back({c});
      }
      EXPECT_FALSE(ref_dpll_solve(solver.num_vars(), core_query).has_value())
          << "core is not contradictory, round " << round;
    }

    solver.add_unit(~act);  // retire the group
    all.push_back({~act});
    if (!solver.ok()) break;  // the base formula itself is unsatisfiable
  }
  if (solver.ok()) {
    EXPECT_TRUE(swept) << "no retired group was ever removed, seed "
                       << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfTest,
                         ::testing::Range<std::uint64_t>(1, 61));

TEST(RefDpll, KnownSat) {
  std::vector<std::vector<Lit>> clauses{{Lit::make(0)},
                                        {Lit::make(0, true), Lit::make(1)}};
  auto model = ref_dpll_solve(2, clauses);
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE((*model)[0]);
  EXPECT_TRUE((*model)[1]);
}

TEST(RefDpll, KnownUnsat) {
  std::vector<std::vector<Lit>> clauses{
      {Lit::make(0), Lit::make(1)},
      {Lit::make(0), Lit::make(1, true)},
      {Lit::make(0, true), Lit::make(1)},
      {Lit::make(0, true), Lit::make(1, true)}};
  EXPECT_FALSE(ref_dpll_solve(2, clauses).has_value());
}

TEST(RefDpll, EmptyClauseUnsat) {
  std::vector<std::vector<Lit>> clauses{{}};
  EXPECT_FALSE(ref_dpll_solve(1, clauses).has_value());
}

}  // namespace
}  // namespace javer::sat
