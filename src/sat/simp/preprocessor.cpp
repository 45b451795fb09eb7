#include "sat/simp/preprocessor.h"

namespace javer::sat::simp {

Preprocessor::Preprocessor(Solver& solver, bool enabled, SimplifyConfig cfg)
    : solver_(solver), enabled_(enabled), cfg_(cfg),
      batch_floor_(solver.num_vars()) {}

void Preprocessor::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (enabled_) batch_floor_ = solver_.num_vars();
}

void Preprocessor::freeze(Var v) {
  if (static_cast<std::size_t>(v) >= frozen_.size()) {
    frozen_.resize(v + 1, 0);
  }
  frozen_[v] = 1;
}

bool Preprocessor::add_clause(std::span<const Lit> lits) {
  if (!enabled_) return solver_.add_clause(lits);
  buffer_.emplace_back(lits.begin(), lits.end());
  return solver_.ok();
}

bool Preprocessor::flush() {
  if (!enabled_ || buffer_.empty()) {
    batch_floor_ = solver_.num_vars();
    return solver_.ok();
  }

  Cnf batch;
  batch.num_vars = solver_.num_vars();
  batch.clauses = std::move(buffer_);
  buffer_.clear();

  Simplifier simp(cfg_);
  for (Var v = 0; v < static_cast<Var>(frozen_.size()); ++v) {
    if (frozen_[v]) simp.freeze(v);
  }
  simp.set_eliminable_floor(batch_floor_);

  if (!simp.simplify(batch)) {
    // The batch alone is unsatisfiable; poison the solver.
    solver_.add_clause(std::span<const Lit>{});
    batch_floor_ = solver_.num_vars();
    return false;
  }
  for (const auto& clause : batch.clauses) {
    if (!solver_.add_clause(clause)) break;
  }
  // Eliminated variables have no clauses left; branching on them would be
  // pure waste.
  for (Var v : simp.eliminated_vars()) {
    solver_.set_decision_var(v, false);
  }
  stats_.accumulate(simp.stats());
  batch_floor_ = solver_.num_vars();
  return solver_.ok();
}

}  // namespace javer::sat::simp
