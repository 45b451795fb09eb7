// Preprocessor: a ClauseSink that batches clauses on their way into a
// Solver and simplifies each batch (subsumption, self-subsuming
// resolution, bounded variable elimination) before committing it.
//
// This is how an incremental engine (BMC unrolling) gets SatELite-style
// preprocessing without giving up incrementality: a batch is one
// self-contained encoding step (one unrolling frame), its interface
// literals are frozen, and only variables born inside the batch are
// eliminated.
//
// Contract for callers:
//   * freeze() every literal that is referenced after flush() — as an
//     assumption, in a later clause, or via model_value().
//   * Clauses added directly to the Solver (bypassing the sink) must only
//     use frozen literals or variables created after the last flush() and
//     never fed through the sink.
//   * flush() before the first solve() that depends on the batch.
//
// With `enabled == false` every call passes straight through to the
// Solver, so call sites need no branching.
#ifndef JAVER_SAT_SIMP_PREPROCESSOR_H
#define JAVER_SAT_SIMP_PREPROCESSOR_H

#include <vector>

#include "sat/clause_sink.h"
#include "sat/cnf.h"
#include "sat/simp/simplifier.h"
#include "sat/solver.h"

namespace javer::sat::simp {

class Preprocessor : public ClauseSink {
 public:
  explicit Preprocessor(Solver& solver, bool enabled = false,
                        SimplifyConfig cfg = {});

  Var new_var() override { return solver_.new_var(); }
  bool add_clause(std::span<const Lit> lits) override;
  using ClauseSink::add_binary;
  using ClauseSink::add_clause;
  using ClauseSink::add_ternary;
  using ClauseSink::add_unit;

  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  void freeze(Var v);
  void freeze(Lit l) { freeze(l.var()); }

  // Simplifies the buffered batch against the frozen set and loads the
  // result into the solver. Returns false if the solver became
  // unsatisfiable. No-op when disabled or the buffer is empty.
  bool flush();

  // Accumulated over all flushed batches.
  const SimpStats& stats() const { return stats_; }

 private:
  Solver& solver_;
  bool enabled_;
  SimplifyConfig cfg_;
  std::vector<std::vector<Lit>> buffer_;
  std::vector<std::uint8_t> frozen_;
  Var batch_floor_ = 0;  // variables below this predate the current batch
  SimpStats stats_;
};

}  // namespace javer::sat::simp

#endif  // JAVER_SAT_SIMP_PREPROCESSOR_H
