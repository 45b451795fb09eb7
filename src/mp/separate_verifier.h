// Separate verification: properties proved one at a time with IC3, in
// either of the paper's two proof modes:
//   * local  — other ETH properties are assumed on non-final steps (the
//              T_P projection); this is the core of JA-verification (§4);
//   * global — no assumptions.
// Orthogonally, strengthening clauses of completed proofs can be re-used
// through a ClauseDb (§6/§7-B), and lifting can respect or ignore the
// property constraints (§7-A), including the spurious-counterexample
// detect-and-retry loop.
//
// Since the scheduler refactor this class is a thin policy preset over
// sched::Scheduler (proof mode local/global, run-to-completion dispatch,
// one thread). Tables III–IX are all driven through it under different
// options; JaVerifier (ja_verifier.h) is the preset the paper calls
// "JA-verification" (local proofs + clause re-use).
#ifndef JAVER_MP_SEPARATE_VERIFIER_H
#define JAVER_MP_SEPARATE_VERIFIER_H

#include "mp/clause_db.h"
#include "mp/report.h"
#include "mp/sched/engine_options.h"
#include "ts/transition_system.h"

namespace javer::mp {

// The shared engine knobs (time limits, clause re-use, lifting, simplify,
// order) live in the sched::EngineOptions base.
struct SeparateOptions : sched::EngineOptions {
  bool local_proofs = true;  // local (JA) vs global separate
};

class SeparateVerifier {
 public:
  SeparateVerifier(const ts::TransitionSystem& ts, SeparateOptions opts = {});

  // Verifies every property. An external ClauseDb can be supplied (e.g.
  // shared across workers or loaded from disk); otherwise an internal one
  // is used.
  MultiResult run();
  MultiResult run(ClauseDb& db);

  // Verifies a single property (used by Table X and the parallel driver);
  // does not touch any clause database unless one is given.
  PropertyResult verify_one(std::size_t prop, ClauseDb* db = nullptr);

 private:
  const ts::TransitionSystem& ts_;
  SeparateOptions opts_;
};

}  // namespace javer::mp

#endif  // JAVER_MP_SEPARATE_VERIFIER_H
