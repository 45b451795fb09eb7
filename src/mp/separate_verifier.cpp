#include "mp/separate_verifier.h"

#include "mp/sched/property_task.h"
#include "mp/sched/scheduler.h"

namespace javer::mp {

SeparateVerifier::SeparateVerifier(const ts::TransitionSystem& ts,
                                   SeparateOptions opts)
    : ts_(ts), opts_(std::move(opts)) {}

PropertyResult SeparateVerifier::verify_one(std::size_t prop, ClauseDb* db) {
  // One task driven to completion; verdict labels follow the verifier's
  // proof mode even when the assumption set happens to be empty (the
  // projection claim still holds and the debugging-set accounting stays
  // uniform).
  sched::PropertyTask task(
      ts_, prop,
      opts_.local_proofs ? sched::local_assumptions(ts_, prop)
                         : std::vector<std::size_t>{},
      opts_, opts_.local_proofs);
  while (task.open()) task.run_slice(sched::TaskBudget{}, db);
  return std::move(task.result());
}

MultiResult SeparateVerifier::run() {
  ClauseDb db;
  return run(db);
}

MultiResult SeparateVerifier::run(ClauseDb& db) {
  sched::SchedulerOptions so;
  so.engine = opts_;
  so.proof_mode = opts_.local_proofs ? sched::ProofMode::Local
                                     : sched::ProofMode::Global;
  so.dispatch = sched::DispatchPolicy::RunToCompletion;
  so.num_threads = 1;
  return sched::Scheduler(ts_, so).run(db);
}

}  // namespace javer::mp
