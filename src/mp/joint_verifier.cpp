#include "mp/joint_verifier.h"

#include "aig/aig.h"
#include "mp/sched/scheduler.h"

namespace javer::mp {

std::pair<aig::Aig, std::size_t> make_aggregate(
    const aig::Aig& aig, const std::vector<std::size_t>& props) {
  aig::Aig copy = aig;
  aig::Lit agg = aig::Lit::true_lit();
  for (std::size_t p : props) {
    agg = copy.add_and(agg, copy.properties()[p].lit);
  }
  std::size_t index = copy.add_property(agg, "aggregate");
  return {std::move(copy), index};
}

JointVerifier::JointVerifier(const ts::TransitionSystem& ts,
                             JointOptions opts)
    : ts_(ts), opts_(std::move(opts)) {}

MultiResult JointVerifier::run() {
  sched::SchedulerOptions so;
  so.engine = opts_;
  so.proof_mode = sched::ProofMode::Global;
  so.dispatch = sched::DispatchPolicy::JointAggregate;
  return sched::Scheduler(ts_, so).run();
}

}  // namespace javer::mp
