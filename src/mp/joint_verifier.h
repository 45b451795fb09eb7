// Joint verification (the baseline the paper compares against): verify the
// aggregate property P = P1 ∧ ... ∧ Pk with a single IC3 run. When the
// aggregate fails, the counterexample's final state identifies a subset of
// failed properties; those are removed and the procedure restarts on the
// remaining conjunction (the paper's Jnt-ver script). A preset over the
// property scheduler's JointAggregate dispatch policy.
#ifndef JAVER_MP_JOINT_VERIFIER_H
#define JAVER_MP_JOINT_VERIFIER_H

#include <utility>
#include <vector>

#include "mp/report.h"
#include "mp/sched/engine_options.h"
#include "ts/transition_system.h"

namespace javer::mp {

// All knobs are the shared engine ones (the paper's joint runs used a
// 10-hour total_time_limit, which bounds every iteration; clause re-use,
// per-property limits and order do not apply to the aggregate run).
struct JointOptions : sched::EngineOptions {};

class JointVerifier {
 public:
  JointVerifier(const ts::TransitionSystem& ts, JointOptions opts = {});

  MultiResult run();

 private:
  const ts::TransitionSystem& ts_;
  JointOptions opts_;
};

// Builds a copy of `aig` extended with one new property that is the
// conjunction of the given properties; returns the copy and the index of
// the aggregate property within it.
std::pair<aig::Aig, std::size_t> make_aggregate(
    const aig::Aig& aig, const std::vector<std::size_t>& props);

}  // namespace javer::mp

#endif  // JAVER_MP_JOINT_VERIFIER_H
