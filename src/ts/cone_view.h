// Cone-restricted views of a design for JA task engines.
//
// A JA task proves its target while assuming every other ETH property.
// An assumption that shares no latch with the target's cone cannot help
// the target hold, so the task can drop it, and with it every latch only
// dropped assumptions read. What is left is the target's *closure*: the
// latches of the target's sequential cone, grown by the cone of every
// assumed property and design constraint that transitively shares a
// latch with it. ClosureIndex computes closures with one union-find over
// the cones; ConeView builds the closure's sub-design and maps cubes and
// traces between it and the full design.
//
// Soundness, as the task scheduler uses it:
//  * Holds: the closure's next-state functions read only closure latches
//    and inputs, and the view drops only assumptions and constraints, so
//    it admits a superset of the full design's constrained paths. An
//    inductive strengthening of the view, lifted to full latch indices,
//    is one of the full design under the full assumption set.
//  * Fails: a view trace lifts to a full-design trace (outside inputs 0,
//    outside latches from reset) that the caller must re-check, since a
//    dropped assumption or constraint may be false on it.
#ifndef JAVER_TS_CONE_VIEW_H
#define JAVER_TS_CONE_VIEW_H

#include <optional>
#include <vector>

#include "aig/aig.h"
#include "ts/trace.h"
#include "ts/transition_system.h"

namespace javer::ts {

// The latch indices of `roots`' sequential cone, ascending.
std::vector<int> cone_latches(const aig::Aig& aig,
                              const std::vector<aig::Lit>& roots);

// Every property's and design constraint's cone latches, and the latch
// components of one union-find over the cones of the properties some
// target may assume and of every design constraint.
class ClosureIndex {
 public:
  // `assumable[j]`: property j is in some target's assumption set (every
  // ETH property under local proofs; none under global proofs).
  ClosureIndex(const TransitionSystem& ts, const std::vector<bool>& assumable);

  // Target `prop`'s closure: the latches of its cone and of every
  // union-find component that shares a latch with it, ascending.
  std::vector<int> closure(std::size_t prop) const;

  const std::vector<int>& property_latches(std::size_t prop) const {
    return prop_latches_[prop];
  }
  const std::vector<int>& constraint_latches(std::size_t c) const {
    return constraint_latches_[c];
  }

 private:
  std::vector<std::vector<int>> prop_latches_;
  std::vector<std::vector<int>> constraint_latches_;
  std::vector<int> component_;  // latch -> its component's root latch
};

class ConeView {
 public:
  // The sub-design over `closure` (ascending latch indices of `full`,
  // closed under next-state fanin, as ClosureIndex::closure returns):
  // those latches, the inputs their cones read, and every property and
  // design constraint whose cone lies in the closure. Latches, inputs and
  // properties keep design order and are numbered densely. `full` must
  // outlive the view.
  ConeView(const TransitionSystem& full, const ClosureIndex& index,
           const std::vector<int>& closure);
  ConeView(const ConeView&) = delete;
  ConeView& operator=(const ConeView&) = delete;

  const TransitionSystem& ts() const { return *ts_; }
  std::size_t num_latches() const { return latch_map_.size(); }

  // Full-design index of view latch / input / property i.
  const std::vector<int>& latch_map() const { return latch_map_; }
  const std::vector<int>& input_map() const { return input_map_; }
  const std::vector<std::size_t>& property_map() const { return prop_map_; }
  // View index of full-design property `prop`, or -1 when its cone is
  // outside the closure.
  int view_property(std::size_t prop) const { return view_prop_[prop]; }

  // A full-design cube in view indices; nullopt when it names a latch
  // outside the closure.
  std::optional<Cube> project(const Cube& cube) const;
  // The cubes that project, in order.
  std::vector<Cube> project(const std::vector<Cube>& cubes) const;
  // A view cube in full-design indices.
  Cube lift(const Cube& cube) const;
  std::vector<Cube> lift(const std::vector<Cube>& cubes) const;
  // A view trace as a full-design trace: the view's latches and inputs
  // where it has them, outside inputs 0, outside latches from reset (X
  // resets 0), each later state simulated on the full design.
  Trace lift(const Trace& trace) const;

 private:
  const TransitionSystem& full_;
  aig::Aig aig_;
  std::optional<TransitionSystem> ts_;
  std::vector<int> latch_map_;
  std::vector<int> view_latch_;  // full latch -> view latch, or -1
  std::vector<int> input_map_;
  std::vector<std::size_t> prop_map_;
  std::vector<int> view_prop_;  // full property -> view property, or -1
};

}  // namespace javer::ts

#endif  // JAVER_TS_CONE_VIEW_H
