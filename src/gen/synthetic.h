// Synthetic multi-property designs standing in for the HWMCC'12/'13
// multi-property benchmarks (which are not available offline). The
// generator reproduces the structural features the paper's tables
// exercise; see DESIGN.md §2 for the substitution rationale.
//
// Building blocks (all over one AIG):
//  * a free-running wrap counter `wcnt` — the depth source;
//  * a saturating counter `scnt` (freezes once the top bit sets) — a
//    shared inductive-invariant source whose strengthening clauses are
//    re-usable across properties (Table VII);
//  * one-hot rotating rings — properties ¬(r_i ∧ r_{i+1}) are each
//    one-frame inductive *locally* given the neighbouring property as an
//    assumption, but need the global one-hot invariant otherwise
//    (Table X's mechanism);
//  * aux/mirror latch pairs updated identically — trivially true filler
//    properties with property-specific cones.
//
// Property classes:
//  * ring / pair / unreachable-value properties — true;
//  * one deterministic shallow failure P: ¬(wcnt == d0), d0 = 2^t - 1 —
//    fails globally and locally at depth d0;
//  * input-gated shallow failures ¬(wcnt == d_i ∧ trig_i), d_i <= d0 —
//    the rest of the debugging set;
//  * masked failures: an `armed` latch set when wcnt reaches a deep value
//    D_j; P: ¬armed_j fails globally at depth D_j+1 (a deep CEX) but holds
//    locally, because under the assumption ¬(wcnt == d0) the wrap counter
//    provably never passes d0 (the 6s207/6s380 phenomenon).
#ifndef JAVER_GEN_SYNTHETIC_H
#define JAVER_GEN_SYNTHETIC_H

#include <cstdint>
#include <vector>

#include "aig/aig.h"

namespace javer::gen {

struct SyntheticSpec {
  std::uint64_t seed = 1;

  // Shared machinery.
  std::size_t wrap_counter_bits = 6;   // depth source; deep CEXs ~ 2^(w-1)
  std::size_t sat_counter_bits = 6;    // invariant source
  std::size_t rings = 2;               // independent one-hot rings
  std::size_t ring_size = 6;

  // Property mix.
  std::size_t ring_props = 12;         // adjacency properties (true)
  // Spacing between instantiated ring adjacency properties. With stride 1
  // every neighbour property exists and each local proof is one-frame
  // (Table X). With stride >= 2 the neighbour assumption is missing, so
  // every ring property must (re-)derive the one-hot invariant — unless
  // clause re-use supplies it from the first proof (Table VII's lever).
  std::size_t ring_prop_stride = 1;
  std::size_t pair_props = 6;          // aux==mirror properties (true)
  std::size_t unreachable_props = 8;   // ¬(scnt==U_j ∧ mask_j) (true)
  // Gap between consecutive unreachable values U_j. With stride 1 each
  // U_j's predecessor value is another property's target, so local proofs
  // are instant even without clause re-use; stride >= 2 forces every proof
  // to (re-)derive the saturation invariant, which is what the clause
  // re-use ablation (Table VII) needs.
  std::size_t unreachable_stride = 1;
  // Twin shift registers of depth `chain_depth` fed by one input; every
  // chain property asserts "no mismatch at the last stage while my private
  // mask is set". Proving any of them requires the per-stage equality
  // invariant of the whole chain — and no other property's assumption
  // implies it (each only speaks about the last stage and its own mask).
  // Without clause re-use every property re-derives all chain_depth stage
  // invariants; with re-use only the first pays. This is the sharpest
  // lever for the Table VII ablation.
  std::size_t chain_props = 0;
  std::size_t chain_depth = 24;
  std::size_t det_fail_props = 0;      // 0 or 1: ¬(wcnt == d0)
  std::size_t input_fail_props = 0;    // debug-set members, depth <= d0
  std::size_t masked_fail_props = 0;   // deep global fails, locally true
  std::size_t fail_window_log2 = 3;    // d0 = 2^t - 1

  // When true the property order is shuffled (the paper verifies in design
  // order, so order becomes part of the workload).
  bool shuffle_properties = true;
};

aig::Aig make_synthetic(const SyntheticSpec& spec);

// A single one-hot ring of `size` latches with all `size` adjacency
// properties — the Table X / parallel-study design.
aig::Aig make_ring(std::size_t size);

// A copy of `aig` as one component: every property P becomes P ∨ tie
// (a constant-true P becomes ¬tie) for a latch `tie` (the last latch)
// that resets to 0 and never changes.
// Every property's cone then shares `tie`, so every JA target's closure
// holds every other property's cone and its task assumes every other ETH
// property, as the paper's JA does. Verdicts are unchanged.
aig::Aig single_component(const aig::Aig& aig);

// Expected verdicts for a generated design, for tests and bench sanity:
// per property: 0 = true (holds globally), 1 = fails locally (debugging
// set), 2 = fails globally but holds locally (masked).
std::vector<int> synthetic_expected_classes(const aig::Aig& aig);

}  // namespace javer::gen

#endif  // JAVER_GEN_SYNTHETIC_H
