// The SAT-query layer beneath IC3: one-step transition-relation contexts.
//
// StepContext is the shared machinery — it replays a cnf::CnfTemplate
// (the one-step cone, encoded once) over one time step:
//   * present-state latch variables and input variables,
//   * the next-state function literal of every latch (functional T),
//   * the target property cone and the assumed-property cones,
//   * design invariant constraints (asserted as units),
// and owns lifting, model extraction, and UNSAT-core-to-cube mapping.
//
// Two context types derive from it:
//   * MonolithicFrameSolver — IC3's one SAT context for *every* frame:
//     each F_k gets an activation literal act_k with an implication chain
//     act_k → act_{k+1}, blocking clauses are added as (¬act_k ∨ ¬cube),
//     consecution queries assume {act_k, ...}, and F_inf clauses are
//     permanent (untagged). Learned clauses transfer across frames for
//     free and the transition relation is replayed exactly once.
//   * FrameSolver — a frame-free context holding its blocking clauses
//     outright: the engine's lift companion (see the MonolithicFrameSolver
//     class comment for why lifting must not live there) and the
//     throwaway checker of the seed re-validation fixpoint.
//
// Assumed properties ("just assume" constraints, Section 7-A of the paper)
// are attached behind one activation literal so that consecution queries
// can assert them while bad-state queries (where the failing state need
// not satisfy the other properties) do not.
#ifndef JAVER_IC3_FRAMES_H
#define JAVER_IC3_FRAMES_H

#include <cstdint>
#include <vector>

#include "base/timer.h"
#include "cnf/template.h"
#include "sat/solver.h"
#include "ts/transition_system.h"

namespace javer::ic3 {

class StepContext {
 public:
  struct Config {
    std::size_t target_prop = 0;
    std::vector<std::size_t> assumed;  // property indices assumed to hold
    // Assert the design constraints as permanent units. Lift contexts
    // must turn this off: under a unit, the "some constraint fails"
    // disjuncts of a lift's refutation clause are dead, so the lifted
    // cube could keep states that violate a constraint.
    bool constraint_units = true;
    // Pre-encoded transition relation (cnf/template.h), required: the
    // context is a bulk replay of it. Must encode the target and every
    // assumed property.
    const cnf::CnfTemplate* tmpl = nullptr;
    const Deadline* deadline = nullptr;
    std::uint64_t conflict_budget = 0;
  };

  // Lifting (Section 7-A). Both return a cube over the latches such that
  // every state in it, under `inputs`, (a) transitions into `target`
  // (predecessor form) or (b) violates the target property (bad form);
  // design constraints are always respected; assumed properties are
  // respected only when `respect_assumed` is set. Throw std::logic_error
  // on a context that asserts the design's constraints as units.
  ts::Cube lift_predecessor(const std::vector<bool>& state,
                            const std::vector<bool>& inputs,
                            const ts::Cube& target, bool respect_assumed);
  ts::Cube lift_bad(const std::vector<bool>& state,
                    const std::vector<bool>& inputs);

  // Model extraction after a Sat query.
  std::vector<bool> model_state() const;
  std::vector<bool> model_inputs() const;

  // Number of retired activation literals; high counts warrant a rebuild.
  int retired_activations() const { return retired_activations_; }
  const sat::SolverStats& stats() const { return solver_.stats(); }

 protected:
  // Replays the template, asserts the constraint units, and builds the
  // assumed-property activation. Throws std::invalid_argument without a
  // template. Initial-state handling is left to the derived class.
  StepContext(const ts::TransitionSystem& ts, const Config& config);
  ~StepContext() = default;

  sat::Lit state_assumption(const ts::StateLit& l) const;
  sat::Lit next_assumption(const ts::StateLit& l) const;
  sat::Lit fresh_activation();
  void retire_activation(sat::Lit act);
  ts::Cube lift_core_to_cube() const;
  void require_lift_context() const;
  // SAT?[clauses ∧ constraints ∧ assumed ∧ (¬cube)? ∧ T ∧ cube'], also
  // assuming `frame` unless it is undefined. On UNSAT, a non-null `core`
  // receives the indices into `cube` of the literals that appear in the
  // assumption core (a sufficient subset for unreachability).
  sat::SolveResult consecution(const ts::Cube& cube, bool add_negation,
                               sat::Lit frame, std::vector<std::size_t>* core);
  // Adds the blocking clause ¬cube, guarded by ¬frame unless `frame` is
  // undefined.
  void add_blocking(const ts::Cube& cube, sat::Lit frame);

  const ts::TransitionSystem& ts_;
  sat::Solver solver_;

  std::vector<sat::Lit> latch_lits_;
  std::vector<sat::Lit> input_lits_;
  std::vector<sat::Lit> next_lits_;
  sat::Lit prop_lit_;                   // target property (holds-literal)
  std::vector<sat::Lit> assumed_lits_;  // assumed property holds-literals
  // Activates the non-final-step ("path") constraints: the target property
  // AND every assumed property hold at the present step. Consecution
  // queries assume it; bad-state queries do not (the failing step need not
  // satisfy any property).
  sat::Lit assumed_act_;
  std::vector<sat::Lit> constraint_lits_;
  bool constraint_units_ = true;  // Config::constraint_units

  // Maps solver variable -> latch index (for core extraction), -1 if none.
  std::vector<int> var_to_latch_;

  int retired_activations_ = 0;
};

// A frame-free context: no initial-state units, blocking clauses held
// outright. IC3's lift companion and seed checker.
class FrameSolver : public StepContext {
 public:
  using Config = StepContext::Config;

  FrameSolver(const ts::TransitionSystem& ts, const Config& config);

  // Adds the permanent blocking clause ¬cube to this context.
  void add_blocking_clause(const ts::Cube& cube) {
    add_blocking(cube, sat::kUndefLit);
  }

  // SAT?[F ∧ constraints ∧ assumed ∧ (¬cube)? ∧ T ∧ cube'], F being this
  // context's blocking clauses; `core` as in StepContext::consecution.
  sat::SolveResult query_consecution(const ts::Cube& cube, bool add_negation,
                                     std::vector<std::size_t>* core) {
    return consecution(cube, add_negation, sat::kUndefLit, core);
  }
};

// IC3's frame context: one SAT context whose frame membership is a set of
// assumptions. Frame F_k is addressed by its activation literal; the
// implication chain act_k → act_{k+1} makes one assumption activate every
// delta level >= k (F_k holds the clauses of all levels >= k).
// Initial-state units sit behind act_0; F_inf clauses are permanent (every
// frame query includes them), and an F_inf query assumes no frame literal.
//
// Lifting stays in a separate blocking-clause-free context (the engine
// keeps a lift FrameSolver beside this one), for two reasons.
// Soundness: counterexample reconstruction relies on the *unconditional*
// universal-cube property (every state in a lifted cube steps into the
// target), and F_inf clauses are only invariant relative to the path
// constraints, so a lifted cube conditioned on them could break the
// obligation chain under relaxed lifting. Performance: a lift query
// assumes the full latch valuation, which would falsify a watched
// literal in essentially every (inactive) tagged blocking clause and
// park the watches on activation literals, only for the next frame query
// to migrate them all back — a watch-list ping-pong quadratic in the
// clause count (measured 10x on clause-reuse-heavy runs).
class MonolithicFrameSolver : public StepContext {
 public:
  using Config = StepContext::Config;
  // Frame index addressing F_inf (permanent clauses, no activation).
  static constexpr int kFrameInf = INT32_MAX;

  // The initial state is always encoded, behind act_0.
  MonolithicFrameSolver(const ts::TransitionSystem& ts, const Config& config);

  // Allocates activation literals for frames 0..k and their chain links.
  void ensure_frame(int k);
  int num_frames() const { return static_cast<int>(frame_acts_.size()); }

  // SAT?[F_k ∧ design-constraints ∧ ¬P].
  sat::SolveResult query_bad(int k);

  // SAT?[F_k ∧ constraints ∧ assumed ∧ (¬cube)? ∧ T ∧ cube'].
  // k == kFrameInf queries relative to F_inf alone.
  sat::SolveResult query_consecution(int k, const ts::Cube& cube,
                                     bool add_negation,
                                     std::vector<std::size_t>* core);

  // Adds ¬cube to delta level `level` (active for every frame <= level),
  // or permanently when level == kFrameInf.
  void add_blocking_clause(const ts::Cube& cube, int level);

 private:
  sat::Lit frame_act(int k);

  std::vector<sat::Lit> frame_acts_;
};

}  // namespace javer::ic3

#endif  // JAVER_IC3_FRAMES_H
