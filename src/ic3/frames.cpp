#include "ic3/frames.h"

#include <cassert>
#include <stdexcept>

namespace javer::ic3 {

StepContext::StepContext(const ts::TransitionSystem& ts, const Config& config)
    : ts_(ts) {
  if (config.tmpl == nullptr) {
    throw std::invalid_argument("ic3: a step context needs a CNF template");
  }
  solver_.set_deadline(config.deadline);
  solver_.set_conflict_budget(config.conflict_budget);

  // The one-step cone was Tseitin-encoded (and simplified) once, in the
  // template; this context is a bulk replay.
  const cnf::CnfTemplate& t = *config.tmpl;
  t.instantiate(solver_);
  latch_lits_ = t.latch_lits();
  input_lits_ = t.input_lits();
  next_lits_ = t.next_lits();
  prop_lit_ = t.property_lit(config.target_prop);
  assumed_lits_.reserve(config.assumed.size());
  for (std::size_t j : config.assumed) {
    assumed_lits_.push_back(t.property_lit(j));
  }
  constraint_lits_ = t.constraint_lits();

  constraint_units_ = config.constraint_units;
  if (constraint_units_) {
    for (sat::Lit cl : constraint_lits_) {
      solver_.add_unit(cl);  // design constraints hold unconditionally
    }
  }

  // Path constraints behind one activation literal: on every non-final
  // step the target property itself holds (standard IC3 keeps P in the
  // frames; a trace's prefix consists of P-states) and so does every
  // assumed property (the T_P projection of the paper).
  assumed_act_ = sat::Lit::make(solver_.new_var());
  solver_.add_binary(~assumed_act_, prop_lit_);
  for (sat::Lit a : assumed_lits_) {
    solver_.add_binary(~assumed_act_, a);
  }

  // Reverse map for core extraction. Variables created later (activation
  // literals) fall outside the map and resolve to "no latch".
  var_to_latch_.assign(solver_.num_vars() + 1, -1);
  for (std::size_t i = 0; i < latch_lits_.size(); ++i) {
    sat::Var v = latch_lits_[i].var();
    if (static_cast<std::size_t>(v) >= var_to_latch_.size()) {
      var_to_latch_.resize(v + 1, -1);
    }
    var_to_latch_[v] = static_cast<int>(i);
  }
}

sat::Lit StepContext::state_assumption(const ts::StateLit& l) const {
  return latch_lits_[l.latch] ^ !l.value;
}

sat::Lit StepContext::next_assumption(const ts::StateLit& l) const {
  return next_lits_[l.latch] ^ !l.value;
}

sat::Lit StepContext::fresh_activation() {
  return sat::Lit::make(solver_.new_var());
}

void StepContext::retire_activation(sat::Lit act) {
  solver_.add_unit(~act);
  retired_activations_++;
}

void StepContext::require_lift_context() const {
  if (constraint_units_ && !constraint_lits_.empty()) {
    throw std::logic_error(
        "ic3: lifting needs a context without constraint units");
  }
}

ts::Cube StepContext::lift_core_to_cube() const {
  ts::Cube cube;
  for (sat::Lit c : solver_.conflict_core()) {
    sat::Var v = c.var();
    if (static_cast<std::size_t>(v) < var_to_latch_.size() &&
        var_to_latch_[v] >= 0) {
      // The assumption literal was latch_lit ^ !value; recover the value.
      bool value = !c.sign() == !latch_lits_[var_to_latch_[v]].sign();
      cube.push_back(ts::StateLit{var_to_latch_[v], value});
    }
  }
  ts::sort_cube(cube);
  return cube;
}

ts::Cube StepContext::lift_predecessor(const std::vector<bool>& state,
                                       const std::vector<bool>& inputs,
                                       const ts::Cube& target,
                                       bool respect_assumed) {
  // Refutation clause: act -> (some target literal fails next
  //                            OR some design constraint fails now
  //                            OR some assumed property fails now).
  // Assuming the full (state, inputs) must make this UNSAT; the core over
  // the state literals is the lifted cube.
  require_lift_context();
  sat::Lit act = fresh_activation();
  std::vector<sat::Lit> clause{~act};
  for (const ts::StateLit& l : target) {
    clause.push_back(~next_assumption(l));
  }
  for (sat::Lit c : constraint_lits_) clause.push_back(~c);
  if (respect_assumed) {
    clause.push_back(~prop_lit_);  // non-final step: target holds too
    for (sat::Lit a : assumed_lits_) clause.push_back(~a);
  }
  solver_.add_clause(clause);

  std::vector<sat::Lit> assumptions{act};
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    assumptions.push_back(input_lits_[i] ^ !inputs[i]);
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    assumptions.push_back(latch_lits_[i] ^ !state[i]);
  }

  sat::SolveResult res = solver_.solve(assumptions);
  retire_activation(act);
  if (res != sat::SolveResult::Unsat) {
    // Budget expiry mid-lift, or (should not happen) a satisfiable lift
    // query; fall back to the full state cube, which is always sound.
    ts::Cube full;
    for (std::size_t i = 0; i < state.size(); ++i) {
      full.push_back(ts::StateLit{static_cast<int>(i), state[i]});
    }
    return full;
  }
  ts::Cube cube = lift_core_to_cube();
  if (cube.empty()) {
    // Degenerate (target reachable from every state under these inputs);
    // keep the concrete state so the obligation machinery stays sound.
    for (std::size_t i = 0; i < state.size(); ++i) {
      cube.push_back(ts::StateLit{static_cast<int>(i), state[i]});
    }
  }
  return cube;
}

ts::Cube StepContext::lift_bad(const std::vector<bool>& state,
                               const std::vector<bool>& inputs) {
  // Refutation clause: act -> (property holds OR a design constraint
  // fails). UNSAT core over state literals = states that, under these
  // inputs, violate the property while satisfying the constraints.
  require_lift_context();
  sat::Lit act = fresh_activation();
  std::vector<sat::Lit> clause{~act, prop_lit_};
  for (sat::Lit c : constraint_lits_) clause.push_back(~c);
  solver_.add_clause(clause);

  std::vector<sat::Lit> assumptions{act};
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    assumptions.push_back(input_lits_[i] ^ !inputs[i]);
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    assumptions.push_back(latch_lits_[i] ^ !state[i]);
  }

  sat::SolveResult res = solver_.solve(assumptions);
  retire_activation(act);
  if (res != sat::SolveResult::Unsat) {
    ts::Cube full;
    for (std::size_t i = 0; i < state.size(); ++i) {
      full.push_back(ts::StateLit{static_cast<int>(i), state[i]});
    }
    return full;
  }
  ts::Cube cube = lift_core_to_cube();
  if (cube.empty()) {
    for (std::size_t i = 0; i < state.size(); ++i) {
      cube.push_back(ts::StateLit{static_cast<int>(i), state[i]});
    }
  }
  return cube;
}

sat::SolveResult StepContext::consecution(const ts::Cube& cube,
                                          bool add_negation, sat::Lit frame,
                                          std::vector<std::size_t>* core) {
  std::vector<sat::Lit> assumptions;
  sat::Lit act = sat::kUndefLit;
  if (add_negation) {
    act = fresh_activation();
    std::vector<sat::Lit> clause{~act};
    for (const ts::StateLit& l : cube) {
      clause.push_back(~state_assumption(l));
    }
    solver_.add_clause(clause);
    assumptions.push_back(act);
  }
  if (frame != sat::kUndefLit) assumptions.push_back(frame);
  assumptions.push_back(assumed_act_);
  // Remember which assumption corresponds to which cube literal.
  std::size_t next_base = assumptions.size();
  for (const ts::StateLit& l : cube) {
    assumptions.push_back(next_assumption(l));
  }

  sat::SolveResult res = solver_.solve(assumptions);
  if (res == sat::SolveResult::Unsat && core != nullptr) {
    core->clear();
    const auto& conflict = solver_.conflict_core();
    for (std::size_t i = 0; i < cube.size(); ++i) {
      sat::Lit a = assumptions[next_base + i];
      for (sat::Lit c : conflict) {
        if (c == a) {
          core->push_back(i);
          break;
        }
      }
    }
  }
  if (add_negation) retire_activation(act);
  return res;
}

void StepContext::add_blocking(const ts::Cube& cube, sat::Lit frame) {
  std::vector<sat::Lit> clause;
  clause.reserve(cube.size() + 1);
  if (frame != sat::kUndefLit) clause.push_back(~frame);
  for (const ts::StateLit& l : cube) {
    clause.push_back(~state_assumption(l));
  }
  solver_.add_clause(clause);
}

std::vector<bool> StepContext::model_state() const {
  std::vector<bool> s(latch_lits_.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = solver_.model_value(latch_lits_[i]) == sat::kTrue;
  }
  return s;
}

std::vector<bool> StepContext::model_inputs() const {
  std::vector<bool> x(input_lits_.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = solver_.model_value(input_lits_[i]) == sat::kTrue;
  }
  return x;
}

// --- FrameSolver (lift and seed-checker contexts) ---------------------------

FrameSolver::FrameSolver(const ts::TransitionSystem& ts, const Config& config)
    : StepContext(ts, config) {}

// --- MonolithicFrameSolver --------------------------------------------------

MonolithicFrameSolver::MonolithicFrameSolver(const ts::TransitionSystem& ts,
                                             const Config& config)
    : StepContext(ts, config) {
  ensure_frame(0);  // F_0 = I always exists
}

void MonolithicFrameSolver::ensure_frame(int k) {
  assert(k >= 0 && k != kFrameInf);
  while (static_cast<int>(frame_acts_.size()) <= k) {
    int j = static_cast<int>(frame_acts_.size());
    sat::Lit act = sat::Lit::make(solver_.new_var());
    // Frame acts are excluded from branching: they are only ever set by
    // assumptions or chain propagation, and any act left unassigned at a
    // full assignment can be completed to false (acts occur positively
    // only in chain clauses, which a false lower act satisfies), so
    // deciding them is pure waste. Polarity false keeps any residual
    // propagation biased toward deactivation.
    solver_.set_polarity(act.var(), false);
    solver_.set_decision_var(act.var(), false);
    frame_acts_.push_back(act);
    if (j == 0) {
      // Initial-state units live behind act_0; only frame-0 queries (which
      // assume act_0) see them.
      const aig::Aig& aig = ts_.aig();
      for (std::size_t i = 0; i < aig.num_latches(); ++i) {
        switch (aig.latches()[i].reset) {
          case Ternary::False:
            solver_.add_binary(~act, ~latch_lits_[i]);
            break;
          case Ternary::True:
            solver_.add_binary(~act, latch_lits_[i]);
            break;
          case Ternary::X:
            break;  // free initial value
        }
      }
    } else {
      // Chain link: assuming act_k propagates act_j for every j >= k, so
      // one assumption activates all delta levels a frame query needs
      // (F_k holds levels >= k).
      solver_.add_binary(~frame_acts_[j - 1], act);
    }
  }
}

sat::Lit MonolithicFrameSolver::frame_act(int k) {
  ensure_frame(k);
  return frame_acts_[k];
}

sat::SolveResult MonolithicFrameSolver::query_bad(int k) {
  return solver_.solve({frame_act(k), ~prop_lit_});
}

sat::SolveResult MonolithicFrameSolver::query_consecution(
    int k, const ts::Cube& cube, bool add_negation,
    std::vector<std::size_t>* core) {
  // kFrameInf: no frame literal — only the permanent (F_inf) clauses
  // constrain the present state.
  return consecution(cube, add_negation,
                     k == kFrameInf ? sat::kUndefLit : frame_act(k), core);
}

void MonolithicFrameSolver::add_blocking_clause(const ts::Cube& cube,
                                                int level) {
  add_blocking(cube, level == kFrameInf ? sat::kUndefLit : frame_act(level));
}

}  // namespace javer::ic3
