#include "ts/cone_view.h"

#include <numeric>
#include <stdexcept>

#include "aig/sim.h"

namespace javer::ts {

std::vector<int> cone_latches(const aig::Aig& aig,
                              const std::vector<aig::Lit>& roots) {
  const std::vector<bool> in_cone = aig.cone_of_influence(roots, true);
  std::vector<int> latches;
  for (std::size_t i = 0; i < aig.num_latches(); ++i) {
    if (in_cone[aig.latches()[i].var]) latches.push_back(static_cast<int>(i));
  }
  return latches;
}

ClosureIndex::ClosureIndex(const TransitionSystem& ts,
                           const std::vector<bool>& assumable)
    : component_(ts.num_latches()) {
  std::vector<int>& parent = component_;
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int l) {
    while (parent[l] != l) l = parent[l] = parent[parent[l]];
    return l;
  };
  auto unite = [&](const std::vector<int>& latches) {
    for (std::size_t i = 1; i < latches.size(); ++i) {
      parent[find(latches[i])] = find(latches[0]);
    }
  };
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    prop_latches_.push_back(cone_latches(ts.aig(), {ts.property_lit(p)}));
    if (assumable[p]) unite(prop_latches_.back());
  }
  for (aig::Lit c : ts.design_constraints()) {
    constraint_latches_.push_back(cone_latches(ts.aig(), {c}));
    unite(constraint_latches_.back());
  }
  for (int l = 0; l < static_cast<int>(parent.size()); ++l) parent[l] = find(l);
}

std::vector<int> ClosureIndex::closure(std::size_t prop) const {
  std::vector<char> touched(component_.size(), 0);
  for (int l : prop_latches_[prop]) touched[component_[l]] = 1;
  std::vector<int> latches;
  for (std::size_t l = 0; l < component_.size(); ++l) {
    if (touched[component_[l]]) latches.push_back(static_cast<int>(l));
  }
  return latches;
}

ConeView::ConeView(const TransitionSystem& full, const ClosureIndex& index,
                   const std::vector<int>& closure)
    : full_(full), view_latch_(full.num_latches(), -1),
      view_prop_(full.num_properties(), -1) {
  const aig::Aig& fa = full.aig();
  std::vector<char> in_closure(fa.num_latches(), 0);
  for (int l : closure) in_closure[l] = 1;
  auto inside = [&](const std::vector<int>& latches) {
    for (int l : latches) {
      if (!in_closure[l]) return false;
    }
    return true;
  };

  std::vector<aig::Lit> roots;
  for (int l : closure) roots.push_back(aig::Lit::make(fa.latches()[l].var));
  std::vector<std::size_t> props;
  for (std::size_t p = 0; p < fa.num_properties(); ++p) {
    if (!inside(index.property_latches(p))) continue;
    props.push_back(p);
    roots.push_back(fa.properties()[p].lit);
  }
  std::vector<aig::Lit> constraints;
  for (std::size_t c = 0; c < fa.constraints().size(); ++c) {
    if (!inside(index.constraint_latches(c))) continue;
    constraints.push_back(fa.constraints()[c]);
    roots.push_back(constraints.back());
  }

  // Copy the cone in design order: inputs and latches numbered densely,
  // and-gates after their fanins.
  const std::vector<bool> used = fa.cone_of_influence(roots, true);
  std::vector<aig::Lit> node(fa.num_nodes(), aig::Lit::false_lit());
  auto map = [&](aig::Lit l) { return node[l.var()] ^ l.complemented(); };
  for (aig::Var v = 1; v < fa.num_nodes(); ++v) {
    if (!used[v]) continue;
    if (fa.is_input(v)) {
      node[v] = aig_.add_input(fa.name_of(v));
      input_map_.push_back(fa.input_index(v));
    } else if (fa.is_latch(v)) {
      const int l = fa.latch_index(v);
      if (!in_closure[l]) {
        throw std::invalid_argument("cone view: closure not closed under "
                                    "next-state fanin");
      }
      node[v] = aig_.add_latch(fa.latches()[l].reset, fa.name_of(v));
      view_latch_[l] = static_cast<int>(latch_map_.size());
      latch_map_.push_back(l);
    } else {
      const aig::Node& n = fa.node(v);
      node[v] = aig_.add_and(map(n.fanin0), map(n.fanin1));
    }
  }
  for (int l : latch_map_) {
    const aig::Latch& latch = fa.latches()[l];
    aig_.set_latch_next(node[latch.var], map(latch.next));
  }
  for (std::size_t p : props) {
    const aig::Property& prop = fa.properties()[p];
    view_prop_[p] = static_cast<int>(prop_map_.size());
    prop_map_.push_back(p);
    aig_.add_property(map(prop.lit), prop.name, prop.expected_to_fail);
  }
  for (aig::Lit c : constraints) aig_.add_constraint(map(c));
  ts_.emplace(aig_);
}

std::optional<Cube> ConeView::project(const Cube& cube) const {
  Cube out;
  out.reserve(cube.size());
  for (const StateLit& l : cube) {
    const int v = view_latch_[l.latch];
    if (v < 0) return std::nullopt;
    out.push_back(StateLit{v, l.value});
  }
  return out;  // the renumbering keeps latch order, so still sorted
}

std::vector<Cube> ConeView::project(const std::vector<Cube>& cubes) const {
  std::vector<Cube> out;
  for (const Cube& c : cubes) {
    if (std::optional<Cube> p = project(c)) out.push_back(std::move(*p));
  }
  return out;
}

Cube ConeView::lift(const Cube& cube) const {
  Cube out;
  out.reserve(cube.size());
  for (const StateLit& l : cube) {
    out.push_back(StateLit{latch_map_[l.latch], l.value});
  }
  return out;
}

std::vector<Cube> ConeView::lift(const std::vector<Cube>& cubes) const {
  std::vector<Cube> out;
  out.reserve(cubes.size());
  for (const Cube& c : cubes) out.push_back(lift(c));
  return out;
}

Trace ConeView::lift(const Trace& trace) const {
  const aig::Aig& fa = full_.aig();
  Trace out;
  out.steps.reserve(trace.steps.size());
  std::vector<bool> state = full_.initial_state();
  aig::Simulator sim(fa);
  for (std::size_t t = 0; t < trace.steps.size(); ++t) {
    const Step& s = trace.steps[t];
    if (t == 0) {
      for (std::size_t i = 0; i < s.state.size(); ++i) {
        state[latch_map_[i]] = s.state[i];
      }
    }
    Step step;
    step.state = state;
    step.inputs.assign(fa.num_inputs(), false);
    for (std::size_t i = 0; i < s.inputs.size(); ++i) {
      step.inputs[input_map_[i]] = s.inputs[i];
    }
    sim.eval(step.state, step.inputs);
    sim.step_state(state);
    out.steps.push_back(std::move(step));
  }
  return out;
}

}  // namespace javer::ts
