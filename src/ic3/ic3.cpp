#include "ic3/ic3.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <stdexcept>

#include "aig/sim.h"
#include "base/log.h"
#include "base/rng.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/monitor.h"

namespace javer::ic3 {

void fold_stats(obs::MetricsRegistry& metrics, const Ic3Stats& stats) {
  metrics.add("ic3.obligations", stats.obligations);
  metrics.add("ic3.clauses_added", stats.clauses_added);
  metrics.add("ic3.consecution_queries", stats.consecution_queries);
  metrics.add("ic3.mic_queries", stats.mic_queries);
  metrics.add("ic3.bad_queries", stats.bad_queries);
  metrics.add("ic3.lift_queries", stats.lift_queries);
  metrics.add("ic3.seed_clauses_kept", stats.seed_clauses_kept);
  metrics.add("ic3.seed_clauses_dropped", stats.seed_clauses_dropped);
  metrics.add("ic3.solver_rebuilds", stats.solver_rebuilds);
  metrics.add("ic3.mined_invariants", stats.mined_invariants);
  metrics.add("ic3.mining_sim_settled", stats.mining_sim_settled);
  metrics.add("ic3.prelude_builds", stats.prelude_builds);
  metrics.add("ic3.prelude_reused", stats.prelude_reused);
  metrics.add("ic3.solver_contexts_created", stats.solver_contexts_created);
  metrics.add("ic3.template_builds", stats.template_builds);
  metrics.add("ic3.template_instantiations", stats.template_instantiations);
  metrics.add("ic3.lemmas_imported", stats.lemmas_imported);
  metrics.add("ic3.lemmas_rejected", stats.lemmas_rejected);
  metrics.add("ic3.lemmas_known", stats.lemmas_known);
  metrics.add("ic3.lemmas_settled", stats.lemmas_settled);
  metrics.add("sat.propagations", stats.sat_propagations);
  metrics.add("sat.conflicts", stats.sat_conflicts);
  metrics.add("sat.decisions", stats.sat_decisions);
  metrics.add("simp.vars_eliminated", stats.simp_vars_eliminated);
  metrics.add("simp.clauses_in", stats.simp_clauses_in);
  metrics.add("simp.clauses_out", stats.simp_clauses_out);
  metrics.add_gauge("ic3.encode_seconds", stats.encode_seconds);
  metrics.max_gauge("ic3.peak_live_solvers",
                    static_cast<double>(stats.peak_live_solvers));
}

namespace {

// Mining-sweep size: words of 64 patterns, and steps per word. Fixed: the
// sweep only saves queries, and a prelude's sweep must be the same for
// every engine that shares it.
constexpr int kMiningSimWords = 4;
constexpr int kMiningSimSteps = 64;

}  // namespace

std::vector<char> settle_by_simulation(
    const ts::TransitionSystem& ts, std::size_t target,
    const std::vector<std::size_t>& assumed,
    const std::vector<ts::StateLit>& candidates) {
  std::vector<char> settled(candidates.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) open.push_back(ci);

  const aig::Aig& aig = ts.aig();
  std::vector<aig::Lit> path = ts.design_constraints();
  path.push_back(ts.property_lit(target));
  for (std::size_t j : assumed) path.push_back(ts.property_lit(j));

  // Seeded by the conjunction, not by which member is the target; a lone
  // target {t} keeps the seed (t + 1)·φ.
  std::vector<std::size_t> conjunction = assumed;
  conjunction.push_back(target);
  std::sort(conjunction.begin(), conjunction.end());
  std::uint64_t seed = 0;
  for (std::size_t p : conjunction) {
    seed = (seed ^ (p + 1)) * 0x9e3779b97f4a7c15ULL;
  }
  Rng rng(seed);
  aig::Simulator64 sim(aig);
  std::vector<std::uint64_t> state(ts.num_latches());
  std::vector<std::uint64_t> inputs(ts.num_inputs());
  for (int word = 0; word < kMiningSimWords && !open.empty(); ++word) {
    for (std::size_t i = 0; i < state.size(); ++i) {
      switch (aig.latches()[i].reset) {
        case Ternary::True: state[i] = ~0ULL; break;
        case Ternary::False: state[i] = 0; break;
        case Ternary::X: state[i] = rng.next(); break;
      }
    }
    std::uint64_t alive = ~0ULL;
    for (int step = 0; step < kMiningSimSteps && alive != 0 && !open.empty();
         ++step) {
      for (std::uint64_t& in : inputs) in = rng.next();
      sim.eval(state, inputs);
      for (aig::Lit l : path) alive &= sim.value(l);
      sim.step_state(state);
      // Every live pattern's new state is reachable under the path
      // constraints.
      std::erase_if(open, [&](std::size_t ci) {
        const ts::StateLit& lit = candidates[ci];
        const std::uint64_t w = state[lit.latch];
        if (((lit.value ? w : ~w) & alive) == 0) return false;
        settled[ci] = 1;
        return true;
      });
    }
  }
  return settled;
}

Ic3::Ic3(const ts::TransitionSystem& ts, std::size_t target_prop,
         Ic3Options opts)
    : ts_(ts),
      target_prop_(target_prop),
      opts_(std::move(opts)),
      deadline_(opts_.time_limit_seconds) {
  if (target_prop_ >= ts.num_properties()) {
    throw std::invalid_argument("ic3: target property out of range");
  }
  for (std::size_t j : opts_.assumed) {
    if (j == target_prop_) {
      throw std::invalid_argument("ic3: target cannot be assumed");
    }
    if (j >= ts.num_properties()) {
      throw std::invalid_argument("ic3: assumed property out of range");
    }
  }
  frame_cubes_.resize(1);  // level 0 placeholder (F_0 = I, holds no cubes)
  if (opts_.profile.enabled()) {
    prof_consecution_ = opts_.profile.slot("ic3/consecution");
    prof_bad_ = opts_.profile.slot("ic3/bad_query");
    prof_lift_ = opts_.profile.slot("ic3/lift");
    prof_mic_ = opts_.profile.slot("ic3/mic");
    prof_push_ = opts_.profile.slot("ic3/push");
    prof_seed_validate_ = opts_.profile.slot("ic3/seed_validate");
    prof_mine_sim_ = opts_.profile.slot("ic3/mine_sim");
    prof_replay_ = opts_.profile.slot("cnf/replay");
  }
}

Ic3::~Ic3() = default;

// --- encode reuse -----------------------------------------------------------

const cnf::CnfTemplate* Ic3::acquire_template() {
  if (tmpl_) return tmpl_.get();
  cnf::CnfTemplate::Spec spec;
  spec.props = opts_.assumed;
  spec.props.push_back(target_prop_);
  spec.simplify = opts_.simplify;
  cnf::TemplateCache* cache = opts_.template_cache;
  if (cache == nullptr) {
    // No shared cache: a private one still collapses this engine's
    // contexts and rebuilds onto one encoding.
    own_cache_ = std::make_unique<cnf::TemplateCache>(ts_);
    cache = own_cache_.get();
  }
  bool built = false;
  // Design-aware lookup: a shared cache may serve engines over different
  // transition systems (the cache keys by design fingerprint), so this
  // engine must ask for *its* design, not the cache's default.
  tmpl_ = cache->get_or_build(ts_, std::move(spec), &built);
  if (built) {
    stats_.template_builds++;
    stats_.encode_seconds += tmpl_->encode_seconds();
    const sat::simp::SimpStats& s = tmpl_->simp_stats();
    stats_.simp_vars_eliminated += s.vars_eliminated;
    stats_.simp_clauses_in += s.clauses_in;
    stats_.simp_clauses_out += s.clauses_out;
  }
  return tmpl_.get();
}

StepContext::Config Ic3::base_config() {
  StepContext::Config config;
  config.target_prop = target_prop_;
  config.assumed = opts_.assumed;
  config.tmpl = acquire_template();
  // The slice deadline is the effective one (overall ∧ slice); a Deadline
  // with budget 0 never expires, so unbudgeted runs are unaffected.
  config.deadline = &slice_deadline_;
  config.conflict_budget = opts_.conflict_budget_per_query;
  return config;
}

void Ic3::note_context_created(double seconds, std::uint64_t extra_live) {
  stats_.solver_contexts_created++;
  stats_.encode_seconds += seconds;
  stats_.template_instantiations++;
  if (prof_replay_ != nullptr) {
    prof_replay_->record(static_cast<std::uint64_t>(seconds * 1e6));
  }
  std::uint64_t live =
      extra_live + (lift_solver_ ? 1 : 0) + (mono_ ? 1 : 0);
  stats_.peak_live_solvers = std::max(stats_.peak_live_solvers, live);
}

std::unique_ptr<FrameSolver> Ic3::make_solver(bool constraint_units) {
  StepContext::Config config = base_config();
  config.constraint_units = constraint_units;
  Timer timer;
  auto fs = std::make_unique<FrameSolver>(ts_, config);
  // The new context is still in our hands, not in a member yet: +1 live.
  note_context_created(timer.seconds(), 1);
  return fs;
}

// --- statistics -------------------------------------------------------------

namespace {

// Folds one solver context's SAT counters into `into` — shared by
// retiring contexts (absorb_stats) and the per-slice cumulative report
// (finalize_stats) so the two can never disagree field-for-field.
void fold_solver_stats(Ic3Stats& into, const StepContext& fs) {
  const sat::SolverStats& s = fs.stats();
  into.sat_propagations += s.propagations;
  into.sat_conflicts += s.conflicts;
  into.sat_decisions += s.decisions;
}

}  // namespace

void Ic3::absorb_stats(const StepContext& fs) {
  fold_solver_stats(stats_, fs);
}

Ic3Stats Ic3::finalize_stats() const {
  // Retired totals plus the still-live contexts' counters, computed
  // without mutating stats_ so that every slice can report the cumulative
  // numbers (live counters keep accumulating across slices).
  Ic3Stats out = stats_;
  if (lift_solver_) fold_solver_stats(out, *lift_solver_);
  if (mono_) fold_solver_stats(out, *mono_);
  return out;
}

std::uint64_t Ic3::total_conflicts() const {
  std::uint64_t total = stats_.sat_conflicts;
  if (lift_solver_) total += lift_solver_->stats().conflicts;
  if (mono_) total += mono_->stats().conflicts;
  return total;
}

// --- budget slicing ---------------------------------------------------------

void Ic3::begin_slice(const Ic3Budget& budget) {
  slicing_ =
      budget.time_slice_seconds > 0 || budget.conflict_slice > 0;
  double effective = 0.0;
  if (opts_.time_limit_seconds > 0) {
    // Never 0 (= unlimited): an already-expired overall deadline must make
    // the very next solver poll fail.
    effective = std::max(deadline_.remaining(), 1e-9);
  }
  if (budget.time_slice_seconds > 0 &&
      (effective <= 0 || budget.time_slice_seconds < effective)) {
    effective = budget.time_slice_seconds;
  }
  slice_deadline_ = Deadline(effective);
  slice_conflict_limit_ =
      budget.conflict_slice > 0 ? total_conflicts() + budget.conflict_slice
                                : 0;
}

void Ic3::poll_budget() const {
  if (opts_.progress != nullptr) {
    // Live-progress publication rides the budget poll: it already sits
    // on every obligation/propagation boundary, and the stores are
    // relaxed atomics (monitor.h), so this costs nanoseconds.
    opts_.progress->publish_engine(top_frame_, stats_.obligations);
    if (opts_.progress->preempt_requested()) throw Suspend{};
  }
  if (opts_.time_limit_seconds > 0 && deadline_.expired()) throw Timeout{};
  if (!slicing_) return;
  if (slice_deadline_.expired()) throw Suspend{};
  if (slice_conflict_limit_ > 0 &&
      total_conflicts() >= slice_conflict_limit_) {
    throw Suspend{};
  }
}

// --- solver contexts --------------------------------------------------------

FrameSolver& Ic3::lift_ctx() {
  if (!lift_solver_ ||
      lift_solver_->retired_activations() > opts_.rebuild_threshold) {
    if (lift_solver_) {
      stats_.solver_rebuilds++;
      opts_.trace.instant("ic3", "rebuild_lift");
      absorb_stats(*lift_solver_);
      lift_solver_.reset();
    }
    // No init units, no frame clauses, no constraint units.
    lift_solver_ = make_solver(/*constraint_units=*/false);
  }
  return *lift_solver_;
}

MonolithicFrameSolver& Ic3::mono() {
  if (!mono_) {
    install_mono(0);
  } else if (mono_->retired_activations() >
             static_cast<long long>(opts_.rebuild_threshold) *
                 (mono_->num_frames() + 2)) {
    // The one context absorbs the retirement churn of every frame plus
    // the F_inf role, so its garbage budget scales with them:
    // threshold × (frames + 2). A rebuild re-instantiates the template
    // and replays the frame/F_inf clause lists, dropping retired
    // activation garbage and stale pushed copies.
    stats_.solver_rebuilds++;
    opts_.trace.instant("ic3", "rebuild_mono");
    absorb_stats(*mono_);
    install_mono(mono_->num_frames());
  }
  return *mono_;
}

// (Re)creates the frame context and replays the current F_inf and
// delta-frame clause lists into it — on first creation these carry the
// validated seed clauses, on a rebuild everything blocked so far.
void Ic3::install_mono(int frames) {
  mono_.reset();
  StepContext::Config config = base_config();
  Timer timer;
  mono_ = std::make_unique<MonolithicFrameSolver>(ts_, config);
  note_context_created(timer.seconds(), 0);
  if (frames > 0) mono_->ensure_frame(frames - 1);
  for (const ts::Cube& c : inf_cubes_) {
    mono_->add_blocking_clause(c, MonolithicFrameSolver::kFrameInf);
  }
  for (int lvl = 1; lvl < static_cast<int>(frame_cubes_.size()); ++lvl) {
    for (const ts::Cube& c : frame_cubes_[lvl]) {
      mono_->add_blocking_clause(c, lvl);
    }
  }
}

// --- queries ----------------------------------------------------------------

sat::SolveResult Ic3::consecution(int k, const ts::Cube& cube,
                                  bool add_negation,
                                  std::vector<std::size_t>* core) {
  fault::inject_point("ic3.consecution");
  return mono().query_consecution(k, cube, add_negation, core);
}

sat::SolveResult Ic3::counted_consecution(obs::LatencyHisto* histo,
                                          std::uint64_t Ic3Stats::*counter,
                                          int k, const ts::Cube& cube,
                                          bool add_negation,
                                          std::vector<std::size_t>* core) {
  stats_.*counter += 1;
  obs::ProfileTimer timer(histo);
  return consecution(k, cube, add_negation, core);
}

sat::SolveResult Ic3::bad_query(int k) {
  stats_.bad_queries++;
  obs::ProfileTimer timer(prof_bad_);
  return mono().query_bad(k);
}

ts::Cube Ic3::lift_predecessor(const std::vector<bool>& state,
                               const std::vector<bool>& inputs,
                               const ts::Cube& target, bool respect_assumed) {
  stats_.lift_queries++;
  obs::ProfileTimer timer(prof_lift_);
  return lift_ctx().lift_predecessor(state, inputs, target, respect_assumed);
}

ts::Cube Ic3::lift_bad(const std::vector<bool>& state,
                       const std::vector<bool>& inputs) {
  stats_.lift_queries++;
  obs::ProfileTimer timer(prof_lift_);
  return lift_ctx().lift_bad(state, inputs);
}

void Ic3::add_inf_cube(const ts::Cube& cube) {
  // Drop delta-frame cubes the new clause subsumes everywhere.
  for (auto& level : frame_cubes_) {
    level.erase(std::remove_if(level.begin(), level.end(),
                               [&](const ts::Cube& c) {
                                 return ts::cube_subsumes(cube, c);
                               }),
                level.end());
  }
  inf_cubes_.push_back(cube);
  if (cube.size() == 1) unit_stamp(cube[0]) = kHeld;
  mono().add_blocking_clause(cube, kLevelInf);
  stats_.clauses_added++;
}

void Ic3::ensure_frame(int k) {
  while (static_cast<int>(frame_cubes_.size()) <= k) {
    frame_cubes_.emplace_back();
  }
  mono().ensure_frame(k);
}

sat::SolveResult Ic3::checked(sat::SolveResult r) const {
  if (r != sat::SolveResult::Undecided) return r;
  // Undecided = a solver context hit the effective deadline or its
  // per-query conflict budget. Attribute it: overall expiry and per-query
  // budgets are hard stops; anything else under a slice is a suspension.
  if (opts_.time_limit_seconds > 0 && deadline_.expired()) throw Timeout{};
  if (slicing_ && slice_deadline_.expired()) throw Suspend{};
  if (slicing_ && opts_.conflict_budget_per_query == 0) throw Suspend{};
  throw Timeout{};
}

// --- start-up: the prelude (clause re-use §6-B/§7-B, mining) ---------------

void Ic3::start_up() {
  // A start-up a budget expiry or a fault cut short replays from a clean
  // slate.
  if (mono_) {
    absorb_stats(*mono_);
    mono_.reset();
  }
  inf_cubes_.clear();
  unit_stamps_.assign(2 * ts_.num_latches(), 0);

  const std::vector<ts::Cube>& seeds = opts_.seed_clauses;
  Ic3PreludeMemo* memo = opts_.prelude_memo;
  if (memo != nullptr && seeds != *memo->seeds_) {
    // The memo's prelude extends only to seeds that contain its snapshot.
    std::vector<ts::Cube> have = seeds;
    std::vector<ts::Cube> need = *memo->seeds_;
    std::sort(have.begin(), have.end());
    std::sort(need.begin(), need.end());
    if (!std::includes(have.begin(), have.end(), need.begin(), need.end())) {
      memo = nullptr;
    }
  }
  if (memo == nullptr) {
    build_prelude(seeds, nullptr);
    return;
  }

  std::shared_ptr<const Ic3Prelude> shared;
  bool built = false;
  {
    base::MutexLock lock(memo->mutex_);
    if (memo->prelude_ == nullptr) {
      // The first engine to start up builds the prelude over the snapshot
      // in its own contexts and publishes what it installed.
      Ic3Prelude prelude;
      prelude.seeds_dropped = build_prelude(*memo->seeds_, nullptr);
      prelude.inf_cubes = inf_cubes_;
      prelude.seeds_kept = inf_cubes_.size() - stats_.mined_invariants;
      prelude.unit_stamps = unit_stamps_;
      memo->prelude_ = std::make_shared<const Ic3Prelude>(std::move(prelude));
      built = true;
    }
    shared = memo->prelude_;
  }
  if (seeds == *memo->seeds_) {
    if (!built) adopt_prelude(*shared);
  } else {
    build_prelude(seeds, shared.get());
  }
  if (!built) stats_.prelude_reused++;
}

std::vector<ts::Cube> Ic3::build_prelude(const std::vector<ts::Cube>& seeds,
                                         const Ic3Prelude* base) {
  std::vector<ts::Cube> fixed;  // base's kept cubes, sorted
  if (base != nullptr) {
    fixed.assign(base->inf_cubes.begin(),
                 base->inf_cubes.begin() +
                     static_cast<std::ptrdiff_t>(base->seeds_kept));
    std::sort(fixed.begin(), fixed.end());
  }
  auto in = [](const std::vector<ts::Cube>& sorted, const ts::Cube& c) {
    return std::binary_search(sorted.begin(), sorted.end(), c);
  };

  // Seed re-validation: keep the largest subset R of the seeds such that
  //   I → R  and  R ∧ constr ∧ path ∧ T → R'.
  // Initial-state containment is syntactic; self-inductiveness is computed
  // as a fixpoint: repeatedly drop clauses whose consecution fails
  // relative to the surviving set (plus base's kept cubes).
  std::vector<ts::Cube> candidates;
  std::vector<ts::Cube> dropped;
  bool fresh = base == nullptr;  // some seed is new to base
  for (const ts::Cube& c : seeds) {
    if (base != nullptr && in(fixed, c)) continue;
    if (base != nullptr && !in(base->seeds_dropped, c)) fresh = true;
    if (!c.empty() && ts_.cube_disjoint_from_init(c)) {
      candidates.push_back(c);
    } else {
      dropped.push_back(c);
    }
  }
  if (!fresh) {
    adopt_prelude(*base);
    return {};
  }

  while (!candidates.empty()) {
    std::unique_ptr<FrameSolver> checker =
        make_solver(/*constraint_units=*/true);
    for (const ts::Cube& c : fixed) checker->add_blocking_clause(c);
    for (const ts::Cube& c : candidates) checker->add_blocking_clause(c);

    std::vector<ts::Cube> survivors;
    for (const ts::Cube& c : candidates) {
      // ¬c is already part of the clause set, so consecution relative to
      // the candidate set is exactly query R ∧ T ∧ c' (no extra negation).
      obs::ProfileTimer timer(prof_seed_validate_);
      if (checked(checker->query_consecution(c, /*add_negation=*/false,
                                             nullptr)) ==
          sat::SolveResult::Unsat) {
        survivors.push_back(c);
      } else {
        dropped.push_back(c);
      }
    }
    absorb_stats(*checker);
    if (survivors.size() == candidates.size()) break;  // fixpoint
    candidates = std::move(survivors);
  }

  // F_inf: base's (its g + 1 stamps go stale by themselves as F_inf grows),
  // then the kept seeds in seed order, then the mined singletons.
  if (base != nullptr && inf_cubes_.empty()) {
    inf_cubes_ = base->inf_cubes;
    unit_stamps_ = base->unit_stamps;
  }
  inf_seed_prefix_ = base != nullptr ? base->seeds_kept : candidates.size();
  for (const ts::Cube& c : candidates) {
    // A kept seed base mined is in F_inf already.
    if (base != nullptr && c.size() == 1 && unit_held(c[0])) continue;
    if (mono_) {
      add_inf_cube(c);
    } else {
      inf_cubes_.push_back(c);  // installed when the context is made
      if (c.size() == 1) unit_stamp(c[0]) = kHeld;
    }
  }
  mine_singletons(/*sweep=*/base == nullptr);
  finish_start_up(fixed.size() + candidates.size());
  if (base == nullptr) stats_.prelude_builds++;
  std::sort(dropped.begin(), dropped.end());
  return dropped;
}

void Ic3::adopt_prelude(const Ic3Prelude& prelude) {
  inf_cubes_ = prelude.inf_cubes;
  unit_stamps_ = prelude.unit_stamps;
  inf_seed_prefix_ = prelude.seeds_kept;
  finish_start_up(prelude.seeds_kept);
}

void Ic3::finish_start_up(std::size_t kept) {
  stats_.seed_clauses_kept = kept;
  stats_.seed_clauses_dropped = opts_.seed_clauses.size() - kept;
  stats_.mined_invariants = inf_cubes_.size() - kept;
  // Start-up is an engine's first work: the only clauses added so far are
  // the mined ones.
  stats_.clauses_added = stats_.mined_invariants;
  stats_.mining_sim_settled = static_cast<std::uint64_t>(
      std::count(unit_stamps_.begin(), unit_stamps_.end(), kLive));
}

void Ic3::mine_singletons(bool sweep) {
  // Candidates: latch literals that contradict the reset and are not
  // already F_inf clauses, in latch order.
  std::vector<ts::StateLit> open;
  for (std::size_t i = 0; i < ts_.num_latches(); ++i) {
    for (bool value : {false, true}) {
      const ts::StateLit l{static_cast<int>(i), value};
      if (!unit_held(l) && ts_.cube_disjoint_from_init({l})) {
        open.push_back(l);
      }
    }
  }
  if (sweep && !open.empty()) {
    obs::ProfileTimer timer(prof_mine_sim_);
    const std::vector<char> settled =
        settle_by_simulation(ts_, target_prop_, opts_.assumed, open);
    for (std::size_t ci = 0; ci < open.size(); ++ci) {
      if (settled[ci]) unit_stamp(open[ci]) = kLive;
    }
  }
  std::erase_if(open,
                [&](const ts::StateLit& l) { return unit_stamp(l) == kLive; });

  // A few passes so that mutually dependent singletons (a latch whose
  // inductiveness needs another mined clause) settle; designs rarely need
  // more than two.
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    for (const ts::StateLit& l : open) {
      if (unit_held(l)) continue;
      const ts::Cube c{l};
      if (checked(counted_consecution(
              prof_consecution_, &Ic3Stats::consecution_queries, kLevelInf,
              c, /*add_negation=*/true, nullptr)) ==
          sat::SolveResult::Unsat) {
        add_inf_cube(c);
        changed = true;
      } else {
        unit_stamp(l) = sat_stamp();
      }
    }
    if (!changed) break;
  }
}

void Ic3::add_lemma_candidates(std::vector<ts::Cube> cubes) {
  for (ts::Cube& c : cubes) {
    if (c.empty()) continue;
    ts::sort_cube(c);
    lemma_queue_.push_back(std::move(c));
  }
}

void Ic3::absorb_lemma_candidates() {
  if (lemma_queue_.empty()) return;
  std::vector<ts::Cube> pending = std::move(lemma_queue_);
  lemma_queue_.clear();
  for (const ts::Cube& c : pending) {
    if (!ts_.cube_disjoint_from_init(c)) {
      stats_.lemmas_rejected++;
      continue;
    }
    // A unit is known iff F_inf holds that very unit (no other non-empty
    // cube subsumes it), which its stamp records.
    const bool unit = c.size() == 1;
    const bool known =
        unit ? unit_held(c[0])
             : std::any_of(inf_cubes_.begin(), inf_cubes_.end(),
                           [&](const ts::Cube& have) {
                             return ts::cube_subsumes(have, c);
                           });
    if (known) {
      stats_.lemmas_known++;  // already proven (e.g. via the ClauseDb)
      continue;
    }
    if (unit && unit_settled(c[0])) {
      stats_.lemmas_rejected++;
      stats_.lemmas_settled++;
      continue;
    }
    if (checked(counted_consecution(prof_consecution_,
                                    &Ic3Stats::consecution_queries, kLevelInf,
                                    c, /*add_negation=*/true, nullptr)) ==
        sat::SolveResult::Unsat) {
      add_inf_cube(c);
      stats_.lemmas_imported++;
      opts_.trace.instant("ic3", "lemma_install");
    } else {
      stats_.lemmas_rejected++;
      if (unit) unit_stamp(c[0]) = sat_stamp();
    }
  }
}

// --- frame bookkeeping ------------------------------------------------------

int Ic3::highest_blocked_level(const ts::Cube& cube, int from) const {
  for (const ts::Cube& c : inf_cubes_) {
    if (ts::cube_subsumes(c, cube)) return INT_MAX;
  }
  for (int j = static_cast<int>(frame_cubes_.size()) - 1; j >= from; --j) {
    for (const ts::Cube& c : frame_cubes_[j]) {
      if (ts::cube_subsumes(c, cube)) return j;
    }
  }
  return from - 1;
}

void Ic3::add_blocked_cube(const ts::Cube& cube, int level) {
  ensure_frame(level);
  // Remove cubes this one subsumes at levels 1..level (their clauses stay
  // in the solvers, which is sound; the new clause is stronger).
  for (int j = 1; j <= level; ++j) {
    auto& list = frame_cubes_[j];
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const ts::Cube& c) {
                                return ts::cube_subsumes(cube, c);
                              }),
               list.end());
  }
  frame_cubes_[level].push_back(cube);
  mono().add_blocking_clause(cube, level);
  stats_.clauses_added++;
}

// --- obligations ------------------------------------------------------------

void Ic3::enqueue(int obligation_index) {
  if (pool_.size() > opts_.max_obligations) throw Timeout{};
  queue_.emplace_back(pool_[obligation_index].frame, queue_ticket_++,
                      obligation_index);
  std::push_heap(queue_.begin(), queue_.end(),
                 std::greater<std::tuple<int, std::uint64_t, int>>());
}

int Ic3::pop_min_frame() {
  std::pop_heap(queue_.begin(), queue_.end(),
                std::greater<std::tuple<int, std::uint64_t, int>>());
  int idx = std::get<2>(queue_.back());
  queue_.pop_back();
  return idx;
}

std::vector<bool> Ic3::initial_state_in_cube(const ts::Cube& cube) const {
  std::vector<bool> s = ts_.initial_state();
  for (const ts::StateLit& l : cube) {
    // Only latches with X reset may disagree with the canonical initial
    // state; the cube intersects I, so fixing them keeps s initial.
    s[l.latch] = l.value;
  }
  return s;
}

void Ic3::build_cex(const std::vector<bool>& init_state,
                    const std::vector<bool>& first_inputs, int chain_start) {
  // The universal lifting property guarantees: every state in an
  // obligation's cube, under the obligation's stored inputs, steps into
  // the parent's cube (and the bad obligation's inputs expose the property
  // violation). The trace is therefore reconstructed by plain simulation.
  cex_.steps.clear();
  aig::Simulator sim(ts_.aig());

  std::vector<bool> state = init_state;
  std::vector<bool> inputs = first_inputs;
  int node = chain_start;
  while (true) {
    cex_.steps.push_back(ts::Step{state, inputs});
    sim.eval(state, inputs);
    if (node < 0) break;  // the step just recorded was the bad one
    state = sim.next_state();
    inputs = pool_[node].inputs;
    node = pool_[node].parent;
  }
}

bool Ic3::block_from_bad_state() {
  std::vector<bool> state = model_state();
  std::vector<bool> inputs = model_inputs();
  ts::Cube cube = lift_bad(state, inputs);

  if (!ts_.cube_disjoint_from_init(cube)) {
    // A bad (initial) state: length-0 counterexample.
    build_cex(initial_state_in_cube(cube), inputs, -1);
    return false;
  }

  pool_.push_back(Obligation{std::move(cube), std::move(state),
                             std::move(inputs), top_frame_, -1, 0});
  stats_.obligations++;
  int root = static_cast<int>(pool_.size()) - 1;
  return block_obligation(root);
}

bool Ic3::block_obligation(int root_index) {
  queue_.clear();
  enqueue(root_index);

  while (!queue_.empty()) {
    int oi = pop_min_frame();
    int k = pool_[oi].frame;
    assert(k >= 1);

    // Already discharged by an existing clause?
    int blocked = highest_blocked_level(pool_[oi].cube, k);
    if (blocked >= k) {
      if (blocked < top_frame_) {
        pool_[oi].frame = blocked + 1;
        enqueue(oi);
      }
      continue;
    }

    poll_budget();

    // PDR's push-to-infinity, tried first on the untouched obligation
    // cube: if ¬cube is inductive relative to the path constraints alone,
    // install it at F_inf. This is what makes local proofs converge in one
    // frame when the assumed properties already refute the bad region
    // (the paper's Example 1 and Table X shapes).
    std::vector<std::size_t> inf_core;
    sat::SolveResult inf_res = checked(counted_consecution(
        prof_consecution_, &Ic3Stats::consecution_queries, kLevelInf,
        pool_[oi].cube, /*add_negation=*/true, &inf_core));
    if (inf_res == sat::SolveResult::Unsat) {
      ts::Cube c = shrink_with_core(pool_[oi].cube, inf_core);
      c = repair_init_intersection(c, pool_[oi].cube);
      c = mic(std::move(c), kLevelInf);
      add_inf_cube(c);
      continue;  // blocked at every frame; obligation discharged
    }

    std::vector<std::size_t> core;
    sat::SolveResult res = checked(counted_consecution(
        prof_consecution_, &Ic3Stats::consecution_queries, k - 1,
        pool_[oi].cube, /*add_negation=*/true, &core));
    if (res == sat::SolveResult::Unsat) {
      // Blockable: shrink by the core, repair init intersection, MIC, push.
      ts::Cube c = shrink_with_core(pool_[oi].cube, core);
      c = repair_init_intersection(c, pool_[oi].cube);
      c = mic(std::move(c), k - 1);
      // The MIC-generalized cube is frequently inductive relative to the
      // path constraints alone even when the raw obligation cube was not;
      // promote it to F_inf when it is.
      if (checked(counted_consecution(
              prof_consecution_, &Ic3Stats::consecution_queries, kLevelInf, c,
              /*add_negation=*/true, nullptr)) == sat::SolveResult::Unsat) {
        add_inf_cube(c);
        continue;
      }
      int level = push_forward(c, k);
      add_blocked_cube(c, level);
      if (level < top_frame_) {
        pool_[oi].frame = level + 1;
        enqueue(oi);
      }
    } else {
      // A predecessor exists; lift it and recurse one frame down. The
      // model is copied before any later query can clobber it.
      std::vector<bool> pstate = model_state();
      std::vector<bool> pinputs = model_inputs();
      ts::Cube pcube = lift_predecessor(pstate, pinputs, pool_[oi].cube,
                                        opts_.lifting_respects_constraints);

      if (!ts_.cube_disjoint_from_init(pcube)) {
        // The lifted predecessor cube contains an initial state: a full
        // counterexample trace exists through the obligation chain.
        build_cex(initial_state_in_cube(pcube), pinputs, oi);
        return false;
      }
      pool_.push_back(Obligation{std::move(pcube), std::move(pstate),
                                 std::move(pinputs), k - 1, oi,
                                 pool_[oi].depth + 1});
      stats_.obligations++;
      enqueue(static_cast<int>(pool_.size()) - 1);
      enqueue(oi);  // retry after the predecessor is resolved
    }
  }
  return true;
}

// --- propagation / fixpoint -------------------------------------------------

void Ic3::propagate_and_check_fixpoint() {
  for (int lvl = 1; lvl < top_frame_; ++lvl) {
    poll_budget();
    std::vector<ts::Cube> keep;
    std::vector<ts::Cube> cubes = frame_cubes_[lvl];  // copy: list mutates
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      // ¬c is already in F_lvl, so no extra negation is needed.
      sat::SolveResult r;
      try {
        r = checked(counted_consecution(
            prof_push_, &Ic3Stats::consecution_queries, lvl, cubes[i],
            /*add_negation=*/false, nullptr));
      } catch (...) {
        // Budget expiry mid-level: commit the partition so far (already
        // pushed cubes leave F_lvl, the unprocessed tail stays) instead
        // of leaving pushed cubes duplicated at both levels for the next
        // slice to re-push.
        keep.insert(keep.end(), cubes.begin() + i, cubes.end());
        frame_cubes_[lvl] = std::move(keep);
        throw;
      }
      if (r == sat::SolveResult::Unsat) {
        frame_cubes_[lvl + 1].push_back(cubes[i]);
        mono().add_blocking_clause(cubes[i], lvl + 1);
      } else {
        keep.push_back(cubes[i]);
      }
    }
    frame_cubes_[lvl] = std::move(keep);
    if (frame_cubes_[lvl].empty()) {
      fixpoint_found_ = true;
      fixpoint_level_ = lvl;
      return;
    }
  }
}

// --- main loop ---------------------------------------------------------------

Ic3Result Ic3::run() { return run(Ic3Budget{}); }

Ic3Result Ic3::run(const Ic3Budget& budget) {
  begin_slice(budget);
  Ic3Result result;
  result.frames = top_frame_;
  if (phase_ == Phase::Done) {
    // Re-running a finished engine: report the verdict again (without the
    // trace/invariant, which the terminal slice moved out).
    result.status = final_status_;
    result.stats = finalize_stats();
    return result;
  }
  try {
    if (phase_ == Phase::StartUp) {
      start_up();
      ensure_frame(0);
      phase_ = Phase::Depth0;
    }
    absorb_lemma_candidates();
    if (phase_ == Phase::Depth0) {
      // Depth-0 check: an initial state violating the property.
      if (checked(bad_query(0)) == sat::SolveResult::Sat) {
        build_cex(model_state(), model_inputs(), -1);
        phase_ = Phase::Done;
        final_status_ = CheckStatus::Fails;
        result.status = CheckStatus::Fails;
        result.frames = 0;
        result.cex = std::move(cex_);
        result.stats = finalize_stats();
        return result;
      }
      top_frame_ = 1;
      ensure_frame(1);
      phase_ = Phase::Main;
    }

    while (true) {
      // Clear all bad states reachable within top_frame_ steps.
      while (checked(bad_query(top_frame_)) == sat::SolveResult::Sat) {
        poll_budget();
        if (!block_from_bad_state()) {
          phase_ = Phase::Done;
          final_status_ = CheckStatus::Fails;
          result.status = CheckStatus::Fails;
          result.frames = top_frame_;
          result.cex = std::move(cex_);
          result.stats = finalize_stats();
          return result;
        }
      }
      result.frames = top_frame_;

      if (top_frame_ >= opts_.max_frames) throw Timeout{};

      top_frame_++;
      ensure_frame(top_frame_);
      propagate_and_check_fixpoint();
      if (fixpoint_found_) {
        phase_ = Phase::Done;
        final_status_ = CheckStatus::Holds;
        result.status = CheckStatus::Holds;
        result.frames = std::max(result.frames, fixpoint_level_);
        result.invariant = inf_cubes_;
        result.invariant_seeds = inf_seed_prefix_;
        for (int j = fixpoint_level_ + 1;
             j < static_cast<int>(frame_cubes_.size()); ++j) {
          for (const ts::Cube& c : frame_cubes_[j]) {
            result.invariant.push_back(c);
          }
        }
        result.stats = finalize_stats();
        return result;
      }
      JAVER_LOG(Debug) << "ic3: frame " << top_frame_ << ", clauses "
                       << stats_.clauses_added;
    }
  } catch (const Timeout&) {
    result.status = CheckStatus::Unknown;
    result.resumable = false;
    result.frames = top_frame_;
    result.stats = finalize_stats();
    return result;
  } catch (const Suspend&) {
    // Drop in-flight obligations (re-derived by the next slice's bad-state
    // query); frames, F_inf clauses and solver contexts survive.
    queue_.clear();
    pool_.clear();
    result.status = CheckStatus::Unknown;
    result.resumable = true;
    result.frames = top_frame_;
    result.stats = finalize_stats();
    return result;
  }
}

}  // namespace javer::ic3
