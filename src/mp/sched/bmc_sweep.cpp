#include "mp/sched/bmc_sweep.h"

#include <algorithm>
#include <string>

#include "base/log.h"
#include "base/timer.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"

namespace javer::mp::sched {

BmcSweep::BmcSweep(const ts::TransitionSystem& ts,
                   const SchedulerOptions& opts, int shard)
    : ts_(ts), opts_(opts), bmc_(ts), trace_shard_(shard) {
  if (opts.proof_mode == ProofMode::Local) {
    // Every ETH property is assumed on non-final steps; a failure found
    // at the final bound is therefore a first failure (a local CEX).
    for (std::size_t j = 0; j < ts.num_properties(); ++j) {
      if (!ts.expected_to_fail(j)) assumed_.push_back(j);
    }
  }
  exhausted_ = opts_.bmc_max_depth <= 0 || opts_.bmc_depth_per_sweep <= 0;
}

void BmcSweep::add_near_miss_seeds(std::vector<simfilter::NearMissSeed> seeds) {
  for (simfilter::NearMissSeed& s : seeds) seeds_.push_back(std::move(s));
}

void BmcSweep::fold_sat_stats(const sat::SolverStats& before,
                              const sat::SolverStats& after) {
  const std::uint64_t propagations = after.propagations - before.propagations;
  const std::uint64_t conflicts = after.conflicts - before.conflicts;
  const std::uint64_t decisions = after.decisions - before.decisions;
  sat_stats_.propagations += propagations;
  sat_stats_.conflicts += conflicts;
  sat_stats_.decisions += decisions;
  if (obs::MetricsRegistry* m = opts_.engine.metrics) {
    m->add("bmc.sat_propagations", propagations);
    m->add("bmc.sat_conflicts", conflicts);
    m->add("bmc.sat_decisions", decisions);
  }
}

void BmcSweep::ensure_progress() {
  if (progress_ != nullptr || opts_.engine.progress == nullptr) return;
  progress_ = opts_.engine.progress->register_task(/*property=*/-1,
                                                   trace_shard_);
  progress_->set_state(obs::ProgressState::kRunning);
}

std::size_t BmcSweep::process_seeds(std::vector<PropertyTask*>& by_prop) {
  std::vector<simfilter::NearMissSeed> seeds = std::move(seeds_);
  seeds_.clear();
  const obs::TraceSink sink(opts_.engine.tracer, trace_shard_);
  std::size_t closed = 0;
  const std::uint64_t discarded_before = seed_discarded_;
  for (simfilter::NearMissSeed& seed : seeds) {
    PropertyTask* task =
        seed.prop < by_prop.size() ? by_prop[seed.prop] : nullptr;
    if (task == nullptr || !task->open() || seed.prefix.steps.empty()) {
      continue;
    }
    const std::uint64_t begin = sink.begin();
    // A dedicated bounded unrolling opened at the seed's final simulated
    // state — the "just assume" prefix-constraint machinery with the seed
    // state as the (single) initial state.
    bmc::Bmc seed_bmc(ts_, &seed.prefix.steps.back().state);
    bmc::BmcOptions bo;
    bo.assumed = assumed_;
    bo.max_depth = std::max(0, opts_.engine.sim_filter.seed_window);
    bo.conflict_budget = opts_.engine.conflict_budget_per_query;
    bo.simplify = opts_.engine.simplify;
    bo.profile = obs::ProfileSink(opts_.engine.profiler, trace_shard_,
                                  static_cast<long long>(seed.prop));
    bmc::BmcResult br = seed_bmc.run({seed.prop}, bo);
    fold_sat_stats({}, seed_bmc.solver_stats());
    bool hit = false;
    if (br.status == CheckStatus::Fails) {
      // Stitch: the prefix up to (not including) the seed state, then the
      // BMC trace (whose step 0 state *is* the seed state; its inputs come
      // from the BMC model). The oracle is the only thing allowed to turn
      // this into a verdict.
      ts::Trace stitched;
      stitched.steps.assign(seed.prefix.steps.begin(),
                            seed.prefix.steps.end() - 1);
      for (ts::Step& s : br.cex.steps) stitched.steps.push_back(std::move(s));
      const bool ok =
          opts_.proof_mode == ProofMode::Local
              ? ts::is_local_cex(ts_, stitched, seed.prop, task->assumed())
              : ts::is_global_cex(ts_, stitched, seed.prop);
      if (ok) {
        const int frames = static_cast<int>(stitched.length());
        task->resolve_fails(std::move(stitched), frames);
        by_prop[seed.prop] = nullptr;
        closed++;
        seed_hits_++;
        hit = true;
      } else {
        seed_discarded_++;
      }
    }
    if (sink.enabled()) {
      sink.complete("bmc", "seed", begin, -1,
                    "\"prop\":" + std::to_string(seed.prop) +
                        ",\"hit\":" + (hit ? std::string("true")
                                           : std::string("false")));
    }
    JAVER_LOG(Verbose) << "sweep: seed for P" << seed.prop
                       << (hit ? " hit" : " missed");
  }
  if (obs::MetricsRegistry* m = opts_.engine.metrics) {
    m->add("sim.seed_queries", seeds.size());
    m->add("sim.seed_hits", closed);
    m->add("sim.seed_discarded", seed_discarded_ - discarded_before);
  }
  return closed;
}

std::size_t BmcSweep::sweep(const std::vector<PropertyTask*>& tasks,
                            double remaining_seconds) {
  ensure_progress();
  if (progress_ != nullptr) progress_->touch();
  std::vector<PropertyTask*> by_prop(ts_.num_properties(), nullptr);
  for (PropertyTask* task : tasks) {
    if (task != nullptr && task->open()) by_prop[task->prop()] = task;
  }
  // Seeds run even when the shared unrolling is exhausted: their windows
  // are independent, bounded and cheap.
  std::size_t seed_closed = seeds_.empty() ? 0 : process_seeds(by_prop);
  if (exhausted_) return seed_closed;
  const obs::TraceSink sink(opts_.engine.tracer, trace_shard_);
  const std::uint64_t span_begin = sink.begin();
  const int window_begin = depth_done_;
  std::vector<std::size_t> targets;
  for (PropertyTask* task : tasks) {
    if (task != nullptr && task->open() && by_prop[task->prop()] != nullptr) {
      targets.push_back(task->prop());
    }
  }
  if (targets.empty()) return seed_closed;

  const int window_end =
      std::min(depth_done_ + opts_.bmc_depth_per_sweep, opts_.bmc_max_depth) -
      1;
  if (window_end < depth_done_) {
    exhausted_ = true;
    return seed_closed;
  }

  double budget = opts_.bmc_sweep_seconds;
  if (remaining_seconds > 0 && (budget <= 0 || remaining_seconds < budget)) {
    budget = remaining_seconds;
  }
  Deadline sweep_deadline(budget);

  bmc::BmcOptions bo;
  bo.assumed = assumed_;
  bo.simplify = opts_.engine.simplify;
  bo.conflict_budget = opts_.engine.conflict_budget_per_query;
  bo.start_depth = depth_done_;
  bo.max_depth = window_end;
  bo.profile = obs::ProfileSink(opts_.engine.profiler, trace_shard_);

  std::size_t closed = 0;
  const sat::SolverStats stats_before = bmc_.solver_stats();
  while (!targets.empty()) {
    bo.time_limit_seconds = budget > 0 ? sweep_deadline.remaining() : 0.0;
    if (budget > 0 && bo.time_limit_seconds <= 0) break;
    bmc::BmcResult br = bmc_.run(targets, bo);
    depth_done_ = std::max(depth_done_, br.frames_explored);
    if (progress_ != nullptr) {
      progress_->set_depth(depth_done_);
      progress_->touch();
    }
    if (br.status != CheckStatus::Fails) break;  // window clean / budget out
    for (std::size_t p : br.failed_targets) {
      if (by_prop[p] != nullptr) {
        by_prop[p]->resolve_fails(br.cex, br.depth);
        by_prop[p] = nullptr;
        closed++;
      }
    }
    targets.erase(std::remove_if(
                      targets.begin(), targets.end(),
                      [&](std::size_t p) { return by_prop[p] == nullptr; }),
                  targets.end());
    // Re-scan this bound: other targets may fail here too before the
    // unrolling grows.
    bo.start_depth = br.depth;
    JAVER_LOG(Verbose) << "sweep: bmc closed " << br.failed_targets.size()
                       << " target(s) at depth " << br.depth;
  }

  fold_sat_stats(stats_before, bmc_.solver_stats());
  if (closed > 0) {
    empty_streak_ = 0;
  } else if (depth_done_ > window_end) {
    empty_streak_++;  // a fully clean window, not a budget cut
  }
  if (depth_done_ >= opts_.bmc_max_depth ||
      empty_streak_ >= opts_.bmc_empty_sweeps_to_stop) {
    exhausted_ = true;
  }
  if (progress_ != nullptr) {
    progress_->set_depth(depth_done_);
    // An exhausted sweep is done for good; a terminal state takes it off
    // the watchdog's Running set and out of the verbose open-cell rows.
    progress_->set_state(exhausted_ ? obs::ProgressState::kUnknown
                                    : obs::ProgressState::kRunning);
  }
  if (obs::MetricsRegistry* m = opts_.engine.metrics) {
    m->add("bmc.sweeps");
    m->add("bmc.cex_found", closed);
    m->max_gauge("bmc.depth", static_cast<double>(depth_done_));
  }
  if (sink.enabled()) {
    std::string args = "\"window_begin\":" + std::to_string(window_begin) +
                       ",\"depth_done\":" + std::to_string(depth_done_) +
                       ",\"closed\":" + std::to_string(closed);
    sink.complete("bmc", "sweep", span_begin, -1, std::move(args));
  }
  return closed + seed_closed;
}

std::vector<ts::Cube> BmcSweep::harvest_unit_candidates() {
  // Completed bounds are 0 .. depth_done_-1; deeper frames may exist but
  // carry no assumed/constraint units yet, so their facts are weaker.
  return bmc_.prefix_unit_candidates(depth_done_ - 1);
}

}  // namespace javer::mp::sched
