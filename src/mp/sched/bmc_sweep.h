// BmcSweep: one shard's shared BMC falsification state living across the
// hybrid policy's rounds — one incremental unrolling, extended window by
// window, with the "just assume" constraints asserted on every completed
// bound. The Scheduler owns one sweep per shard of its partition (a single
// untagged sweep for the trivial partition) and runs them in the first
// pool pass of each round. A sweep is also the source of the lemma
// exchange (mp/exchange): the units it learns about the unrolling prefix
// flow out to the shard's IC3 tasks as candidates.
#ifndef JAVER_MP_SCHED_BMC_SWEEP_H
#define JAVER_MP_SCHED_BMC_SWEEP_H

#include <cstdint>
#include <vector>

#include "bmc/bmc.h"
#include "mp/sched/scheduler.h"
#include "mp/simfilter/sim_filter.h"
#include "ts/transition_system.h"

namespace javer::obs {
class TaskProgress;
}  // namespace javer::obs

namespace javer::mp::sched {

class BmcSweep {
 public:
  // The proof mode of `opts` selects the "just assume" prefix set: every
  // non-ETF property for local proofs (a failure found at the final bound
  // is then a first failure, i.e. a local CEX), empty for global proofs.
  // Besides the proof mode only the hybrid knobs and the engine options
  // of `opts` are read. `shard` tags the sweep's trace events, profile
  // slots and progress cell (src/obs); -1 = unsharded.
  BmcSweep(const ts::TransitionSystem& ts, const SchedulerOptions& opts,
           int shard);

  // One falsification window over the open tasks (closed ones are
  // skipped); resolves every task that fails inside the window and
  // returns how many it closed. `remaining_seconds` caps the window on
  // top of the per-sweep budget (0 = no extra cap).
  std::size_t sweep(const std::vector<PropertyTask*>& tasks,
                    double remaining_seconds);

  bool exhausted() const { return exhausted_; }
  // Quarantines the sweep after a caught failure (fault isolation): the
  // shared unrolling is marked exhausted and pending seeds are dropped,
  // so the IC3 slices carry the remaining work alone.
  void disable() {
    exhausted_ = true;
    seeds_.clear();
  }
  int depth_done() const { return depth_done_; }

  // --- lemma exchange source (mp/exchange) ---

  // Candidate invariant cubes mined from the solver's root-level facts
  // about the completed prefix. Candidates only: consumers re-validate.
  std::vector<ts::Cube> harvest_unit_candidates();

  // --- near-miss prefix seeding (mp/simfilter, Full mode) ---

  // Queues "just assume" prefix seeds for the next sweep() call. Each seed
  // opens a dedicated bounded unrolling (sim_filter.seed_window deep) from
  // the seed's final simulated state; a counterexample found there is
  // stitched onto the prefix and re-validated through the witness-checker
  // oracle before it may close the task. Seeds are consumed even when the
  // shared unrolling is exhausted.
  void add_near_miss_seeds(std::vector<simfilter::NearMissSeed> seeds);
  std::uint64_t seed_hits() const { return seed_hits_; }
  std::uint64_t seed_discarded() const { return seed_discarded_; }

  // SAT work summed over every context the sweep ran: the shared
  // unrolling and each near-miss seed window. The same totals reach
  // EngineOptions::metrics as bmc.sat_propagations / bmc.sat_conflicts /
  // bmc.sat_decisions, folded after each sweep.
  const sat::SolverStats& sat_stats() const { return sat_stats_; }

 private:
  // Runs the queued seeds against the open tasks in `by_prop` (indexed by
  // property; closed entries nulled). Returns how many tasks it closed.
  std::size_t process_seeds(std::vector<PropertyTask*>& by_prop);
  // Adds `after - before` to sat_stats_ and the bmc.sat_* metrics.
  void fold_sat_stats(const sat::SolverStats& before,
                      const sat::SolverStats& after);
  // Registers the sweep's progress cell (property -1) lazily — at the
  // first sweep(), so a sweep that never runs leaves no Running cell.
  void ensure_progress();

  const ts::TransitionSystem& ts_;
  SchedulerOptions opts_;  // copied: a sweep may outlive a caller's round
  bmc::Bmc bmc_;
  std::vector<std::size_t> assumed_;
  std::vector<simfilter::NearMissSeed> seeds_;  // pending, next sweep()
  std::uint64_t seed_hits_ = 0;
  std::uint64_t seed_discarded_ = 0;
  sat::SolverStats sat_stats_;
  int depth_done_ = 0;    // completed bounds of the shared unrolling
  int empty_streak_ = 0;  // consecutive sweeps without a counterexample
  bool exhausted_ = false;
  int trace_shard_ = -1;
  // Live-progress cell (obs/monitor.h, property -1); null = monitor off.
  obs::TaskProgress* progress_ = nullptr;
};

}  // namespace javer::mp::sched

#endif  // JAVER_MP_SCHED_BMC_SWEEP_H
