// PropertyTask: the per-property state machine the scheduler drives.
//
//   Pending ──first slice──> Running ──verdict──> HoldsLocally
//                               │                 HoldsGlobally
//                               │                 FailsLocally
//                               │                 FailsGlobally
//                               └──budget gone──> Unknown
//
// A task owns one resumable ic3::Ic3 engine, created lazily at the first
// slice (so clause-database seeds are as fresh as possible) and kept
// across slices: the scheduler can hand out small budget slices and
// round-robin them over many open properties instead of burning a full
// one-shot timeout on the first hard one. The §7-A spurious-counterexample
// strict-lifting retry lives here too: a spurious local CEX discards the
// engine and restarts with lifting that respects the constraints.
//
// An engine may run on a cone-restricted view of the design (the target's
// closure, ts/cone_view.h). The task keeps the full design's indices on
// every boundary: seeds and bus units are projected into the view, an
// invariant is lifted back before it is published, and a counterexample
// is lifted and must pass the full design's witness check, or the task
// restarts once on the full design. Every
// close path frees the engine (its SAT contexts) and the seed snapshot;
// the result row keeps the final engine's stats.
//
// A task is not thread-safe: the scheduler touches each task from one
// thread at a time. Slices run on pool workers; resolve_fails runs from a
// BMC sweep (on the pass-1 pool worker of the task's own shard; the
// pool.run barrier separates pass 1 from the pass-2 slices), or from the
// prefilter kill routing and the final close_unknown on the caller thread.
//
// Verdicts can also be injected from outside the IC3 engine — the hybrid
// policy resolves shallow failures with shared BMC sweeps and calls
// resolve_fails() with the trace.
#ifndef JAVER_MP_SCHED_PROPERTY_TASK_H
#define JAVER_MP_SCHED_PROPERTY_TASK_H

#include <cstdint>
#include <memory>
#include <vector>

#include "ic3/ic3.h"
#include "mp/clause_db.h"
#include "mp/exchange/lemma_bus.h"
#include "mp/report.h"
#include "mp/sched/engine_options.h"
#include "ts/cone_view.h"
#include "ts/transition_system.h"

namespace javer::obs {
class TaskProgress;
}  // namespace javer::obs

namespace javer::mp::sched {

enum class TaskState : std::uint8_t {
  Pending,   // no engine work done yet
  Running,   // engine suspended between slices
  Holds,     // closed: HoldsLocally / HoldsGlobally per proof mode
  Fails,     // closed: FailsLocally / FailsGlobally per proof mode
  Unknown,   // closed: budget exhausted
};

const char* to_string(TaskState s);

// The local-proof assumption set for target `prop` (Section 5): every ETH
// property except the target — also correct when the target itself is
// expected to fail. The one place this rule lives; every mode's
// assumption plumbing goes through it.
std::vector<std::size_t> local_assumptions(const ts::TransitionSystem& ts,
                                           std::size_t prop);

// One slice of engine work. Zero fields = unlimited (the task still stops
// at its per-property time budget).
struct TaskBudget {
  double seconds = 0.0;
  std::uint64_t conflicts = 0;
};

// The adaptive slice-sizing decision, pure so tests can pin its
// transitions. Every budgeted slice is scaled by a per-task multiplier;
// unbudgeted (run-to-completion) slices are not. Returns the multiplier
// for the *next* budgeted slice given what this slice achieved:
//  * only budgeted slices that suspended (Unknown + resumable) adjust the
//    scale — terminal and non-resumable slices have no next slice to
//    size, so their (often partial) counters must not be classified;
//  * frame progress doubles the scale (up to 4);
//  * a slice that neither added a clause nor processed an obligation is
//    genuinely stalled and halves it (down to 1/4). A slice
//    that popped obligations but suspended mid-generalization is slow
//    progress, not a stall: shrinking it would only make the next slice
//    less likely to finish the same generalization.
// The *_before baselines must come from the same engine that produced
// `er` (PropertyTask resets them when it discards an engine).
double next_slice_scale(double scale, bool budgeted, const ic3::Ic3Result& er,
                        int frames_before, std::uint64_t clauses_before,
                        std::uint64_t obligations_before);

// The IC3 configuration every scheduler engine starts from: the shared
// EngineOptions knobs, plus trace and profile sinks tagged with (shard,
// prop); -1 = untagged. Callers add what is theirs alone: assumptions,
// seeds, budgets, the template memo and the progress cell.
ic3::Ic3Options make_ic3_options(const EngineOptions& engine, int shard,
                                 long long prop);

// --- degrade-and-retry ladder (resilience) --------------------------------
//
// A task whose slice throws (engine exception, std::bad_alloc, injected
// fault) is retried with a fresh engine under a progressively *safer*
// config. The rungs are cumulative — each keeps every downgrade below it:
//   0  default        the configured options, untouched
//   1  simplify-off   no SAT preprocessing pass
//   2  isolated       no clause-reuse seeds, lemma exchange and shared
//                     prelude detached, sim-prefilter off: the engine
//                     runs from first principles with nothing shared
// Pure helpers so tests can pin the rung order and contents.
int num_ladder_rungs();
const char* rung_name(int rung);
EngineOptions degrade_for_rung(EngineOptions opts, int rung);

class PropertyTask {
 public:
  // `local_mode` selects the verdict labels (Locally/Globally) and enables
  // the spurious-CEX strict-lifting retry; `assumed` is this target's
  // assumption set (empty for global proofs). `shard` tags this task's
  // trace events, profile slots and progress cell (src/obs); -1 means
  // unsharded.
  PropertyTask(const ts::TransitionSystem& ts, std::size_t prop,
               std::vector<std::size_t> assumed, const EngineOptions& engine,
               bool local_mode, int shard = -1);
  ~PropertyTask();

  std::size_t prop() const { return prop_; }
  TaskState state() const { return state_; }
  bool open() const {
    return state_ == TaskState::Pending || state_ == TaskState::Running;
  }
  // The full design's assumption set (verdict and witness semantics).
  const std::vector<std::size_t>& assumed() const { return assumed_; }
  const ts::ConeView* view() const { return view_; }
  // True while the task holds an IC3 engine: from the first slice until
  // it closes (or a retry discards the engine).
  bool has_engine() const { return engine_ != nullptr; }

  // Subscribes this task to `shard`'s channel on `bus` (the sharded
  // scheduler's lemma exchange): every slice first feeds the units the
  // shard's BMC sweep published since the last slice into the engine as
  // candidates, and afterwards reports the engine's re-validation
  // outcome back to the bus. Call before the first slice.
  void attach_exchange(exchange::LemmaBus* bus, std::size_t shard);

  // Points this task's engine at a shared transition-relation template
  // memo (cnf/template.h): sibling tasks whose {target} ∪ assumed sets
  // coincide then encode the one-step cone once per run instead of once
  // each. The cache must outlive the task. Call before the first slice.
  void attach_templates(cnf::TemplateCache* templates);

  // Points this task's engines at the start-up prelude its shard shares
  // among the tasks with this task's {target} ∪ assumed set
  // (ic3::Ic3PreludeMemo): the first engine to start up builds it, the
  // rest start from it. The memo must outlive the task; the isolated
  // retry rung detaches it. Call before the first slice.
  void attach_prelude(ic3::Ic3PreludeMemo* memo);

  // Runs this task's engines on `view`, the sub-design of the target's
  // closure (null = the full design). The assumed properties outside the
  // closure are dropped from the engine's path conjunction; the prelude
  // memo, if any, must be the view's. A restricted counterexample that
  // fails the full design's witness check detaches the view and restarts
  // the task on the full design (task/cone_fallback). The view must
  // outlive the task. Call before the first slice.
  void attach_view(const ts::ConeView* view);

  // Runs one engine slice (respecting the per-property time budget). When
  // `db` is non-null and clause re-use is on, the engine is seeded from it
  // and completed proofs publish their strengthenings back.
  //
  // Isolation boundary: any exception escaping the slice (engine failure,
  // bad_alloc, injected fault) is caught here, recorded in the result's
  // failure_chain, and answered with a degrade-and-retry ladder restart —
  // never rethrown, so one bad property cannot take down its siblings. A
  // verdict reached after a retry is re-validated through the witness /
  // certify oracles before it is accepted (an oracle failure counts as
  // another task failure), so faults can never flip a verdict.
  void run_slice(const TaskBudget& budget, ClauseDb* db);

  // Closes the task with a failure verdict from an externally found
  // counterexample (a BMC sweep); `frames` is the trace depth.
  void resolve_fails(ts::Trace cex, int frames);
  // Closes the task as Unknown (scheduler ran out of total budget).
  void close_unknown();

  // The per-property row for MultiResult; valid any time, final once the
  // task is closed.
  PropertyResult& result() { return result_; }

  // Current adaptive slice multiplier; 1.0 again once the task closes (a
  // recycled task must not inherit a shrunken slice).
  double slice_scale() const { return slice_scale_; }

 private:
  // The real slice body; run_slice wraps it in the isolation boundary.
  void run_slice_impl(const TaskBudget& budget, ClauseDb* db);
  // Handles one caught slice failure: records it, discards the engine,
  // and either climbs the retry ladder or closes the task Unknown.
  void fail_slice(const std::string& reason);
  void ensure_engine(ClauseDb* db);
  // Publishes state (and touches activity) on the progress cell, if any.
  void publish_state();
  // Closes Holds with `invariant` in full-design indices; publishes to
  // `db` every cube past the leading `seeds` (re-validated seed clauses,
  // which the database holds already).
  void close_holds(std::vector<ts::Cube> invariant, std::size_t seeds,
                   ClauseDb* db);
  void finish_fails(ts::Trace cex);
  // Frees the engine and the seed snapshot; every close path calls it.
  void release_engine();
  // Drops the engine for a restart (retry ladder, strict lifting, full-
  // design fallback): the next slice builds a fresh one, with a fresh
  // per-property budget, slice scale and progress baselines, and the
  // lemma channel rewound so queued units reach it.
  void discard_engine();
  // The design the engine runs on, and the target's index in it.
  const ts::TransitionSystem& engine_ts() const {
    return view_ != nullptr ? view_->ts() : ts_;
  }
  std::size_t engine_target() const {
    return view_ != nullptr
               ? static_cast<std::size_t>(view_->view_property(prop_))
               : prop_;
  }
  // Folds the final engine's Ic3Stats into EngineOptions::metrics, once
  // per task lifetime. Every close path funnels through this, which is
  // what makes the registry totals reconcile exactly with the summed
  // per-property engine_stats: a task closes exactly once, and engines
  // discarded by the strict-lifting retry (whose stats never reach
  // result_.engine_stats) are never folded either.
  void fold_final_metrics();

  const ts::TransitionSystem& ts_;
  std::size_t prop_;
  std::vector<std::size_t> assumed_;
  // The cone-restricted view (null = full design) and the assumed set in
  // its property indices (assumed_ itself without a view).
  const ts::ConeView* view_ = nullptr;
  std::vector<std::size_t> engine_assumed_;
  // Closure size (task.cone_latches; smaller than the design = the task
  // started on a proper sub-design) and whether it fell back to the full
  // design.
  std::size_t cone_latches_;
  bool cone_fallback_ = false;
  EngineOptions engine_opts_;
  bool local_mode_;
  bool strict_lifting_ = false;  // set after a spurious-CEX retry
  int rung_ = 0;  // current degrade-ladder rung (== min(retries, rungs))

  TaskState state_ = TaskState::Pending;
  std::unique_ptr<ic3::Ic3> engine_;
  // Seeds captured at first engine creation; the strict-lifting retry
  // re-uses the same snapshot (matching the one-shot verifiers).
  std::shared_ptr<const std::vector<ts::Cube>> seeds_;
  double engine_seconds_ = 0.0;  // this engine's accumulated slice time
  // Adaptive slice sizing: multiplier applied to budgeted slices, driven
  // by per-slice progress (see next_slice_scale).
  double slice_scale_ = 1.0;
  // Progress baselines of the *current* engine at the end of its previous
  // slice. Kept separately from result_.engine_stats, which survives a
  // strict-lifting engine reset and would otherwise compare the fresh
  // engine's counters against the discarded engine's.
  int last_frames_ = 0;
  std::uint64_t last_clauses_ = 0;
  std::uint64_t last_obligations_ = 0;
  // Shared template memo (null = the engine keeps a private one).
  cnf::TemplateCache* templates_ = nullptr;
  // Shared start-up prelude (null = each engine builds its own).
  ic3::Ic3PreludeMemo* prelude_memo_ = nullptr;
  // Lemma exchange plumbing (null = not attached).
  exchange::LemmaBus* bus_ = nullptr;
  std::size_t shard_ = 0;
  exchange::LemmaBus::Cursor bus_cursor_;
  // Already-reported slices of the engine's cumulative import counters
  // (reset with the engine on a strict-lifting retry).
  std::uint64_t reported_imported_ = 0;
  std::uint64_t reported_rejected_ = 0;
  std::uint64_t reported_known_ = 0;
  // Observability: shard tag for trace events and the fold-once latch.
  int obs_shard_;
  bool metrics_folded_ = false;
  // Live-progress cell on EngineOptions::progress (null = monitoring
  // off). Registered at construction; the engine publishes through it
  // from the budget poll, the task at slice boundaries and close.
  obs::TaskProgress* progress_ = nullptr;
  PropertyResult result_;
};

}  // namespace javer::mp::sched

#endif  // JAVER_MP_SCHED_PROPERTY_TASK_H
