#include "mp/sched/property_task.h"

#include <algorithm>
#include <utility>

#include "base/log.h"
#include "base/timer.h"
#include "fault/fault.h"
#include "ic3/certify.h"
#include "obs/monitor.h"
#include "ts/trace.h"

namespace javer::mp::sched {

namespace {

// Adaptive slice sizing bounds: the multiplier a budgeted slice is scaled
// by stays within [kSliceScaleMin, kSliceScaleMax].
constexpr double kSliceScaleMin = 0.25;
constexpr double kSliceScaleMax = 4.0;

obs::ProgressState to_progress(TaskState s) {
  switch (s) {
    case TaskState::Pending: return obs::ProgressState::kPending;
    case TaskState::Running: return obs::ProgressState::kRunning;
    case TaskState::Holds: return obs::ProgressState::kHolds;
    case TaskState::Fails: return obs::ProgressState::kFails;
    case TaskState::Unknown: return obs::ProgressState::kUnknown;
  }
  return obs::ProgressState::kUnknown;
}

}  // namespace

const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::Pending: return "pending";
    case TaskState::Running: return "running";
    case TaskState::Holds: return "holds";
    case TaskState::Fails: return "fails";
    default: return "unknown";
  }
}

std::vector<std::size_t> local_assumptions(const ts::TransitionSystem& ts,
                                           std::size_t prop) {
  std::vector<std::size_t> assumed;
  for (std::size_t j = 0; j < ts.num_properties(); ++j) {
    if (j != prop && !ts.expected_to_fail(j)) assumed.push_back(j);
  }
  return assumed;
}

double next_slice_scale(double scale, bool budgeted, const ic3::Ic3Result& er,
                        int frames_before, std::uint64_t clauses_before,
                        std::uint64_t obligations_before) {
  if (!budgeted) return scale;
  // Only a suspended slice sizes the next one: terminal verdicts have no
  // next slice, and a non-resumable slice's counters reflect a hard stop,
  // not slice-shaped progress.
  if (er.status != CheckStatus::Unknown || !er.resumable) return scale;
  if (er.frames > frames_before) {
    return std::min(scale * 2.0, kSliceScaleMax);
  }
  // Stalled = no clause landed AND no obligation was processed. A slice
  // that popped obligations but suspended mid-generalization is making
  // progress the clause counter has not seen yet.
  if (er.stats.clauses_added == clauses_before &&
      er.stats.obligations == obligations_before) {
    return std::max(scale / 2.0, kSliceScaleMin);
  }
  return scale;
}

ic3::Ic3Options make_ic3_options(const EngineOptions& engine, int shard,
                                 long long prop) {
  ic3::Ic3Options opts;
  opts.lifting_respects_constraints = engine.lifting_respects_constraints;
  opts.simplify = engine.simplify;
  opts.conflict_budget_per_query = engine.conflict_budget_per_query;
  opts.trace = obs::TraceSink(engine.tracer, shard, prop);
  opts.profile = obs::ProfileSink(engine.profiler, shard, prop);
  return opts;
}

int num_ladder_rungs() { return 2; }

const char* rung_name(int rung) {
  switch (rung) {
    case 0: return "default";
    case 1: return "simplify-off";
    case 2: return "isolated";
  }
  return "?";
}

EngineOptions degrade_for_rung(EngineOptions opts, int rung) {
  // Cumulative: rung N keeps every downgrade of rung N-1, so re-applying
  // the ladder to already-degraded options is idempotent.
  if (rung >= 1) opts.simplify = false;
  if (rung >= 2) {
    opts.clause_reuse = false;
    opts.sim_filter.mode = simfilter::SimFilterMode::Off;
  }
  return opts;
}

PropertyTask::PropertyTask(const ts::TransitionSystem& ts, std::size_t prop,
                           std::vector<std::size_t> assumed,
                           const EngineOptions& engine, bool local_mode,
                           int shard)
    : ts_(ts),
      prop_(prop),
      assumed_(std::move(assumed)),
      engine_assumed_(assumed_),
      cone_latches_(ts.num_latches()),
      engine_opts_(engine),
      local_mode_(local_mode),
      strict_lifting_(engine.lifting_respects_constraints),
      obs_shard_(shard) {
  if (engine_opts_.progress != nullptr) {
    progress_ = engine_opts_.progress->register_task(
        static_cast<long long>(prop_), obs_shard_);
  }
}

PropertyTask::~PropertyTask() = default;

void PropertyTask::publish_state() {
  if (progress_ != nullptr) progress_->set_state(to_progress(state_));
}

void PropertyTask::ensure_engine(ClauseDb* db) {
  if (engine_) return;
  ic3::Ic3Options opts = make_ic3_options(engine_opts_, obs_shard_,
                                          static_cast<long long>(prop_));
  opts.assumed = engine_assumed_;
  opts.lifting_respects_constraints = strict_lifting_;
  opts.template_cache = templates_;
  opts.prelude_memo = prelude_memo_;
  opts.progress = progress_;
  // Time budgeting is the task's job: the internal engine deadline would
  // tick in wall-clock while *other* tasks hold the engine pool.
  opts.time_limit_seconds = 0.0;
  if (engine_opts_.clause_reuse && db != nullptr && !seeds_) {
    seeds_ = db->shared_snapshot();
  }
  // The last ("isolated") retry config keeps the snapshot around but
  // stops feeding it: a poisoned seed set must not follow the task up
  // the ladder.
  if (seeds_ && engine_opts_.clause_reuse) {
    opts.seed_clauses = view_ != nullptr ? view_->project(*seeds_) : *seeds_;
  }
  engine_ = std::make_unique<ic3::Ic3>(engine_ts(), engine_target(),
                                       std::move(opts));
}

void PropertyTask::close_holds(std::vector<ts::Cube> invariant,
                               std::size_t seeds, ClauseDb* db) {
  state_ = TaskState::Holds;
  slice_scale_ = 1.0;
  result_.verdict = local_mode_ ? PropertyVerdict::HoldsLocally
                                : PropertyVerdict::HoldsGlobally;
  result_.invariant = std::move(invariant);
  if (db != nullptr && engine_opts_.clause_reuse &&
      result_.invariant.size() > seeds) {
    db->add(std::vector<ts::Cube>(
        result_.invariant.begin() + static_cast<std::ptrdiff_t>(seeds),
        result_.invariant.end()));
  }
  release_engine();
  fold_final_metrics();
  publish_state();
}

void PropertyTask::finish_fails(ts::Trace cex) {
  state_ = TaskState::Fails;
  slice_scale_ = 1.0;
  result_.verdict = local_mode_ ? PropertyVerdict::FailsLocally
                                : PropertyVerdict::FailsGlobally;
  result_.cex = std::move(cex);
  release_engine();
  fold_final_metrics();
  publish_state();
}

void PropertyTask::release_engine() {
  engine_.reset();
  seeds_.reset();
}

void PropertyTask::discard_engine() {
  engine_.reset();
  engine_seconds_ = 0.0;
  reported_imported_ = reported_rejected_ = reported_known_ = 0;
  last_frames_ = 0;
  last_clauses_ = last_obligations_ = 0;
  slice_scale_ = 1.0;
  result_.slice_scale = slice_scale_;
  bus_cursor_ = {};
}

void PropertyTask::fold_final_metrics() {
  if (metrics_folded_) return;
  metrics_folded_ = true;
  if (engine_opts_.metrics == nullptr) return;
  ic3::fold_stats(*engine_opts_.metrics, result_.engine_stats);
  engine_opts_.metrics->add("task.closed");
  engine_opts_.metrics->add("task.cone_latches", cone_latches_);
  if (cone_latches_ < ts_.num_latches()) {
    engine_opts_.metrics->add("task.restricted");
  }
  if (cone_fallback_) engine_opts_.metrics->add("task.cone_fallbacks");
  engine_opts_.metrics->add(
      "task.spurious_restarts",
      static_cast<std::uint64_t>(result_.spurious_restarts));
  // Every close path funnels through here *after* the verdict is set, so
  // this is the one place the retry outcome is known: a retried task
  // either recovered to a (re-validated) verdict or exhausted the ladder
  // into Unknown. retry.attempts is counted live in fail_slice.
  if (result_.retries > 0) {
    engine_opts_.metrics->add(result_.verdict == PropertyVerdict::Unknown
                                  ? "retry.exhausted"
                                  : "retry.recovered");
  }
}

void PropertyTask::attach_exchange(exchange::LemmaBus* bus,
                                   std::size_t shard) {
  bus_ = bus;
  shard_ = shard;
}

void PropertyTask::attach_templates(cnf::TemplateCache* templates) {
  templates_ = templates;
}

void PropertyTask::attach_prelude(ic3::Ic3PreludeMemo* memo) {
  prelude_memo_ = memo;
}

void PropertyTask::attach_view(const ts::ConeView* view) {
  view_ = view;
  cone_latches_ = view != nullptr ? view->num_latches() : ts_.num_latches();
  engine_assumed_.clear();
  for (std::size_t j : assumed_) {
    const int v = view != nullptr ? view->view_property(j)
                                  : static_cast<int>(j);
    if (v >= 0) engine_assumed_.push_back(static_cast<std::size_t>(v));
  }
}

void PropertyTask::resolve_fails(ts::Trace cex, int frames) {
  if (!open()) return;
  result_.frames = frames;
  finish_fails(std::move(cex));
}

void PropertyTask::close_unknown() {
  if (!open()) return;
  state_ = TaskState::Unknown;
  slice_scale_ = 1.0;
  result_.verdict = PropertyVerdict::Unknown;
  release_engine();
  fold_final_metrics();
  publish_state();
}

void PropertyTask::run_slice(const TaskBudget& budget, ClauseDb* db) {
  if (!open()) return;
  // Tag the thread with this property so deep fault sites (a SAT
  // allocation five frames down, a persist write) match prop= filters.
  fault::TaskScope fault_scope(static_cast<long long>(prop_));
  try {
    run_slice_impl(budget, db);
  } catch (const std::exception& e) {
    fail_slice(e.what());
  } catch (...) {
    fail_slice("unknown exception");
  }
}

void PropertyTask::fail_slice(const std::string& reason) {
  const obs::TraceSink sink(engine_opts_.tracer, obs_shard_,
                            static_cast<long long>(prop_));
  result_.failure_chain.push_back(std::string(rung_name(rung_)) + ": " +
                                  reason);
  JAVER_LOG(Info) << "sched: P" << prop_ << " slice failed on rung '"
                  << rung_name(rung_) << "': " << reason;
  if (engine_opts_.metrics != nullptr) engine_opts_.metrics->add("fault.caught");
  if (sink.enabled()) {
    std::string args = "\"rung\":\"";
    args += rung_name(rung_);
    args += "\",\"reason\":\"";
    obs::detail::append_json_escaped(args, reason);
    args += '"';
    sink.instant("fault", "task_failure", result_.slices, std::move(args));
  }

  // Discard everything the failed engine touched — same full reset as the
  // §7-A strict-lifting retry.
  discard_engine();

  if (result_.retries >= engine_opts_.max_task_retries) {
    JAVER_LOG(Info) << "sched: P" << prop_
                    << " exhausted the retry ladder; closing Unknown";
    close_unknown();
    return;
  }
  result_.retries++;
  rung_ = std::min(result_.retries, num_ladder_rungs());
  result_.final_rung = rung_;
  engine_opts_ = degrade_for_rung(std::move(engine_opts_), rung_);
  if (rung_ >= num_ladder_rungs()) {
    // "isolated": detach the lemma exchange and the shared prelude along
    // with seeds/prefilter.
    bus_ = nullptr;
    prelude_memo_ = nullptr;
  }
  if (engine_opts_.metrics != nullptr) {
    engine_opts_.metrics->add("retry.attempts");
  }
  if (sink.enabled()) {
    std::string args = "\"rung\":\"";
    args += rung_name(rung_);
    args += '"';
    sink.instant("fault", "retry", result_.slices, std::move(args));
  }
  publish_state();  // still open; the next slice runs the safer config
}

void PropertyTask::run_slice_impl(const TaskBudget& budget, ClauseDb* db) {
  double per_prop = engine_opts_.time_limit_per_property;
  double remaining = per_prop > 0 ? per_prop - engine_seconds_ : 0.0;
  if (per_prop > 0 && remaining <= 0) {
    close_unknown();
    return;
  }

  const obs::TraceSink sink(engine_opts_.tracer, obs_shard_,
                            static_cast<long long>(prop_));
  const int slice_index = result_.slices;  // ordinal of the slice we run now
  const double applied_scale = slice_scale_;
  const std::uint64_t span_begin = sink.begin();

  if (progress_ != nullptr) {
    // A task picked back up after a preempt-suspend must not be
    // preempted again before doing any work.
    progress_->clear_preempt();
    progress_->set_slices(static_cast<std::uint64_t>(result_.slices));
    progress_->set_slice_scale(slice_scale_);
    state_ = TaskState::Running;
    publish_state();
  }
  // Injected stall (fault plan site "task.stall"): burn wall-clock before
  // the engine's first poll without publishing any activity, so the
  // watchdog sees a genuinely wedged slice whose heartbeat age keeps
  // growing; a preempt request is the escape hatch, so --watchdog-preempt
  // can still cut it short.
  if (double stall = fault::inject_stall("task.stall"); stall > 0) {
    Timer stall_timer;
    while (stall_timer.seconds() < stall) {
      if (progress_ != nullptr && progress_->preempt_requested()) break;
    }
  }

  ensure_engine(db);

  // Incoming lemma traffic: every unit the shard's BMC sweep published
  // since the last poll becomes a candidate the engine re-validates at
  // slice start.
  if (bus_ != nullptr && bus_->enabled()) {
    std::vector<ts::Cube> cubes = bus_->poll(shard_, bus_cursor_);
    if (view_ != nullptr) cubes = view_->project(cubes);
    if (!cubes.empty()) engine_->add_lemma_candidates(std::move(cubes));
  }

  ic3::Ic3Budget slice;
  slice.time_slice_seconds = budget.seconds;
  slice.conflict_slice = budget.conflicts;
  const bool budgeted = budget.seconds > 0 || budget.conflicts > 0;
  if (budgeted) {
    if (slice.time_slice_seconds > 0) slice.time_slice_seconds *= slice_scale_;
    if (slice.conflict_slice > 0) {
      slice.conflict_slice = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(slice.conflict_slice) * slice_scale_));
    }
  }
  if (per_prop > 0 &&
      (slice.time_slice_seconds <= 0 || remaining < slice.time_slice_seconds)) {
    slice.time_slice_seconds = remaining;
  }

  // Baselines from the *current* engine's previous slice (zero for a
  // fresh engine); result_.engine_stats would be wrong here right after a
  // strict-lifting retry, when it still holds the discarded engine's
  // cumulative counters.
  const int frames_before = last_frames_;
  const std::uint64_t clauses_before = last_clauses_;
  const std::uint64_t obligations_before = last_obligations_;

  Timer timer;
  ic3::Ic3Result er = engine_->run(slice);
  double spent = timer.seconds();
  engine_seconds_ += spent;
  result_.seconds += spent;
  result_.frames = er.frames;
  // Per-slice stats are cumulative for this engine; a strict-lifting retry
  // resets them along with the engine (matching the one-shot verifiers,
  // which report the final engine's stats).
  result_.engine_stats = er.stats;
  result_.slices++;
  last_frames_ = er.frames;
  last_clauses_ = er.stats.clauses_added;
  last_obligations_ = er.stats.obligations;
  state_ = TaskState::Running;
  if (progress_ != nullptr) {
    progress_->set_frames(er.frames);
    progress_->set_obligations(er.stats.obligations);
    progress_->set_slices(static_cast<std::uint64_t>(result_.slices));
    progress_->touch();
  }

  // Import accounting for the bus hit rate.
  if (bus_ != nullptr && bus_->enabled()) {
    bus_->record_import(shard_, er.stats.lemmas_imported - reported_imported_,
                        er.stats.lemmas_rejected - reported_rejected_,
                        er.stats.lemmas_known - reported_known_);
    reported_imported_ = er.stats.lemmas_imported;
    reported_rejected_ = er.stats.lemmas_rejected;
    reported_known_ = er.stats.lemmas_known;
  }

  // Adaptive slice sizing: frames advanced => the slice is paying off,
  // grow it; a slice that did nothing measurable is stalled, shrink.
  slice_scale_ = next_slice_scale(slice_scale_, budgeted, er, frames_before,
                                  clauses_before, obligations_before);
  result_.slice_scale = slice_scale_;
  if (progress_ != nullptr) progress_->set_slice_scale(slice_scale_);

  const char* outcome = nullptr;
  switch (er.status) {
    case CheckStatus::Holds: {
      // A restricted engine's invariant is one of the full design too
      // (ts/cone_view.h); it leaves the task in full-design indices.
      std::vector<ts::Cube> invariant =
          view_ != nullptr ? view_->lift(er.invariant)
                           : std::move(er.invariant);
      // A proof from a post-retry engine only counts once an independent
      // certifier accepts it: a failing check is one more task failure
      // (the wrapper catches the throw), never a wrong verdict.
      if (result_.retries > 0) {
        ic3::CertificateCheck check =
            ic3::certify_strengthening(ts_, prop_, assumed_, invariant);
        if (!check.ok()) {
          throw std::runtime_error("post-retry certification failed: " +
                                   check.failure);
        }
      }
      close_holds(std::move(invariant), er.invariant_seeds, db);
      outcome = "holds";
      break;
    }
    case CheckStatus::Fails: {
      if (local_mode_ && !strict_lifting_ && !engine_assumed_.empty() &&
          !ts::is_local_cex(engine_ts(), er.cex, engine_target(),
                            engine_assumed_)) {
        // §7-A: relaxed lifting produced a spurious local CEX. Restart
        // with strict lifting and a fresh per-property budget, like the
        // one-shot path.
        JAVER_LOG(Verbose) << "sched: spurious local cex for P" << prop_
                           << "; strict-lifting retry";
        strict_lifting_ = true;
        discard_engine();
        result_.spurious_restarts++;
        sink.instant("task", "spurious_restart", slice_index);
        outcome = "spurious_restart";  // still open; next slice is strict
        break;
      }
      ts::Trace cex =
          view_ != nullptr ? view_->lift(er.cex) : std::move(er.cex);
      // The witness checker decides every restricted counterexample (a
      // dropped assumption or constraint may be false on the lifted
      // trace) and, with the same oracle discipline, every one from a
      // post-retry engine.
      if (view_ != nullptr || result_.retries > 0) {
        const bool cex_ok = local_mode_
                                ? ts::is_local_cex(ts_, cex, prop_, assumed_)
                                : ts::is_global_cex(ts_, cex, prop_);
        if (!cex_ok && view_ != nullptr) {
          JAVER_LOG(Verbose) << "sched: restricted cex for P" << prop_
                             << " fails on the full design; restarting "
                                "on the full design";
          view_ = nullptr;
          engine_assumed_ = assumed_;
          cone_fallback_ = true;
          prelude_memo_ = nullptr;  // the view's conjunction, not ours
          discard_engine();
          sink.instant("task", "cone_fallback", slice_index);
          outcome = "cone_fallback";  // still open; next slice is full
          break;
        }
        if (!cex_ok) {
          throw std::runtime_error(
              "post-retry counterexample failed the witness oracle");
        }
      }
      finish_fails(std::move(cex));
      outcome = "fails";
      break;
    }
    default:
      if (!er.resumable ||
          (per_prop > 0 && engine_seconds_ >= per_prop)) {
        close_unknown();
        outcome = "unknown";
      } else {
        outcome = "suspended";
      }
      break;
  }

  if (engine_opts_.metrics != nullptr) {
    engine_opts_.metrics->add("task.slices");
  }
  if (sink.enabled()) {
    std::string args = "\"outcome\":\"";
    args += outcome;
    args += "\",\"slice_scale\":";
    args += std::to_string(applied_scale);
    sink.complete("task", "slice", span_begin, slice_index, std::move(args));
  }
}

}  // namespace javer::mp::sched
