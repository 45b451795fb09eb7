// Deterministic fault injection (src/fault): the controlled-failure half
// of the resilience substrate. A FaultPlan — parsed from the
// `javer_cli --fault-inject SPEC` grammar or EngineOptions::fault_plan —
// names tagged sites across the stack (SAT clause allocation, IC3
// consecution/MIC, BMC solves, persist I/O, task stalls) and when each
// should fire; a FaultInjector evaluates the plan at those sites with
// per-entry hit counters, so the same seed + spec always injects at the
// same sites (the determinism contract tests pin).
//
// Wiring: the scheduler that owns a run installs its injector into a
// process-global slot via ScopedInjection (first-wins, so a nested
// scheduler under an outer injected run is a no-op rather than a second
// source of faults); instrumentation sites call the inline inject_*
// helpers, which cost one relaxed atomic load when no plan is active.
// PropertyTask::run_slice brackets each slice in a TaskScope so
// deep sites (a SAT allocation five frames down) still know which
// property they are serving, which is what makes `prop=K` filters — and
// therefore per-entry ordinals — deterministic even under a thread pool.
//
// Observability: every fired entry bumps the `fault.injected` counter
// and records a "fault"/"inject" trace instant tagged with the property
// and site (src/obs), which tools/check_trace.py can gate with
// `--expect-span fault/inject`.
#ifndef JAVER_FAULT_FAULT_H
#define JAVER_FAULT_FAULT_H

#include <atomic>
#include <cstdint>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace javer::obs {
class MetricsRegistry;
class Tracer;
}  // namespace javer::obs

namespace javer::fault {

// What a site does when its entry fires. The kind is a property of the
// *site* (see kind_for_site), not of the plan entry: `sat.alloc` always
// means std::bad_alloc, `persist.store` always means a transient I/O
// error, so a spec cannot ask a site for a failure mode the real world
// could not produce there.
enum class FaultKind {
  BadAlloc,  // throw InjectedBadAlloc (resource exhaustion)
  Error,     // throw InjectedFault (deterministic engine failure)
  IoError,   // reported to the caller (transient EIO/ENOSPC; retryable)
  IoCrash,   // mid-write crash: partial staging file left behind
  Stall,     // artificial busy-wait inside a task slice
};

const char* kind_name(FaultKind kind);
// Failure mode of a known site name; nullopt for unknown sites (the
// parser rejects those up front).
std::optional<FaultKind> kind_for_site(std::string_view site);

// Thrown at Error-kind sites. Distinct from engine exceptions only by
// type; the isolation layer treats both identically (that is the point:
// injected faults exercise exactly the real failure path).
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

// Thrown at BadAlloc-kind sites; derives std::bad_alloc so generic
// out-of-memory handling (and the task isolation wrapper) sees the real
// exception type.
class InjectedBadAlloc : public std::bad_alloc {
 public:
  const char* what() const noexcept override {
    return "injected std::bad_alloc (fault plan)";
  }
};

// One plan entry: fire at `site`, optionally only for property `prop`,
// either at the `at`-th matching hit (one-shot), at every hit >= `at`
// (persistent), or per-hit with a deterministic seeded coin
// (`probability` >= 0 overrides at/persistent).
struct FaultSpec {
  std::string site;
  long long prop = -1;        // -1 = any property (including none)
  std::uint64_t at = 1;       // 1-based ordinal of the firing hit
  bool persistent = false;    // fire at every hit >= at
  double probability = -1.0;  // >= 0: seeded per-hit coin instead
  double stall_seconds = 0.05;  // Stall sites only
};

// A parsed --fault-inject spec.
//
//   SPEC  := item (';' item)*
//   item  := 'seed=' N | entry
//   entry := site ['@' N] ['+'] [':' opt (',' opt)*]
//   opt   := 'prop=' K | 'stall=' SECONDS | 'p=' PROB
//
// `site@3` fires at the third matching hit only; `site@3+` at every hit
// from the third on; a bare `site` is shorthand for `site@1`. Sites:
// sat.alloc, ic3.consecution, ic3.mic, bmc.solve, persist.store,
// persist.load, persist.store.crash, task.stall.
struct FaultPlan {
  std::vector<FaultSpec> entries;
  std::uint64_t seed = 1;

  bool empty() const { return entries.empty(); }
  // Throws std::runtime_error with a one-line reason on any grammar or
  // range violation (unknown site/option, at=0, p outside [0,1], ...).
  static FaultPlan parse(std::string_view spec);
  std::string to_string() const;
};

// What evaluate() hands back when an entry fires.
struct FaultHit {
  FaultKind kind = FaultKind::Error;
  double stall_seconds = 0.0;
  std::size_t entry = 0;  // index into FaultPlan::entries
};

// Evaluates a plan at instrumented sites. Each entry keeps an atomic
// ordinal of its *matching* hits (site and prop filter both pass), so
// one-shot/persistent thresholds are exact; with a prop filter the
// matching slices run single-threaded and the ordinal sequence is fully
// deterministic (unfiltered entries on a thread pool are deterministic
// in count, racy in interleaving — documented, and fine for chaos use).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan)
      : plan_(std::move(plan)), state_(plan_.entries.size()) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Handles may be null (off). Call before the run starts.
  void set_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  // Counts the hit on every entry matching (site, prop) and returns the
  // first firing entry, if any. Thread-safe.
  std::optional<FaultHit> evaluate(std::string_view site, long long prop);

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t hits(std::size_t entry) const {
    return state_[entry].hits.load(std::memory_order_relaxed);
  }
  std::uint64_t fired(std::size_t entry) const {
    return state_[entry].fired.load(std::memory_order_relaxed);
  }
  std::uint64_t total_fired() const {
    return total_fired_.load(std::memory_order_relaxed);
  }

 private:
  struct EntryState {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fired{0};
  };

  FaultPlan plan_;
  std::vector<EntryState> state_;  // sized once; never reallocated
  // Relaxed counter (like EntryState::hits/fired): sites only tally;
  // readers want totals after the run, not ordering with the throws.
  std::atomic<std::uint64_t> total_fired_{0};
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

namespace detail {
// The process-global injector slot the inline fast paths read. Null in
// every run without a fault plan; one acquire load per would-be site.
// Memory-order contract: ScopedInjection publishes with acq_rel CAS /
// release store, sites load with acquire, so a site that observes the
// pointer also observes the injector's fully-constructed plan/state.
extern std::atomic<FaultInjector*> g_injector;
// Property the calling thread is currently serving (-1 = none); set by
// fault::TaskScope around each task slice.
extern thread_local long long t_current_prop;
// Throwing tail of inject_point(): evaluates and throws per kind.
void fire_point(FaultInjector& injector, const char* site);
}  // namespace detail

// Installs `injector` into the global slot for its lifetime. First
// wins: if another injection scope is already active (e.g. a test's own
// scope around an injected scheduler run), this scope is a no-op and
// installed() is false.
class ScopedInjection {
 public:
  explicit ScopedInjection(FaultInjector* injector) {
    if (injector == nullptr) return;
    FaultInjector* expected = nullptr;
    installed_ = detail::g_injector.compare_exchange_strong(
        expected, injector, std::memory_order_acq_rel);
  }
  ScopedInjection(const ScopedInjection&) = delete;
  ScopedInjection& operator=(const ScopedInjection&) = delete;
  ~ScopedInjection() {
    if (installed_) {
      detail::g_injector.store(nullptr, std::memory_order_release);
    }
  }
  bool installed() const { return installed_; }

 private:
  bool installed_ = false;
};

// Tags the calling thread with the property it is serving, so deep
// sites (SAT allocations, persist writes) match `prop=` filters.
class TaskScope {
 public:
  explicit TaskScope(long long prop) : saved_(detail::t_current_prop) {
    detail::t_current_prop = prop;
  }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;
  ~TaskScope() { detail::t_current_prop = saved_; }

 private:
  long long saved_;
};

// --- instrumentation-site helpers (inline fast path: one atomic load
// --- when no plan is active) ----------------------------------------

// Throwing sites (sat.alloc, ic3.*, bmc.solve): throws InjectedBadAlloc
// or InjectedFault when the plan fires here, else returns.
inline void inject_point(const char* site) {
  FaultInjector* inj = detail::g_injector.load(std::memory_order_acquire);
  if (inj != nullptr) detail::fire_point(*inj, site);
}

// Queried sites (persist.*): the caller simulates the failure itself
// (error return, partial write) so the real degradation path runs.
inline std::optional<FaultHit> inject_io(const char* site) {
  FaultInjector* inj = detail::g_injector.load(std::memory_order_acquire);
  if (inj == nullptr) return std::nullopt;
  return inj->evaluate(site, detail::t_current_prop);
}

// Stall sites (task.stall): seconds to busy-wait, 0 when not firing.
inline double inject_stall(const char* site) {
  FaultInjector* inj = detail::g_injector.load(std::memory_order_acquire);
  if (inj == nullptr) return 0.0;
  std::optional<FaultHit> hit = inj->evaluate(site, detail::t_current_prop);
  return hit ? hit->stall_seconds : 0.0;
}

}  // namespace javer::fault

#endif  // JAVER_FAULT_FAULT_H
